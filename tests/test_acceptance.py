"""Acceptance gate, one test per criterion.

Each test delegates to the same functions `neckforge accept` runs, prints
the PASS/FAIL line (visible under `pytest -s` or in captured output), and
asserts the verdict.  Tolerances live in neckforge.acceptance, nowhere else.
"""

import dataclasses

from neckforge import indicial
from neckforge.acceptance import run_all


def _run(index):
    [res] = run_all(indices=[index])
    assert res.passed, f"criterion {index} failed: {res.detail}"


def test_criterion_01_constant_anchor():
    _run(1)


def test_criterion_02_exponent_lemma():
    _run(2)


def test_criterion_02_failure_names_the_lemma_notes(monkeypatch):
    build = indicial.root_catalog
    monkeypatch.setattr(indicial, "root_catalog", lambda *args: dataclasses.replace(
        build(*args), certified=False))
    [res] = run_all(indices=[2])
    assert not res.passed
    assert res.detail.startswith(
        "n=2 failed ['d']; mode-0 catalog count not certified; "
        "mode-1 catalog count not certified;")


def test_criterion_03_oracle_equivalence():
    _run(3)


def test_criterion_04_green_operator():
    _run(4)


def test_criterion_05_liouville():
    _run(5)


def test_criterion_06_glue_error_decay():
    _run(6)


def test_criterion_07_nonlinear_solve():
    _run(7)


def test_criterion_08_quadratic_remainder():
    _run(8)


def test_criterion_09_ball_degeneracy():
    _run(9)


def test_criterion_10_uniform_invertibility():
    _run(10)

"""Acceptance gate, one test per criterion.

Each test delegates to the same functions `neckforge accept` runs, prints
the PASS/FAIL line (visible under `pytest -s` or in captured output), and
asserts the verdict.  Tolerances live in neckforge.acceptance, nowhere else.
"""

import dataclasses

import pytest

from neckforge import acceptance, indicial, solver
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


def test_criterion_04_fails_on_a_wrong_sign_series(monkeypatch):
    # the residue series is the second route to green_solve's values: with
    # its sign flipped the two miss by 2 max|G g| = 0.42 at mode 1
    series = acceptance.synthesize_kernel
    monkeypatch.setattr(acceptance, "synthesize_kernel",
                        lambda spec, s: (-series(spec, s)[0], None))
    [res] = run_all(indices=[4])
    assert not res.passed
    assert res.detail.endswith("kernel two-route 4.25e-01")


def test_criterion_05_liouville():
    _run(5)


def test_criterion_05_fails_on_the_wrong_modes_exponents(monkeypatch):
    # projecting off mode m + 2's homogeneous solutions leaves mode m's
    # solve difference standing: 1.41e-06 at m = 0 and 3.84e-05 at m = 1
    build = acceptance.root_catalog
    monkeypatch.setattr(acceptance, "root_catalog", lambda spec, j: build(
        dataclasses.replace(spec, m=spec.m + 2), j))
    [res] = run_all(indices=[5])
    assert not res.passed
    assert res.detail == "m=1: residual 3.84e-05 off the homogeneous span"
    # the wrong catalog at m = 0 alone still fails, on mode 0's residual
    monkeypatch.setattr(acceptance, "root_catalog", lambda spec, j: build(
        dataclasses.replace(spec, m=spec.m + 2 * (spec.m == 0)), j))
    [res] = run_all(indices=[5])
    assert not res.passed
    assert res.detail == "m=0: residual 1.41e-06 off the homogeneous span"


def test_criterion_05_fails_on_exponents_off_by_a_thousandth(monkeypatch):
    # homogeneous solutions whose rates are 1e-3 too large leave the solve
    # difference 2.85e-08 off their span, above the 1e-8 bar
    columns = acceptance.homogeneous_columns

    def stretched(catalog, s):
        roots = tuple(dataclasses.replace(r, sigma=r.sigma * (1 + 1e-3))
                      for r in catalog.roots)
        return columns(dataclasses.replace(catalog, roots=roots), s)

    monkeypatch.setattr(acceptance, "homogeneous_columns", stretched)
    [res] = run_all(indices=[5])
    assert not res.passed
    assert res.detail == "m=1: residual 2.85e-08 off the homogeneous span"


def test_criterion_06_glue_error_decay():
    _run(6)


def test_criterion_07_nonlinear_solve():
    _run(7)


def test_criterion_08_quadratic_remainder():
    _run(8)


def test_criterion_09_ball_degeneracy():
    _run(9)


def test_criterion_09_fails_without_the_resonance_margin(monkeypatch):
    # with no margin every period 2 pi k/tau0 is built, so the refusal
    # clause finds none of the nine refused
    monkeypatch.setattr(solver, "RESONANCE_MARGIN", -1.0)
    [res] = run_all(indices=[9])
    assert not res.passed
    assert res.detail.endswith("refused 0/9")


@pytest.mark.parametrize("m", [0, 2])
def test_criterion_09_fails_off_the_mode_1_row(monkeypatch, m):
    # the centre motion is a kernel of mode 1 only: through the mode-0 or
    # mode-2 row its residual reads 0.26-0.70 at n = 2, 3, 4
    residual = acceptance._kernel_residual
    assert min(residual(n, m) for n in (2, 3, 4)) >= 0.1
    monkeypatch.setattr(acceptance, "_kernel_residual", lambda n: residual(n, m))
    [res] = run_all(indices=[9])
    assert not res.passed


def test_criterion_10_uniform_invertibility():
    _run(10)

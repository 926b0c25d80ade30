"""The benchmark's own checks must be able to fail, and a smoke run must pass.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from reference import theta_mp  # noqa: E402
from spans import OpContext, Tracer, clear_package_caches  # noqa: E402


def _shift_first_root(result):
    first, cat = result
    r0 = cat.roots[0]
    moved = dataclasses.replace(r0, sigma=r0.sigma + 1e-9) if r0.sigma else \
        dataclasses.replace(r0, tau=r0.tau + 1e-9)
    return first, dataclasses.replace(cat, roots=(moved,) + cat.roots[1:])


def _scale_ode(result):
    ode, fd, halfdisk = result
    return ode * (1.0 + 1e-8), fd, halfdisk


def _bump_roundtrip(result):
    s, h, back, rate = result
    back = back.copy()
    back[len(back) // 2] += 1e-5
    return s, h, back, rate


def _perturb_final_state(result):
    errors, sigma_min, report = result
    f_hat = report.final_f.f_hat.copy()
    f_hat[1, 1] += 1e-8 * report.final_f.N_s
    f_hat[1, -1] += 1e-8 * report.final_f.N_s
    final = report.final_f.with_table(f_hat)
    return errors, sigma_min, dataclasses.replace(report, final_f=final)


CORRUPTIONS = {
    "roots": ((3, 0), _shift_first_root),
    "bulk": ((3, 1, 1.5, None), _scale_ode),
    "green": ((1, 0.75, 1.5), _bump_roundtrip),
    "glue": (("newton", 0.025, ((1, 1, 0.01, 0.0), (2, 2, 0.005, 1.0))), _perturb_final_state),
}


class Corrupted:
    """A workload whose every op result is corrupted before its check."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt

    def op(self, case, ctx):
        return self.corrupt(self.inner.op(case, ctx))

    def check(self, case, result):
        return self.inner.check(case, result)


@pytest.fixture(scope="module")
def ready():
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        wl.setup()
        wl.prepare()
        out[name] = wl
    return out


def _case(name):
    case = CORRUPTIONS[name][0]
    if name == "bulk":
        n, m, xi, _ = case
        case = (n, m, xi, theta_mp(n, m, xi))
    return case


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_clean_op_passes(ready, name):
    wl = ready[name]
    case = _case(name)
    ok, digits, note = wl.check(case, wl.op(case, OpContext()))
    assert ok, note
    assert digits > 8.0


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_op_counts_as_failed(ready, name):
    wl = ready[name]
    case = _case(name)
    bad = Corrupted(wl, CORRUPTIONS[name][1])
    loop = run.run_loop(bad, [case], iter([[0]]), 0.0)
    failed, ratio = run.failures(loop.samples)
    assert len(failed) == 1 and ratio > 0.0
    assert not loop.samples[0].ok and loop.samples[0].note


def test_raising_op_counts_as_failed(ready):
    class Raising:
        def op(self, case, ctx):
            raise ValueError("boom")

    loop = run.run_loop(Raising(), [None, None], iter([[0, 1]]), 0.0)
    failed, ratio = run.failures(loop.samples)
    assert ratio == 1.0 and "ValueError: boom" in failed[0]
    assert all(s.probe > 0.0 for s in loop.samples)


def test_cases_and_rounds_repeat_for_a_seed(ready):
    for name, wl in ready.items():
        rng_a, rng_b = random.Random(7), random.Random(7)
        cases = wl.cases(rng_a)
        assert cases == wl.cases(rng_b)
        a = run.shuffled_rounds(len(cases), rng_a)
        b = run.shuffled_rounds(len(cases), rng_b)
        first = [next(a) for _ in range(3)]
        assert first == [next(b) for _ in range(3)]
        assert all(sorted(order) == list(range(len(cases))) for order in first)


def test_end_to_end_figures():
    nominal = run.PROBE_NOMINAL_S
    samples = [run.Sample(latency, True, 10.0 - latency, "", {}, {}, probe)
               for latency, probe in ((0.3, nominal), (2.0, 2 * nominal), (0.1, nominal),
                                      (1.0, nominal), (4.0, 2 * nominal))]
    loop = run.LoopResult(samples=samples, rounds=[[0, 1]] * 2, timed=7.4)
    metrics, notes = run.end_to_end(loop, [1.0, 3.0, 2.0])
    assert metrics["ops_per_s_adj"][0] == pytest.approx(5 / 4.4)
    assert metrics["setup_s"][0] == 2.0
    assert metrics["digits"][0] == 6.0
    assert notes["ops_per_s"] == pytest.approx(5 / 7.4)
    assert notes["op_ms_p50"] == pytest.approx(1000.0)


def test_cache_scan_empties_the_catalog_cache(ready):
    from neckforge import indicial
    from neckforge.symbol import ModeSpec

    indicial.root_catalog(ModeSpec(n=3, m=0), 2)
    assert clear_package_caches() >= 1
    assert indicial._catalog_cached.cache_info().currsize == 0


def test_tracer_attributes_cross_layer_calls(ready):
    from neckforge import symbol

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op", "op"):
            symbol.theta(symbol.ModeSpec(n=3, m=0), np.linspace(0.0, 4.0, 9))
    finally:
        tracer.uninstall()
    names = [rec[0] for rec in tracer.spans]
    assert names == ["op", "symbol.theta", "specfun.log_gamma", "specfun.log_gamma"]
    assert tracer.spans[2][-1] == 9  # points of the vector call
    assert not hasattr(symbol.theta, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_exits_zero(workload):
    trace = workload == "green"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_library_exits_nonzero(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "roots",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout.strip() == ""

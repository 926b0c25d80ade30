#!/usr/bin/env python3
"""Benchmark of the Theta_m chain: four workloads, end-to-end and per layer.

Run from the repository root:

    python3 bench/run.py --workload roots --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
ops once with layer spans recorded and once without, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Provenance, the failure ratio, the wall-clock throughput and the median
and tail op latency go to the line before it and to ``.bench_out/``.  See
README.md in this directory for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3  # one in this process, the rest in fresh child processes
CHILD_TIMEOUT_S = 170
PROBE_EVERY_S = 0.5     # re-measure the host's speed at most this often
PROBE_NOMINAL_S = 5e-3  # probe time of the nominal host that ops_per_s_adj refers to

import spans  # noqa: E402  (stdlib only; the library is imported inside setup)


@dataclass
class Sample:
    latency: float
    ok: bool
    digits: float | None
    note: str
    timings: dict
    counts: dict
    probe: float = 0.0  # host-speed probe time around the op; see run_loop


@dataclass
class LoopResult:
    samples: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    timed: float = 0.0


def load_workload(name: str):
    """Import the library and the workload, then warm up; return (workload, seconds)."""
    t0 = perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    workloads = importlib.import_module("workloads")
    here = os.path.dirname(os.path.abspath(sys.modules["neckforge"].__file__))
    if here != os.path.join(SRC, "neckforge"):
        raise ImportError(f"neckforge was imported from {here}, not from this checkout")
    wl = workloads.WORKLOADS[name]()
    wl.setup()
    return wl, perf_counter() - t0


def child_setup_seconds(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def probe_seconds() -> float:
    """Best of two timings of a fixed pure-Python loop: the host's speed now."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        acc = 0
        for i in range(75000):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best


def settle_probe(pending: list, before: float) -> float:
    """Probe now; give the ops run since the last probe the mean of the two."""
    after = probe_seconds()
    for sample in pending:
        sample.probe = 0.5 * (before + after)
    pending.clear()
    return after


def run_op(wl, case, tracer, op_id) -> Sample:
    ctx = spans.OpContext(tracer)
    ok, digits, note = False, None, ""
    t0 = perf_counter()
    if tracer is not None:
        tracer.op = op_id
        outer = tracer.span(spans.OP, spans.OP)
    else:
        outer = nullcontext()
    with outer:
        try:
            result = wl.op(case, ctx)
            with ctx.bench("check"):
                ok, digits, note = wl.check(case, result)
        except Exception as exc:  # noqa: BLE001 - a raising op is counted as failed
            note = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return Sample(perf_counter() - t0, ok, digits, note, ctx.timings, ctx.counts)


def shuffled_rounds(n_cases: int, rng):
    """Endless rounds, each every case index once in a new seeded order."""
    while True:
        order = list(range(n_cases))
        rng.shuffle(order)
        yield order


def run_loop(wl, cases, rounds, seconds: float, tracer=None) -> LoopResult:
    """Run whole rounds, at least one, while half a mean round fits in `seconds`.

    A round is a list of indices into `cases`.  Only the ops are timed.  A
    host-speed probe, off the clock, runs between ops at most every
    `PROBE_EVERY_S`; each op records the mean of the probes on either side.
    """
    out = LoopResult()
    round_times = []
    pending = []
    probe, probed_at = probe_seconds(), perf_counter()
    for order in rounds:
        if round_times and out.timed + 0.5 * statistics.fmean(round_times) > seconds:
            break
        dt = 0.0
        for index in order:
            if pending and perf_counter() - probed_at >= PROBE_EVERY_S:
                probe, probed_at = settle_probe(pending, probe), perf_counter()
            sample = run_op(wl, cases[index], tracer, len(out.samples))
            pending.append(sample)
            out.samples.append(sample)
            dt += sample.latency
        round_times.append(dt)
        out.timed += dt
        out.rounds.append(order)
    settle_probe(pending, probe)
    return out


def failures(samples: list) -> tuple:
    """Failure messages of the failed ops, and their share of the attempted ops."""
    failed = [s.note for s in samples if not s.ok]
    return failed, (len(failed) / len(samples) if samples else 1.0)


def tail(latencies: list) -> tuple:
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def p50_ms(values: list) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def merged_timings(loop: LoopResult) -> dict:
    out = {}
    for s in loop.samples:
        for label, values in s.timings.items():
            out.setdefault(label, []).extend(values)
    return out


def end_to_end(loop: LoopResult, setups: list) -> tuple:
    lat = [s.latency for s in loop.samples]
    tail_s, tail_pct = tail(lat)
    digits = [s.digits for s in loop.samples if s.digits is not None]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s_adj": (len(lat) / sum(s.latency * PROBE_NOMINAL_S / s.probe
                                         for s in loop.samples), "1/s"),
        "digits": (min(digits) if digits else 0.0, "digits"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    # The host's CPU speed flips between a fast and a slow phase, about 1.4
    # times apart, that last from seconds to minutes; a whole run can sit in
    # one.  So the metric scales each op's latency by the speed the probes
    # around it measured, and the wall-clock figures are notes.
    notes = {"ops_per_s": len(lat) / loop.timed,
             "probe_ms_p50": 1e3 * statistics.median(s.probe for s in loop.samples),
             "op_ms_p50": p50_ms(lat), "op_ms_tail": 1e3 * tail_s,
             "op_ms_tail_percentile": tail_pct, "samples": len(lat), "setup_s_runs": setups,
             "timed_s": loop.timed, "rounds": len(loop.rounds),
             "call_ms_p50": {label: p50_ms(v) for label, v in merged_timings(loop).items()}}
    return metrics, notes


# per-layer latencies: metric name -> call label recorded by the workloads
CALL_P50 = {"indicial.catalog_ms_p50": "catalog", "extension.ode_ms_p50": "ode",
            "extension.fd_ms_p50": "fd", "extension.halfdisk_ms_p50": "halfdisk",
            "modegreen.solve_ms_p50": "solve", "modegreen.apply_ms_p50": "apply",
            "neck.error_ms_p50": "error", "solver.newton_ms_p50": "newton",
            "solver.invert_eps_ms_p50": "invert"}
# per-layer totals over the traced rounds: metric name -> count recorded by the workloads
TOTALS = {"indicial.catalogs": "catalogs", "extension.cases": "cases",
          "modegreen.solves": "solves", "neck.evals": "evals"}


def per_layer(traced: LoopResult, untraced: LoopResult, tracer) -> tuple:
    ops = len(traced.samples)
    info = spans.analyse(tracer.spans)
    self_s, entries, points = info["self_s"], info["entries"], info["points"]
    counts = Counter()
    for s in traced.samples:
        counts.update(s.counts)
    timings = merged_timings(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {f"{layer}.self_s": (self_s.get(layer, 0.0) / ops, "s/op")
               for layer in (*spans.LAYERS, spans.BENCH)}
    metrics.update({name: (p50_ms(timings.get(label, [])), "ms")
                    for name, label in CALL_P50.items()})
    metrics.update({name: (counts[label], "count") for name, label in TOTALS.items()})
    attributed = sum(self_s.get(layer, 0.0) for layer in (*spans.LAYERS, spans.BENCH))
    metrics.update({
        "specfun.calls": (entries.get("specfun", 0) / ops, "count/op"),
        "specfun.points": (points.get("specfun", 0) / ops, "count/op"),
        "specfun.us_per_point": (1e6 * ratio(self_s.get("specfun", 0.0),
                                             points.get("specfun", 0)), "us/point"),
        "symbol.calls": (entries.get("symbol", 0) / ops, "count/op"),
        "indicial.roots_found": (counts["roots"] / ops, "count/op"),
        "indicial.certified_ratio": (ratio(counts["certified"], counts["catalogs"]), "ratio"),
        "indicial.points_per_root": (ratio(spans.points_under(tracer.spans, "indicial",
                                                              "specfun"), counts["roots"]),
                                     "count/root"),
        "extension.rhs_evals": (tracer.counters["extension.rhs_evals"] / ops, "count/op"),
        "solver.newton_iters": (counts["newton_iters"] / ops, "count/op"),
        "solver.apply_Q_calls": (tracer.calls["solver.apply_Q"] / ops, "count/op"),
        "trace.overhead_ratio": (ratio(untraced.timed, traced.timed), "ratio"),
        "trace.coverage": (ratio(attributed, info["op_wall"]), "ratio"),
        "trace.ops": (ops, "count"),
    })
    shares = {layer: ratio(self_s.get(layer, 0.0), info["op_wall"])
              for layer in (*spans.LAYERS, spans.BENCH)}
    return metrics, {"shares": shares, "samples": ops, "timed_s": traced.timed,
                     "untraced_timed_s": untraced.timed}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "neckforge", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def blas_info() -> dict:
    """BLAS build of numpy and scipy and the thread count each is using now."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        entry = {}
        try:
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            entry = {"name": blas.get("name"), "version": blas.get("version")}
        except (KeyError, TypeError):
            pass
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*")):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    entry["threads"] = fn()
                    break
        out[pkg.__name__] = entry
    return out


def provenance(args) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info(),
            "threads_env": {k: os.environ[k] for k in sorted(os.environ)
                            if k.endswith("_NUM_THREADS")}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("roots", "bulk", "green", "glue"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and warm up only; print the set-up time (used for setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, setup_first = load_workload(args.workload)
    except ImportError as exc:
        print(f"bench: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    wl.prepare()
    rng = random.Random(args.seed)
    cases = wl.cases(rng)
    rounds = shuffled_rounds(len(cases), rng)
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            loop = run_loop(wl, cases, rounds, 0.5 * args.seconds, tracer)
        finally:
            tracer.uninstall()
        replay = run_loop(wl, cases, loop.rounds, float("inf"))
        metrics, notes = per_layer(loop, replay, tracer)
    else:
        loop = run_loop(wl, cases, rounds, args.seconds)
        setups = [setup_first] + [child_setup_seconds(args.workload)
                                  for _ in range(SETUP_REPEATS - 1)]
        metrics, notes = end_to_end(loop, setups)

    attempted = len(loop.samples)
    failed, failed_ratio = failures(loop.samples)
    notes.update(failed_ratio=failed_ratio, first_failures=failed[:5])
    record = {"provenance": provenance(args), "notes": notes,
              "latencies_ms": [1e3 * s.latency for s in loop.samples],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:  # one spans file per workload, so repeated runs do not pile up
        tracer.dump(os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"))
    for note in failed[:5]:
        print(f"bench: failed op: {note}", file=sys.stderr)
    print("# " + json.dumps({"provenance": record["provenance"], "notes": notes}))
    print(json.dumps({"correct": attempted > 0 and not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment scripts run end to end."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_glue_sweep_script_runs():
    floors = [ln for ln in _run("glue_sweep.py").splitlines() if "floor" in ln]
    assert len(floors) == 2          # one summary line per dimension


def test_dtn_convergence_script_runs():
    colloc, fd, halfdisk = _run("dtn_convergence.py").split("\n\n")
    assert [t.splitlines()[0] for t in (colloc, fd, halfdisk)] == [
        "scheme=collocation-ODE", "scheme=finite-difference", "scheme=half-disk-2d"]
    colloc_rows = colloc.splitlines()[2:]
    fd_rows = fd.splitlines()[2:]
    halfdisk_rows = halfdisk.splitlines()[2:]
    assert len(colloc_rows) == len(fd_rows) == 5
    assert len(halfdisk_rows) == 2  # the n = 2 cases
    # collocation rows end in rel_err; FD rows end in three doubling ratios
    assert all(float(row.split()[-1]) <= 1e-12 for row in colloc_rows)
    assert all(float(r) >= 3.0 for row in fd_rows for r in row.split()[-3:])
    assert all(float(row.split()[-1]) <= 5e-3 for row in halfdisk_rows)


def test_root_atlas_script_runs():
    summary = [ln for ln in _run("root_atlas.py", "3", "4").splitlines()
               if ln.startswith("# n=")]
    assert len(summary) == 2                # one line per dimension, n = 2, 3
    # at n = 3 mode 1's first exponent equals the ceiling (n-1)/2 = 1 exactly
    assert summary[1].endswith("modes with sigma_0 above it: [2, 3, 4], on it: [1]")


def test_catalog_digest_script_is_deterministic():
    first, second = (_run("catalog_digest.py", "--quick").splitlines() for _ in range(2))
    assert first == second
    total = first[0].split()
    assert len(total[0]) == 64 and total[1:] == ["catalogs=48", "first_roots=24", "raised=0"]
    # then one digest per kind
    assert [ln.split()[0] for ln in first[1:]] == ["catalog", "first"]
    assert all(len(ln.split()[1]) == 64 for ln in first[1:])


def test_glue_digest_script_is_deterministic():
    first, second = (_run("glue_digest.py", "--quick").splitlines() for _ in range(2))
    assert first == second
    total = first[0].split()
    assert len(total[0]) == 64 and total[1:] == [
        "error=8", "selftest=1", "study=1", "c10=0", "ball=1", "solve=1", "raised=0"]
    # then one digest per kind
    assert [ln.split()[0] for ln in first[1:]] == [
        "error", "selftest", "study", "c10", "ball", "solve"]
    assert all(len(ln.split()[1]) == 64 for ln in first[1:])


def test_green_digest_script_is_deterministic():
    first, second = (_run("green_digest.py", "--quick").splitlines() for _ in range(2))
    assert first == second
    total = first[0].split()
    assert len(total[0]) == 64 and total[1:] == [
        "c4=2", "c5=2", "bench=2", "beta=12", "raised=4"]
    # then one digest per kind
    assert [ln.split()[0] for ln in first[1:]] == ["c4", "c5", "bench", "beta"]
    assert all(len(ln.split()[1]) == 64 for ln in first[1:])


def test_option_count_script_runs():
    lines = _run("option_count.py").splitlines()
    modules = [ln for ln in lines if not ln.startswith((" ", "total:"))]
    assert "cli" not in {ln.split(":")[0] for ln in modules}
    counts = [[int(w) for w in ln.split() if w.isdigit()] for ln in modules]
    total = [int(w) for w in lines[-1].split() if w.isdigit()]
    assert total == [sum(c[0] for c in counts), sum(c[1] for c in counts)]
    assert total[1] == sum(1 for ln in lines if ln.startswith("    "))
    # pinned: a new public callable or settable value moves these and has to
    # be argued for where it is added
    assert lines[-1] == "total: 66 callables, 71 settable values"

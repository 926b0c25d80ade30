"""Command-line front end: config parsing, dispatch, and CSV emission.

Config files are line-oriented ``key = value`` with ``#`` comments and one
``[section]`` per command (plus ``[global]``); the flat schema keeps the
format parseable with a dozen lines in any language.  CLI flags override
file values.  All floats are printed with 17 significant digits so output
can be compared across languages bit-for-bit; bodies are byte-identical
between runs, and the only timestamp lives in a comment header that
``--deterministic`` suppresses (for ``accept``, it also drops each
criterion's wall time).

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 acceptance
(or lemma-suite) failure.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .errors import ConfigError, Diverged, NumericalError, ParseError, ValidationError

FORMAT_VERSION = 1
SET_CAP = 100_000  # most entries a range or grid value may expand to


# --------------------------------------------------------------------------
# value coercers: each takes the raw string (config file or flag) and the key
# name, returns the typed value, and raises ValidationError naming the key.

def _fail(key, raw, want):
    raise ValidationError(f"key '{key}': cannot read {raw!r} as {want}")


def _check_size(count, key, text):
    if not count <= SET_CAP:  # also true for an inf or nan count
        raise ValidationError(f"key '{key}': {text!r} has more than {SET_CAP} entries")


def _as_int(raw, key):
    try:
        return int(str(raw).strip())
    except ValueError:
        _fail(key, raw, "an integer")


def _as_float(raw, key):
    try:
        x = float(str(raw).strip())
    except ValueError:
        _fail(key, raw, "a number")
    if not np.isfinite(x):
        _fail(key, raw, "a finite number")
    return x


def _as_bool(raw, key):
    if isinstance(raw, bool):
        return raw
    word = str(raw).strip().lower()
    if word in ("true", "yes", "1", "on"):
        return True
    if word in ("false", "no", "0", "off"):
        return False
    _fail(key, raw, "a boolean")


def _as_str(raw, key):
    return str(raw).strip()


def _choice(*options):
    def coerce(raw, key):
        word = str(raw).strip()
        if word not in options:
            raise ValidationError(f"key '{key}': {word!r} not one of {options}")
        return word
    return coerce


def _int_range(raw, key):
    """Integer set: '0..4' (inclusive), '1,3,5', or a single value."""
    text = str(raw).strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        a, b = _as_int(lo, key), _as_int(hi, key)
        if b < a:
            raise ValidationError(f"key '{key}': empty range {text!r}")
        _check_size(b - a + 1, key, text)
        return list(range(a, b + 1))
    if "," in text:
        return [_as_int(t, key) for t in text.split(",")]
    return [_as_int(text, key)]


def _float_grid(raw, key):
    """Float set: 'a:step:b' (inclusive grid), 'x,y,z', or a single value."""
    text = str(raw).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"key '{key}': grid must be start:step:stop")
        a, h, b = (_as_float(t, key) for t in parts)
        if h <= 0 or b < a:
            raise ValidationError(f"key '{key}': bad grid {text!r}")
        _check_size((b - a) / h + 1, key, text)
        count = int(round((b - a) / h)) + 1
        return [a + i * h for i in range(count) if a + i * h <= b + 1e-12 * h]
    if "," in text:
        return [_as_float(t, key) for t in text.split(",")]
    return [_as_float(text, key)]


def _float_in(lo, hi):
    def coerce(raw, key):
        x = _as_float(raw, key)
        if not (lo < x < hi):
            raise ValidationError(f"key '{key}': {x} outside ({lo}, {hi})")
        return x
    return coerce


def _eps_set(raw, key):
    """Neck parameters: a float set as for _float_grid, each entry in (0, 0.25)."""
    inside = _float_in(0.0, 0.25)
    return [inside(x, key) for x in _float_grid(raw, key)]


def _pos_int(raw, key):
    v = _as_int(raw, key)
    if v < 1:
        raise ValidationError(f"key '{key}': must be >= 1, got {v}")
    return v


# keys every command takes; the per-command schemas sit in _TABLE, after the runners
_GLOBAL = {
    "out": (_as_str, None),
    "deterministic": (_as_bool, False),
}

@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")


def _known_keys(command: str) -> dict:
    merged = dict(_GLOBAL)
    merged.update(_SCHEMAS[command])
    return merged


def _parse_file(path: str) -> dict:
    """Raw sections: {section: {key: value-string}}; line numbers in errors."""
    sections: dict = {}
    current = "global"
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ParseError(f"malformed section header {raw.strip()!r}",
                                 line=lineno)
            name = line[1:-1].strip()
            if name != "global" and name not in COMMANDS:
                raise ValidationError(f"unknown section '{name}'"
                                      f" (line {lineno})")
            current = name
            continue
        key, eq, value = line.partition("=")
        if not eq or not key.strip():
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}",
                             line=lineno)
        norm = key.strip().replace("-", "_")
        sections.setdefault(current, {})[norm] = value.strip()
    return sections


def load_config(path: str | None, command: str | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Merge defaults <- file [global] <- file [command] <- CLI flags."""
    sections = _parse_file(path) if path else {}
    file_command = sections.get("global", {}).pop("command", None)
    command = command or file_command
    if command is None:
        raise ValidationError("no command given (flag or 'command =' in [global])")
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")

    schema = _known_keys(command)
    raw: dict = {}
    for section in ("global", command):
        for key, value in sections.get(section, {}).items():
            if key not in schema:
                raise ValidationError(f"unknown key '{key}' for command "
                                      f"'{command}'")
            raw[key] = value
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in schema:
            raise ValidationError(f"unknown key '{key}' for command '{command}'")
        raw[key] = value

    params = {}
    for key, (coerce, default) in schema.items():
        if key in raw:
            params[key] = coerce(raw[key], key)
        else:
            params[key] = default
    return RunConfig(command=command, parameters=params)


# --------------------------------------------------------------------------
# emission

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _config_text(config: RunConfig) -> str:
    parts = []
    for key in sorted(config.parameters):
        val = config.parameters[key]
        if val is None:
            continue
        if isinstance(val, (list, tuple)):
            parts.append(f"{key}={','.join(_fmt(v) for v in val)}")
        else:
            parts.append(f"{key}={_fmt(val)}")
    return "; ".join(parts)


@contextmanager
def _out_file(config: RunConfig):
    """The `out` file opened for writing, or None when no path is set; a
    path that cannot be opened is a ConfigError naming the key."""
    path = config.parameters.get("out")
    if not path:
        yield None
        return
    try:
        stream = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"key 'out': cannot write {path!r}: {exc.strerror}") from exc
    with stream:
        yield stream


def _header(config: RunConfig, stream):
    stream.write(f"# neckforge {__version__} format={FORMAT_VERSION} "
                 f"command={config.command}\n")


def _emit(config: RunConfig, out, columns, rows):
    """CSV on `out` (stdout when None) with a comment header recording the
    full config and version."""
    stream = sys.stdout if out is None else out
    _header(config, stream)
    stream.write(f"# config: {_config_text(config)}\n")
    if not config.parameters.get("deterministic"):
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        stream.write(f"# generated: {now}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


# --------------------------------------------------------------------------
# command runners: (config, open `out` file or None) -> exit code

def _run_symbol(config: RunConfig, out) -> int:
    from .symbol import ModeSpec, theta
    p = config.parameters
    rows = []
    for m in p["m"]:
        spec = ModeSpec(n=p["n"], gamma=p["gamma"], m=m)
        for xi in p["xi"]:
            rows.append((p["n"], p["gamma"], m, xi, float(theta(spec, xi))))
    _emit(config, out, ("n", "gamma", "m", "xi", "theta"), rows)
    return 0


def _run_indicial(config: RunConfig, out) -> int:
    from .indicial import root_catalog
    from .symbol import ModeSpec
    p = config.parameters
    rows = []
    for m in p["m"]:
        spec = ModeSpec(n=p["n"], gamma=p["gamma"], m=m)
        cat = root_catalog(spec, p["j_count"])
        for j, root in enumerate(cat.roots):
            rows.append((p["n"], p["gamma"], m, j, root.sigma, root.tau))
    _emit(config, out, ("n", "gamma", "m", "j", "sigma", "tau"), rows)
    return 0


def _run_check_lemma(config: RunConfig, out) -> int:
    from .indicial import check_lemma
    p = config.parameters
    rows, all_ok = [], True
    for n in p["n"]:
        rep = check_lemma(n, m_max=p["m_max"], j_max=p["j_max"], tol_b=p["tol_b"])
        all_ok = all_ok and rep.passed
        for note in rep.notes:
            print(f"# n={n}: {note}", file=sys.stderr)
        rows.append((n, rep.tau0, rep.clause_a, rep.clause_b,
                     rep.clause_c, rep.clause_d, rep.passed))
    _emit(config, out, ("n", "tau0", "clause_a", "clause_b", "clause_c",
                        "clause_d", "passed"), rows)
    return 0 if all_ok else 4


def _run_green(config: RunConfig, out) -> int:
    from .modegreen import (DecayProfile, LineFunction, fit_tail_rate,
                            green_solve)
    from .symbol import ModeSpec
    p = config.parameters
    delta, half, N = p["delta"], p["half_window"], p["points"]
    rows = []
    for m in p["m"]:
        spec = ModeSpec(n=p["n"], gamma=p["gamma"], m=m)
        h = LineFunction.from_callable(
            lambda s: np.exp(-delta * np.sqrt(s * s + 4.0)),
            s0=-half, s1=half, N=N, mode=m)
        v = green_solve(spec, h, DecayProfile(delta=delta), beta=p["beta"])
        s, vals = v.grid(), v.materialize()
        for i in range(N):
            rows.append((m, s[i], h.values[i], vals[i]))
        if m == 0:
            print(f"# mode 0: fitted right-tail rate {_fmt(fit_tail_rate(v, '+'))} "
                  f"(declared -{_fmt(delta)}); the left tail is the oscillatory "
                  "sin(tau0 s)", file=sys.stderr)
        else:
            print(f"# mode {m}: fitted tail rates {_fmt(fit_tail_rate(v, '-'))} / "
                  f"{_fmt(fit_tail_rate(v, '+'))} (declared +/-{_fmt(delta)})",
                  file=sys.stderr)
    _emit(config, out, ("m", "s", "rhs", "solution"), rows)
    return 0


def _run_extension_validate(config: RunConfig, out) -> int:
    from .extension import cross_validate
    p = config.parameters
    rows = []
    for n in p["n"]:
        for r in cross_validate(n, p["m"], p["xi"], phi_grid=p["phi_grid"],
                                scheme=p["scheme"]):
            rows.append((r["n"], r["m"], r["xi"], r["dtn"], r["theta"],
                         r["rel_err"]))
    _emit(config, out, ("n", "m", "xi", "dtn", "theta", "rel_err"), rows)
    return 0


def _run_glue(config: RunConfig, out) -> int:
    from .neck import error_sweep
    p = config.parameters
    rows = [(r["epsilon"], r["S_eps"], r["delta"], r["E"])
            for r in error_sweep(p["n"], p["eps"], p["mu"], n_s=p["n_s"], pad=p["pad"])]
    _emit(config, out, ("epsilon", "S", "delta", "E"), rows)
    return 0


def _run_solve(config: RunConfig, out) -> int:
    from .solver import PeriodicCylinderState, newton_solve
    p = config.parameters
    state = PeriodicCylinderState.ones(p["n"], m_max=p["m_max"], N_s=p["n_s"])
    values = state.values.copy()
    for m in p["modes"]:
        if not 0 <= m <= p["m_max"]:
            raise ValidationError(f"key 'modes': mode {m} outside 0..{p['m_max']}")
        values[m] += p["amplitude"] * np.cos(2.0 * np.pi * np.arange(state.N_s) / state.N_s)
    start = PeriodicCylinderState(state.n, state.L, values)
    report = newton_solve(start, tol=p["tol"], max_iter=p["max_iter"],
                          method=p["method"])
    print(f"# method={report.method} iterations={report.iterations} "
          f"converged={report.converged}", file=sys.stderr)
    if report.notes:
        print(f"# {report.notes}", file=sys.stderr)
    rows = [(k, r) for k, r in enumerate(report.residual_history)]
    _emit(config, out, ("step", "residual"), rows)
    return 0 if report.converged else 3


def _run_accept(config: RunConfig, out) -> int:
    from .acceptance import format_line, run_all
    p = config.parameters
    indices = set(p["criteria"]) if p["criteria"] else None
    results = run_all(indices=indices)
    if p["deterministic"]:  # wall times differ from run to run
        results = [replace(r, elapsed=None) for r in results]
    lines = [format_line(r) + "\n" for r in results]
    sys.stdout.writelines(lines)
    if out is not None:
        _header(config, out)
        out.writelines(lines)
    return 0 if results and all(r.passed for r in results) else 4


# one row per command: name -> (help, schema, runner); schema maps each key
# to (coercer, default), a None default meaning computed or optional
_TABLE = {
    "symbol": ("evaluate the boundary symbol on a frequency grid", {
        "n": (_pos_int, 3),
        "gamma": (_float_in(0.0, 1.0), 0.5),
        "m": (_int_range, [0]),
        "xi": (_float_grid, [0.0]),
    }, _run_symbol),
    "indicial": ("tabulate certified indicial roots", {
        "n": (_pos_int, 3),
        "gamma": (_float_in(0.0, 1.0), 0.5),
        "m": (_int_range, [0]),
        "j_count": (_pos_int, 3),
    }, _run_indicial),
    "check-lemma": ("run the exponent-lemma clause suite", {
        "n": (_int_range, [2, 3, 4, 5]),
        "m_max": (_pos_int, 6),
        "j_max": (_pos_int, 3),
        "tol_b": (_float_in(0.0, np.inf), 1e-8),
    }, _run_check_lemma),
    "green": ("solve the mode-wise line problem for a canonical source", {
        "n": (_pos_int, 3),
        "gamma": (_float_in(0.0, 1.0), 0.5),
        "m": (_int_range, [0]),
        "delta": (_as_float, 0.5),
        "half_window": (_as_float, 30.0),
        "points": (_pos_int, 4096),
        "beta": (_as_float, None),
    }, _run_green),
    "extension-validate": ("cross-check the symbol against the bulk ODE", {
        "n": (_int_range, [2, 3]),
        "m": (_int_range, [0, 1, 2, 3, 4]),
        "xi": (_float_grid, [0.0, 0.5, 1.0, 2.0, 4.0]),
        "phi_grid": (_pos_int, 1024),
        "scheme": (_choice("collocation-ODE", "finite-difference"), "collocation-ODE"),
    }, _run_extension_validate),
    "glue": ("approximate-curvature error for glued necks", {
        "eps": (_eps_set, [0.1]),
        "n": (_pos_int, 3),
        "mu": (_as_float, -0.5),
        "n_s": (_pos_int, 4096),
        "pad": (_as_float, 4.0),
    }, _run_glue),
    "solve": ("nonlinear curvature solve on the periodic cylinder", {
        "n": (_pos_int, 3),
        "m_max": (_pos_int, 8),
        "n_s": (_pos_int, 256),
        "modes": (_int_range, [1, 2]),
        "amplitude": (_as_float, 0.01),
        "method": (_choice("newton", "fixed-point"), "newton"),
        "tol": (_float_in(0.0, np.inf), 1e-11),
        "max_iter": (_pos_int, 40),
    }, _run_solve),
    "accept": ("run the acceptance suite", {
        "criteria": (_int_range, None),
    }, _run_accept),
}
COMMANDS = tuple(_TABLE)
_SCHEMAS = {name: schema for name, (_, schema, _) in _TABLE.items()}


def run(config: RunConfig) -> int:
    # `out` is opened before dispatch, so a bad path fails before any work
    with _out_file(config) as out:
        return _TABLE[config.command][2](config, out)


# --------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--out", help="output CSV path (default: stdout)")
    common.add_argument("--deterministic", action="store_const", const="true",
                        help="suppress timestamps for byte-identical output")

    parser = argparse.ArgumentParser(
        prog="neckforge",
        description="Numerics for glued-cylinder boundary-curvature problems.")
    parser.add_argument("--version", action="version",
                        version=f"neckforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # one flag per schema key, '--' + key with '_' -> '-'; values are coerced
    # by load_config, so every flag takes its raw string
    for name, (help_text, schema, _) in _TABLE.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        for key in schema:
            sp.add_argument("--" + key.replace("_", "-"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(ns).items()
                 if k not in ("command", "config") and v is not None}
    try:
        config = load_config(ns.config, command=ns.command, overrides=overrides)
        return run(config)
    except ConfigError as exc:
        print(f"neckforge: config error: {exc}", file=sys.stderr)
        return 2
    except Diverged as exc:
        print(f"neckforge: solver diverged: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"neckforge: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

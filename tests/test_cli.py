"""Front-end contract: config schema, overrides, CSV shape, exit codes."""

import dataclasses
import importlib
import os
import re
import shlex

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckforge.cli import (_SCHEMAS, COMMANDS, SET_CAP, RunConfig, _build_parser,
                           _known_keys, load_config, main)
from neckforge.errors import ConfigError, ParseError, ValidationError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _body(path):
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def test_symbol_grid_row_count(tmp_path):
    out = tmp_path / "sym.csv"
    code = main(["symbol", "--n", "3", "--m", "0..4", "--xi", "0:0.5:4",
                 "--deterministic", "--out", str(out)])
    assert code == 0
    lines = _body(out)
    assert lines[0] == "n,gamma,m,xi,theta"
    assert len(lines) == 1 + 45           # header + 5 modes x 9 frequencies
    first = lines[1].split(",")
    assert abs(float(first[-1]) - 2.0 / np.pi) <= 1e-15


def test_glue_sweep_decreasing(tmp_path):
    out = tmp_path / "glue.csv"
    code = main(["glue", "--eps", "1e-1,5e-2,2.5e-2",
                 "--deterministic", "--out", str(out)])
    assert code == 0
    rows = [ln.split(",") for ln in _body(out)[1:]]
    assert len(rows) == 3
    E = [float(r[-1]) for r in rows]
    assert E[0] > E[1] > E[2]


def test_glue_prints_one_row_per_eps(capsys):
    # every entry of eps is a row; with no flags the one row is eps = 0.1
    assert main(["glue", "--eps", "0.1,0.05", "--deterministic"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "epsilon,S,delta,E"
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.1, 0.05]
    assert main(["glue", "--deterministic"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.1]


def test_indicial_fractional_order_leads_with_translation_exponent(tmp_path):
    # with the order-2g shift kappa_g the first mode-1 row is the translation
    # exponent (1, 0), not an oscillatory root on the imaginary axis
    out = tmp_path / "ind.csv"
    code = main(["indicial", "--n", "3", "--gamma", "0.3", "--m", "1",
                 "--out", str(out)])
    assert code == 0
    lines = _body(out)
    assert lines[0] == "n,gamma,m,j,sigma,tau"
    sigma, tau = (float(v) for v in lines[1].split(",")[-2:])
    assert abs(sigma - 1.0) <= 1e-12
    assert tau == 0.0


def test_float_output_has_17_significant_digits(tmp_path):
    out = tmp_path / "sym.csv"
    main(["symbol", "--n", "3", "--m", "0", "--xi", "1", "--out", str(out)])
    value = _body(out)[1].split(",")[-1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_deterministic_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["symbol", "--n", "2", "--m", "0..1", "--xi", "0,1",
            "--deterministic"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    body_a = a.read_bytes().split(b"\n", 2)[2]
    body_b = b.read_bytes().split(b"\n", 2)[2]
    assert body_a == body_b
    # full files differ only in the out= path recorded in the header
    assert _body(a) == _body(b)


def test_deterministic_accept_byte_identical(tmp_path, capsys):
    # each criterion's wall time varies from run to run, so none is printed
    outs, printed = [], []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        assert main(["accept", "--deterministic", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        printed.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and printed[0] == printed[1]
    lines = outs[0].decode().splitlines()
    assert lines[0].startswith("# neckforge") and len(lines) == 11
    assert printed[0].splitlines() == lines[1:]
    assert all(re.match(rf"PASS {i:2d} [a-z-]+ +[^( ]", ln) for i, ln in enumerate(lines[1:], 1))
    # without the flag the time stays on the line
    assert main(["accept", "--criteria", "1"]) == 0
    assert re.match(r"PASS  1 constant-anchor +\( *\d+\.\ds\)  \|c\(3\)", capsys.readouterr().out)


def test_unknown_key_named(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[glue]\nfoo = 1\n")
    with pytest.raises(ValidationError, match="foo"):
        load_config(str(cfg), "glue")


def test_unknown_section_named(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[gluee]\nn = 3\n")
    with pytest.raises(ValidationError, match="gluee"):
        load_config(str(cfg), "glue")


def test_parse_error_carries_line_number(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# fine\n[glue]\nthis line has no equals\n")
    with pytest.raises(ParseError, match="line 3"):
        load_config(str(cfg), "glue")


_VALUES = st.one_of(
    st.sampled_from(["3", "0", "-1", "0.5", "1e400", "nan", "-inf", "0..4", "4..0", "0..1e3",
                     f"0..{10**20}", "1,2,,3", "0:0.5:4", "0:0:1", "4:1:0", "0:1e-320:1",
                     "1:2", "true", "maybe", "0.1,0.5", "collocation-ODE", "glue", ""]),
    st.text(alphabet="0123456789.,:-+eE nainf", max_size=12),
)
_HEADERS = st.builds("[{}]".format,
                     st.sampled_from(("global",) + COMMANDS + ("gluee", "", " ")))
_JUNK = st.one_of(
    st.sampled_from(["", "# comment", "[", "[glue", "= 3", "n 3", "   ", "n = 3 # note",
                     "seed = 1", "j-count = 2", "command = glue"]),
    st.text(max_size=20),
)


@st.composite
def _config_text(draw):
    """A command and config text for it: mostly `key = value` lines with
    the command's own keys, some section headers and junk lines."""
    command = draw(st.sampled_from(COMMANDS))
    key_line = st.builds("{} = {}".format, st.sampled_from(sorted(_known_keys(command))),
                         _VALUES)
    lines = draw(st.lists(st.one_of(key_line, key_line, key_line, _HEADERS, _JUNK),
                          max_size=8))
    return command, "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(case=_config_text())
def test_malformed_config_is_a_named_config_error(tmp_path_factory, case):
    # any text either loads or is a ConfigError (exit 2) that names the
    # offending key, line or section; no other exception escapes the parser
    command, text = case
    cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    cfg.write_text(text, encoding="utf-8")
    try:
        load_config(str(cfg), command)
    except ConfigError as exc:
        assert re.search(r"key '|line \d+|section '", str(exc)), str(exc)


def test_flags_override_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[global]\ndeterministic = true\n[glue]\neps = 0.1\nmu = -0.4\n")
    rc = load_config(str(cfg), "glue", overrides={"eps": "0.05,0.025"})
    assert rc.parameters["eps"] == [0.05, 0.025]
    assert rc.parameters["mu"] == -0.4
    assert rc.parameters["deterministic"] is True


def test_seed_key_is_unknown(tmp_path, capsys):
    # nothing in the package draws from a global RNG, so there is no seed knob
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[global]\nseed = 1\n")
    assert main(["symbol", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'seed'" in err
    assert "Traceback" not in err


def test_extension_past_resolution_cap_exits_3(capsys):
    assert main(["extension-validate", "--n", "3", "--m", "0", "--xi", "1000"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Chebyshev points" in err
    assert "Traceback" not in err


def test_empty_file_plus_flags(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    rc = load_config(str(cfg), "symbol", overrides={"n": "4"})
    assert rc.command == "symbol"
    assert rc.parameters["n"] == 4


def test_command_from_file_global_section(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[global]\ncommand = check-lemma\n[check-lemma]\nn = 3\n")
    rc = load_config(str(cfg))
    assert rc.command == "check-lemma"
    assert rc.parameters["n"] == [3]


def test_out_of_range_epsilon_rejected(tmp_path):
    # one entry outside (0, 0.25) rejects the whole set when the config loads
    cfg = tmp_path / "c.cfg"
    for text in ("0.5", "0.1,0.5", "0:0.1:0.3", "0"):
        cfg.write_text(f"[glue]\neps = {text}\n")
        with pytest.raises(ValidationError, match="key 'eps'"):
            load_config(str(cfg), "glue")


def test_exit_code_2_for_config_error(capsys):
    assert main(["glue", "--eps", "0.7"]) == 2
    err = capsys.readouterr().err
    assert "key 'eps'" in err and "Traceback" not in err
    # tolerances are open below at 0: a zero or negative one names its key
    for argv in (["solve", "--tol", "0"], ["solve", "--tol", "-1"],
                 ["check-lemma", "--tol-b", "0"]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"key '{argv[1][2:].replace('-', '_')}'" in err and "Traceback" not in err


def test_green_beta_on_an_indicial_exponent_exits_3(capsys):
    assert main(["green", "--m", "0", "--beta", "0"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "indicial exponent" in err


def test_glue_overflowing_error_norm_exits_3(capsys):
    assert main(["glue", "--mu=-2000"]) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err and "not finite" in captured.err
    assert "inf" not in captured.out and "Traceback" not in captured.err


@pytest.mark.parametrize("criteria, unknown", [("11", "[11]"), ("0..20", "[0, 11, 12, ")])
def test_accept_unknown_criteria_exit_2(capsys, criteria, unknown):
    assert main(["accept", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""                    # no criterion ran
    assert "criteria" in captured.err and unknown in captured.err


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["symbol", "--out", str(out), "--deterministic"]) == 2
    err = capsys.readouterr().err
    assert "key 'out'" in err and str(out) in err and "Traceback" not in err


def test_accept_checks_out_path_before_any_criterion(tmp_path, capsys, monkeypatch):
    from neckforge import acceptance

    def no_criterion(indices=None):
        raise AssertionError("a criterion ran before the out path was checked")
    monkeypatch.setattr(acceptance, "run_all", no_criterion)
    out = tmp_path / "missing" / "accept.txt"
    assert main(["accept", "--criteria", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "key 'out'" in captured.err and str(out) in captured.err


def _unreachable(*args, **kwargs):
    raise AssertionError("work ran before the out path was checked")


# each runner's first library call, as module and attribute path
FIRST_CALL = {
    "symbol": ("symbol", "theta"),
    "indicial": ("indicial", "root_catalog"),
    "check-lemma": ("indicial", "check_lemma"),
    "green": ("modegreen", "LineFunction.from_callable"),
    "extension-validate": ("extension", "cross_validate"),
    "glue": ("neck", "error_sweep"),
    "solve": ("solver", "PeriodicCylinderState.ones"),
}


@pytest.mark.parametrize("command", FIRST_CALL)
def test_out_path_checked_before_any_work(tmp_path, capsys, monkeypatch, command):
    module, name = FIRST_CALL[command]
    owner = importlib.import_module(f"neckforge.{module}")
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, attr, _unreachable)
    out = tmp_path / "missing" / "x.csv"
    assert main([command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "key 'out'" in captured.err and str(out) in captured.err


def test_check_lemma_prints_its_notes(tmp_path, capsys, monkeypatch):
    # an uncertified catalog fails clause d, and each note of the failing
    # report reaches stderr under its dimension
    from neckforge import indicial
    build = indicial.root_catalog
    monkeypatch.setattr(indicial, "root_catalog", lambda *args: dataclasses.replace(
        build(*args), certified=False))
    assert main(["check-lemma", "--n", "3", "--m-max", "2", "--deterministic",
                 "--out", str(tmp_path / "l.csv")]) == 4
    notes = capsys.readouterr().err.splitlines()
    assert notes == [f"# n=3: mode-{m} catalog count not certified" for m in range(3)]


def test_exit_code_4_for_failed_lemma_subset(tmp_path, capsys):
    # lemma suite passes for real dimensions, so exercise the plumbing with
    # the full accepted range and assert success instead
    code = main(["check-lemma", "--n", "3", "--deterministic",
                 "--out", str(tmp_path / "l.csv")])
    assert code == 0


def test_deterministic_header_independent_of_cpu_count(tmp_path, monkeypatch):
    out = tmp_path / "sym.csv"
    args = ["symbol", "--n", "3", "--xi", "1", "--deterministic", "--out", str(out)]
    files = []
    for cores in (1, 64):
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        assert main(args) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]


def test_int_range_and_float_grid_syntax():
    rc = load_config(None, "symbol",
                     overrides={"m": "0..3", "xi": "0:0.25:1"})
    assert rc.parameters["m"] == [0, 1, 2, 3]
    assert rc.parameters["xi"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    rc2 = load_config(None, "symbol", overrides={"m": "2,5", "xi": "3"})
    assert rc2.parameters["m"] == [2, 5]
    assert rc2.parameters["xi"] == [3.0]


def test_overflowing_grid_exits_2(capsys):
    # (b - a) / h is inf: the grid is rejected before any list is built
    assert main(["symbol", "--xi=-1e308:1:1e308"]) == 2
    err = capsys.readouterr().err
    assert "key 'xi'" in err and "Traceback" not in err


def test_sets_past_the_cap_rejected():
    # SET_CAP entries pass; one more, or a count that would exhaust memory, raises
    for key, text in (("m", f"1..{SET_CAP}"), ("xi", f"0:1:{SET_CAP - 1}")):
        assert len(load_config(None, "symbol", overrides={key: text}).parameters[key]) == SET_CAP
    for key, text in (("m", f"0..{SET_CAP}"), ("xi", f"0:1:{SET_CAP}"), ("xi", "0:1e-300:1"),
                      ("m", f"0..{10**12}")):
        with pytest.raises(ValidationError, match=f"key '{key}'.*more than {SET_CAP}"):
            load_config(None, "symbol", overrides={key: text})


def _flag_overrides(parser, argv):
    """The flags set on the command line, as `main` hands them to load_config."""
    ns = vars(parser.parse_args(argv))
    return {k: v for k, v in ns.items() if k not in ("command", "config") and v is not None}


# one raw value per schema key that its coercer accepts and that differs
# from the default
FLAG_SAMPLES = {
    "n": "4", "gamma": "0.3", "m": "1..2", "xi": "0,1.5", "j_count": "2",
    "m_max": "4", "j_max": "2", "tol_b": "1e-6", "delta": "0.75",
    "half_window": "20", "points": "512", "beta": "0.1", "phi_grid": "256",
    "scheme": "finite-difference", "eps": "0.1,0.05", "mu": "-0.25",
    "n_s": "512", "pad": "3", "modes": "1", "amplitude": "0.02", "method": "fixed-point", "tol": "1e-9",
    "max_iter": "10", "criteria": "1,2",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_schema_key_has_a_flag(command):
    parser = _build_parser()
    for key, (coerce, default) in _SCHEMAS[command].items():
        raw = FLAG_SAMPLES[key]
        overrides = _flag_overrides(parser, [command, "--" + key.replace("_", "-"), raw])
        assert set(overrides) == {key}
        got = load_config(None, command, overrides=overrides).parameters[key]
        assert got == coerce(raw, key) and got != default


def test_unknown_command_rejected():
    with pytest.raises(ValidationError):
        RunConfig(command="frobnicate")


def test_solve_emits_history(tmp_path):
    out = tmp_path / "hist.csv"
    code = main(["solve", "--modes", "1", "--amplitude", "0.01",
                 "--deterministic", "--out", str(out)])
    assert code == 0
    rows = _body(out)
    assert rows[0] == "step,residual"
    residuals = [float(r.split(",")[1]) for r in rows[1:]]
    assert residuals[-1] <= 1e-10


def test_solve_notes_print_as_one_line(tmp_path, capsys):
    code = main(["solve", "--max-iter", "2", "--deterministic",
                 "--out", str(tmp_path / "hist.csv")])
    assert code == 3
    notes = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("# ") and not ln.startswith("# method=")]
    assert notes == ["# max_iter reached"]


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, case):
    path = tmp_path / "c.cfg"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"[symbol]\nn = 3 # \xff\xfe\n")
    assert main(["symbol", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["symbol", "--xi", "nan"], ["green", "--delta", "inf"],
                                  ["solve", "--tol", "nan"], ["glue", "--mu=-inf"]],
                         ids=["xi-nan", "delta-inf", "tol-nan", "mu-minus-inf"])
def test_non_finite_number_exits_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"key '{argv[1].lstrip('-').split('=')[0]}'" in err
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["symbol", "--n", "2", "--xi", "1e300"],
                                  ["symbol", "--m", str(10**20)]], ids=["xi", "m"])
def test_symbol_outside_its_domain_exits_2(capsys, argv):
    # theta printed 1 here: the log-Gamma difference had cancelled every digit
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and argv[-2].lstrip("-") in err
    assert "Traceback" not in err


def test_solve_has_no_weight_exponent(tmp_path, capsys):
    # the periodic model has no neck funnel, so its residual norm takes no mu
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[solve]\nmu = -0.5\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "unknown key 'mu'" in capsys.readouterr().err


def test_green_mode0_reports_only_the_right_tail(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["green", "--m", "0..1", "--points", "2048", "--deterministic",
                 "--out", str(out)]) == 0
    mode0, mode1 = capsys.readouterr().err.splitlines()
    assert mode0.startswith("# mode 0: fitted right-tail rate -0.49")
    assert mode0.endswith("(declared -0.5); the left tail is the oscillatory sin(tau0 s)")
    assert mode1.startswith("# mode 1: fitted tail rates 0.49")
    assert mode1.endswith("(declared +/-0.5)")


def _readme_quick_start():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Quick start", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("neckforge ")]


def test_readme_quick_start_commands_run(tmp_path):
    commands = [argv for argv in _readme_quick_start() if argv[0] != "accept"]
    assert len(commands) == 6
    for argv in commands:
        code = main(argv + ["--deterministic", "--out", str(tmp_path / "out.csv")])
        assert code == 0, argv


def test_readme_quick_start_commands_parse():
    # every Quick start line, accept included, names only flags the parser
    # knows and values the schema accepts; nothing is run
    parser = _build_parser()
    commands = _readme_quick_start()
    assert len(commands) == 7
    for argv in commands:
        load_config(None, argv[0], overrides=_flag_overrides(parser, argv))

"""Typed errors: the hierarchy the CLI's exit codes rest on, and the typed
refusals of library entry points that no other test reaches."""

import os

import numpy as np
import pytest

from neckforge import errors
from neckforge.errors import ResolutionTooCoarse, ResonanceError, ValidationError
from neckforge.extension import HalfCylinderProblem, dtn_cylinder
from neckforge.modegreen import DecayProfile, LineFunction, apply_L0, green_solve
from neckforge.neck import NeckConfig
from neckforge.solver import (PeriodicCylinderState, newton_solve, quadratic_remainder,
                              uniform_invertibility_study)
from neckforge.symbol import ModeSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "neckforge")


def test_every_error_maps_to_one_exit_code():
    # cli.main turns a ConfigError into exit 2 and a NumericalError into
    # exit 3 and catches nothing wider, so every other class has to be
    # exactly one of the two, and the package never raises the bare base
    classes = [c for c in vars(errors).values() if isinstance(c, type)
               and issubclass(c, Exception) and not issubclass(c, Warning)]
    assert len(classes) > 3
    for cls in classes:
        if cls in (errors.NeckforgeError, errors.ConfigError, errors.NumericalError):
            continue
        assert issubclass(cls, errors.ConfigError) != issubclass(cls, errors.NumericalError), cls
    for name in os.listdir(SRC):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                assert "raise NeckforgeError" not in fh.read(), name


def _line(N=64, mode=0, rate=0.0, nan=False):
    values = np.exp(-np.linspace(-3.0, 3.0, N) ** 2)
    if nan:
        values[N // 2] = np.nan
    return LineFunction(-3.0, 6.0 / N, N, values, mode, rate)


def _state(N_s=64):
    return PeriodicCylinderState.ones(3, m_max=2, N_s=N_s)


def _rhs(m=0):
    return LineFunction.from_callable(lambda s: np.exp(-s * s), s0=-30.0, s1=30.0,
                                      N=1024, mode=m)


@pytest.mark.parametrize("error, match, call", [
    (ValidationError, "N >= 16", lambda: _line(N=8)),
    (ValidationError, "non-finite samples", lambda: _line(nan=True)),
    (ValidationError, "decay rate must be finite", lambda: DecayProfile(np.inf)),
    (ValidationError, "mode mismatch", lambda: apply_L0(ModeSpec(n=3, m=1), _line())),
    (ValidationError, "mode mismatch",
     lambda: green_solve(ModeSpec(n=3, m=1), _rhs(), DecayProfile(0.5))),
    (ValidationError, "plain samples",
     lambda: green_solve(ModeSpec(n=3), _line(rate=0.5), DecayProfile(0.5))),
    (ValidationError, "must be positive",
     lambda: green_solve(ModeSpec(n=3), _rhs(), DecayProfile(-1.0))),
    (ValidationError, "half-power",
     lambda: HalfCylinderProblem(ModeSpec(n=3, gamma=0.3))),
    (ValidationError, "phi_grid", lambda: HalfCylinderProblem(ModeSpec(n=3), phi_grid=32)),
    (ValidationError, "xi must be finite",
     lambda: HalfCylinderProblem(ModeSpec(n=3), xi=np.inf)),
    (ValidationError, "even sample count",
     lambda: PeriodicCylinderState(3, 10.0, np.ones((3, 65)))),
    (ValidationError, "shape", lambda: _state().with_table(np.zeros((2, 64)))),
    (ValidationError, "unknown method", lambda: newton_solve(_state(), method="bogus")),
    (ValidationError, "nonzero direction",
     lambda: quadratic_remainder(_state(), np.zeros((3, 64)))),
    (ValidationError, "at least one epsilon",
     lambda: uniform_invertibility_study(3, [], mu=-0.5)),
    (ValidationError, "256 neck samples", lambda: NeckConfig(0.1, n_s=128)),
    (ValidationError, "pad", lambda: NeckConfig(0.1, pad=1.0)),
    (ResolutionTooCoarse, "xi = 200",
     lambda: dtn_cylinder(HalfCylinderProblem(ModeSpec(n=3), xi=200.0, phi_grid=64,
                                              scheme="finite-difference"))),
    # the ladder grows by 6 roots a step to 30 and still ends below the rate
    (ResonanceError, "beyond the tabulated indicial ladder",
     lambda: green_solve(ModeSpec(n=3), _rhs(), DecayProfile(70.0))),
], ids=["line-N", "line-nan", "decay-inf", "apply-mode", "green-mode", "green-envelope",
        "green-delta", "extension-gamma", "extension-grid", "extension-xi", "state-odd",
        "table-shape", "newton-method", "remainder-zero", "study-empty", "neck-n_s",
        "neck-pad", "fd-coarse", "green-ladder"])
def test_bad_input_is_refused_by_type(error, match, call):
    with pytest.raises(error, match=match):
        call()

"""Exception hierarchy shared by all neckforge modules.

Two broad families matter for the CLI exit-code contract:

* ``ConfigError`` -- bad user input (config files, flag values).  Exit code 2.
* ``NumericalError`` -- a computation could not be carried out or certified
  (non-convergence, resonance, divergence).  Exit code 3.
"""

from __future__ import annotations


class NeckforgeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(NeckforgeError):
    """User-supplied configuration is invalid."""


class ParseError(ConfigError):
    """A config file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ConfigError):
    """A parsed value is out of range or a key is unknown."""


class NumericalError(NeckforgeError):
    """A numerical routine failed to produce a certified result."""


class PoleError(NumericalError):
    """Gamma evaluated within machine tolerance of a non-positive integer."""


class DegenerateSpec(NumericalError):
    """Symbol denominator degenerates for this (n, gamma, m) combination."""


class NonConvergence(NumericalError):
    """An iteration exhausted its budget without meeting its tolerance."""


class ResonanceError(NumericalError):
    """An operator is (numerically) singular on the requested data."""


class TailMismatch(NumericalError):
    """Sampled data decays slower than its declared tail profile."""


class SingularBVP(NumericalError):
    """Boundary-value solve failed (singular system or integrator breakdown)."""


class ResolutionTooCoarse(NumericalError):
    """Grid cannot resolve the requested frequency or potential scale."""


class NonPositiveConformalFactor(NumericalError):
    """A conformal factor lost positivity on the collocation grid."""


class Diverged(NumericalError):
    """Residuals grew for several consecutive solver steps.

    Carries the partial ``report`` so callers can inspect the history.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class AliasWarning(UserWarning):
    """High-frequency content near the Nyquist edge carries significant energy."""

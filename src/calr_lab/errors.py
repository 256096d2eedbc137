"""Exception and warning types shared across the package."""

from __future__ import annotations


class CalrError(Exception):
    """Base class for all errors raised by this package."""


class DegeneratePoint(CalrError):
    """Raised when a Cartesian point lies on the focal segment, where the
    elliptic angle is not uniquely determined."""


class OverflowGuard(CalrError):
    """Raised when a requested mode index or truncation order would push
    intermediate exponentials outside double-precision range, or when an
    answer (a source coefficient, density, energy or potential) is not a
    finite double."""


class SingularPoint(CalrError):
    """Raised when a potential is evaluated at (or numerically on top of)
    a source singularity."""


class TooFewCoefficients(CalrError):
    """Raised when a coefficient fit has fewer usable entries than the
    minimum required for a stable estimate."""


class CurveOverlap(CalrError):
    """Raised when two discretized curves touch or intersect."""


class EigensolveFailure(CalrError):
    """Raised when the eigensolver does not converge, or when sampled
    Nystrom kernel rows break the Fourier mode form that the mode-block
    eigensolve relies on."""


class InputError(CalrError, ValueError):
    """Raised when a library entry point refuses an argument before any
    work: a loss delta, margin, sweep probe, validate size or source
    location it cannot use.  The message starts with the argument's name."""


class SourceError(InputError):
    """Raised, before any work, for a source location the package cannot
    use: past 2 pi (R cosh rho)^2 of double range, or (SourceInsideShell)
    not strictly outside the outer interface, as a point or a series."""


class SourceInsideShell(SourceError):
    """Raised, before any work, when a source location, or the series
    radius of expansion data, does not lie strictly outside the outer
    interface."""


class ConfigError(CalrError):
    """Raised for malformed or inconsistent run configuration files."""


class TruncationWarning(UserWarning):
    """Emitted when a truncated mode sum has an estimated tail large
    enough to matter for the requested computation."""

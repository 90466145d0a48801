"""Exception types shared across the package."""


class PfconvError(Exception):
    """Base class for all pfconv errors.

    ``row`` is the replicate row of a batched filter run
    (`engine.run_filters`) that raised the error, or None when the error
    is not tied to one row.
    """

    row: int | None = None


class DomainError(PfconvError):
    """An argument lies outside the mathematical domain of an operation."""


class WeightNotFinite(PfconvError):
    """An importance weight evaluated to +inf or NaN.

    Signals a proposal density of zero at a proposed point (while the
    target numerator is positive) or invalid density callables.
    """


class DegenerateWeights(PfconvError):
    """Every particle received zero weight; the run must abort."""


class NotNormalized(PfconvError):
    """Weights handed to a resampler do not sum to 1 within tolerance."""


class CountMismatch(PfconvError):
    """A resampling count vector does not match the particle set."""


class ZeroMass(PfconvError):
    """A grid density lost all probability mass (oracle breakdown)."""


class InsufficientPoints(PfconvError):
    """A rate fit was requested with fewer than three points."""


class NonPositiveValue(PfconvError):
    """A log-log fit received a value that is not strictly positive."""


class StudyError(PfconvError):
    """A convergence-study cell failed; carries (N, replicate) context."""


def require_positive(**values: float) -> None:
    """Raise DomainError naming the first of ``values`` that is not a
    finite number > 0 (inf and NaN fail)."""
    for name, value in values.items():
        if not 0 < value < float("inf"):
            raise DomainError(f"{name} must be finite and positive, got {value!r}")


def at_row(err: PfconvError, row: int) -> PfconvError:
    """``err`` with the replicate row that raised it attached."""
    err.row = row
    return err

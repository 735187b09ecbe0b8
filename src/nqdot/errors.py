"""Exception types shared across the package."""


class NqdotError(Exception):
    """Base class for all package errors."""


class UnknownNuclide(NqdotError):
    """No row of the nuclide table matches the requested key."""


class AmbiguousKey(NqdotError):
    """More than one nuclide-table row matches the requested key."""


class NoBoundState(NqdotError):
    """The composition cannot host bound states (sum of n*Re[b] >= 0)."""

    def __init__(self, sum_re_fm: float):
        self.sum_re_fm = sum_re_fm
        super().__init__(f"no bound state: sum of n*Re[b] = {sum_re_fm:+.6g} fm >= 0")


class ZeroAbsorption(NqdotError):
    """All absorption channels vanish; the lifetime is infinite."""


class MissingDensity(NqdotError):
    """The composition carries no mass density."""


class TruncationTooSmall(NqdotError):
    """Lattice-sum cutoff leaves a tail above the accuracy budget."""


class EmptyGrid(NqdotError):
    """The shape contains no lattice point."""


class UnboundedImageSet(NqdotError):
    """Periodic image enumeration cannot terminate (kappa <= 0)."""


class NonConvergedEigensolve(NqdotError):
    """A level's root did not converge, left its bracket or missed lambda = 1."""


class EvalTooCloseToSource(NqdotError):
    """A kernel target lies within a0/10 of a grid source (on periodic axes,
    of its nearest image) and is not marked as that source's self pair."""


class GeometryMismatch(NqdotError):
    """Operands belong to different grids/geometries."""


class ZeroDrive(NqdotError):
    """Drive frequency is zero."""


class StepTooCoarse(NqdotError):
    """Integration step too large for the requested dynamics."""


class SchemaViolation(NqdotError):
    """Input dataset rows violate the record schema.

    Carries ``rows``: a list of (line_number, message) pairs.
    """

    def __init__(self, rows):
        self.rows = list(rows)
        lines = "; ".join(f"line {n}: {m}" for n, m in self.rows[:8])
        extra = "" if len(self.rows) <= 8 else f" (+{len(self.rows) - 8} more)"
        super().__init__(f"schema violations: {lines}{extra}")


class CutoffTooSmall(NqdotError):
    """Plane-wave shell cutoff not converged."""

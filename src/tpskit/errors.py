"""Exception types shared across the toolkit."""


class TpskitError(Exception):
    """Base class for all toolkit errors."""


class ContractViolationError(TpskitError):
    """An input does not satisfy a documented precondition (e.g. not Hermitian)."""


class DimensionMismatchError(TpskitError):
    """Operands have incompatible shapes or declared dimensions."""


class IndexRangeError(TpskitError, IndexError):
    """A 1-based index (eigenspace, factor, cut or mode) lies outside its range."""


class DegenerateInputError(TpskitError):
    """An input is numerically zero where a nonzero operand is required."""


class DegeneracyError(TpskitError):
    """Random-probe eigenvalue clustering failed after the retry budget."""


class ToleranceError(TpskitError):
    """An internal consistency check exceeded the configured residual bound."""


class ParitySetError(TpskitError):
    """A set of would-be parity operators violates one of its invariants."""


class TruncationBoundaryError(TpskitError):
    """A Fock-space computation would silently depend on the excitation cutoff."""


class PathSingularityError(TpskitError):
    """Frame overlap lost rank along a loop (eigenspace crossing)."""


class BranchCutError(TpskitError):
    """A holonomy eigenvalue sits on the logarithm branch cut after retries."""


class SpecFileError(ValueError):
    """Malformed operator specification file."""

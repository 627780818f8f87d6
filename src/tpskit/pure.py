"""What tpskit decides without a matrix, in pure Python, so it loads no numpy: the tolerance,
the size rule, Pauli strings read and judged from their (x|z) bits, and the factorizations of
a dimension.  ``tps partitions`` and ``tps parity`` over Pauli tokens answer from it alone."""

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import ContractViolationError, DimensionMismatchError, ParitySetError, SpecFileError

# Largest complex array built from a size given from outside (``refuse_past_budget``):
# 64 MiB, the (P, 4, 2) holonomy frames of a loop of 2^19 points.
BYTES_BUDGET = 64 * 2**20
# Entropy kinds (von Neumann in bits, 1 - Tr rho^2), judged by --measure and EntanglementMeasure alone
ENTROPY_KINDS = ("vn", "linear")
# Eigenvalue clustering gap of cluster_indices, relative to the larger of the
# spectral range, the spectral radius and 1.
DEGENERACY_GAP = 1e-7
# largest n multiplicative_partitions takes: 907200 <= 10^6 has 22711
# factorizations, 73513440 already 269052, and trial division of a prime
# near 10^18 would take ~10^9 steps
_MAX_PARTITION_N = 10**6
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy knobs.

    rank_rel : singular-value cutoff for rank decisions, relative to the
        larger of the largest singular value and 1.
    resid_abs : absolute bound on residuals of verified identities.
    """

    rank_rel: float = 1e-10
    resid_abs: float = 1e-8

    def __post_init__(self):
        if not all(0 < t < math.inf for t in (self.rank_rel, self.resid_abs)):
            raise ValueError("tolerances must be finite and strictly positive")
        if self.rank_rel >= 1:
            raise ValueError("rank_rel must be < 1")


DEFAULT_TOL = Tolerance()


def mib_text(nbytes: int) -> str:
    """A byte count in MiB as ``f"{x:.3g}"`` prints it, for any int: past floats, from its log10."""
    try:
        return f"{nbytes / 2**20:.3g}"
    except OverflowError:
        exponent, fraction = divmod(math.log10(nbytes) - 20 * math.log10(2), 1)
        mantissa, _, carry = f"{10 ** fraction:.2e}".partition("e")  # 9.996 -> 1.00e+01
        return f"{float(mantissa):g}e+{int(exponent) + int(carry)}"


def budget_text() -> str:
    """The budget as a refusal words it, read at call time."""
    return f"the {BYTES_BUDGET >> 20} MiB budget"


def refuse_past_budget(shape, what: str) -> None:
    """Refuse a complex array of ``shape`` past BYTES_BUDGET before it is built: its bytes,
    16 an entry, are counted by math.prod on ints, so astronomic shapes are refused too."""
    if (nbytes := 16 * math.prod(shape)) > BYTES_BUDGET:
        raise ContractViolationError(f"{what} needs {mib_text(nbytes)} MiB, over {budget_text()}")


def count_text(n: int) -> str:
    """A count in decimal, or as ``f"{n:.3g}"`` would print it past the digits ``str`` prints."""
    try:
        return str(n)
    except ValueError:
        return mib_text(n * 2**20)  # n MiB, in MiB


def parse_pauli_token(token: str, dim=None) -> str:
    """A bare Pauli string like "XX" or "ZZI", checked for its letters and against dim, if given."""
    if not isinstance(token, str) or not token or any(ch not in "IXYZ" for ch in token):
        raise SpecFileError(f"not a Pauli string over IXYZ: {token!r}")
    if dim is not None and 2 ** len(token) != dim:
        raise SpecFileError(
            f"Pauli string {token!r} has dimension {count_text(2 ** len(token))}, spec declares {dim}")
    return token


def pauli_bits(s: str) -> tuple[int, int, int]:
    """(n, x, z) of an n-letter Pauli string, x marking its X and Y letters and z its Z
    and Y letters, leftmost most significant; refused past the budget, as its matrix is."""
    if not s or any(c not in "IXYZ" for c in s):
        raise ContractViolationError(f"invalid Pauli string {s!r}")
    refuse_past_budget((2 ** len(s),) * 2, f"the matrix of a {len(s)}-qubit Pauli string")
    return len(s), int(s.translate(_X_BITS), 2), int(s.translate(_Z_BITS), 2)


def pauli_parity_shape(strings) -> tuple[int, int]:
    """(n, k) of k Pauli strings on n qubits as pauli_bits reads them, judged exactly:
    each refusal is validate_parity_set's and ParitySet.tps's on their matrices.  An
    all-I string is not traceless, two strings commute when popcount(x_a & z_b) +
    popcount(z_a & x_b) is even, and the F2 rank r of the (x|z) rows gives 2^r joint
    eigenspaces of dimension 2^(n-r), so the set is independent when r = k."""
    n = strings[0][0]
    if any(m != n for m, _, _ in strings):
        raise DimensionMismatchError("parity operators differ in dimension")
    problems = [f"op {j} is not traceless" for j, (_, x, z) in enumerate(strings) if not x | z]
    problems += [f"ops {a} and {b} do not commute"
                 for (a, (_, xa, za)), (b, (_, xb, zb)) in combinations(enumerate(strings), 2)
                 if ((xa & zb).bit_count() + (za & xb).bit_count()) % 2]
    if problems:
        raise ParitySetError("; ".join(problems))
    rows, r, k = [x << n | z for _, x, z in strings], 0, len(strings)
    while any(rows):  # eliminate the highest leading bit left: one pivot per rank
        pivot = max(rows)
        rows, r = [min(v, v ^ pivot) for v in rows], r + 1
    if r != k:
        raise _dependent([2 ** (n - r)] * 2 ** r, k)
    _logical_dim(n, k)
    return n, k


def _logical_dim(n: int, k: int) -> int:
    """2^(n-k), the logical factor k independent parities on n qubits leave;
    k >= n leave none and are refused."""
    if k >= n:
        raise ParitySetError(f"{k} parities on {n} qubits leave no logical factor to decompose")
    return 2 ** (n - k)


def _dependent(dims: list, k: int) -> ParitySetError:
    return ParitySetError(f"joint eigenspace dimensions {dims} are not {2 ** k} equal ones: "
                          "the set is dependent (some subset product is not traceless)")


def multiplicative_partitions(n: int) -> list[tuple[int, ...]]:
    """All unordered factorizations of n into factors >= 2.

    Each factorization is an ascending tuple; the singleton (n,) is
    included; the full list is sorted lexicographically.  Recursive
    divisor descent with a minimum-factor argument avoids duplicates.
    n past _MAX_PARTITION_N is refused before the first division.
    """
    if n < 2:
        raise ContractViolationError("n must be >= 2")
    if n > _MAX_PARTITION_N:
        raise ContractViolationError(f"n = {n} exceeds the bound {_MAX_PARTITION_N}")
    out = []

    def descend(remaining, min_factor, prefix):
        f = min_factor
        while f * f <= remaining:
            if remaining % f == 0:
                descend(remaining // f, f, prefix + (f,))
            f += 1
        out.append(prefix + (remaining,))

    descend(n, 2, ())
    return sorted(out)

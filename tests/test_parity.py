"""Tests for parity operator validation and sector splitting."""

import json
import subprocess
import sys
import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpskit.algebra import close_algebra, structure_decompose
from tpskit.cli import main
from tpskit.errors import ContractViolationError, DimensionMismatchError, ParitySetError, TpskitError
from tpskit.numerics import Tolerance, fix_column_phases, hermitian_eig, unitarity_defect
from tpskit.opfile import SpecFileError, parse_pauli_token
from tpskit.parity import (
    ParitySet,
    _split_sectors,
    pauli_bits,
    pauli_string_matrix,
    syndrome_decompose,
    validate_parity_set,
)
from tpskit.tps import EntanglementMeasure, entanglement

from helpers import haar_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)


PAULI_1Q = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_pauli(s):
    """Reference Pauli-string matrix: the Kronecker product of its letters."""
    out = np.array([[1.0 + 0j]])
    for c in s:
        out = np.kron(out, PAULI_1Q[c])
    return out


def reference_validate_parity_set(ops, tol=Tolerance()):
    """Reference validator: every X X and every pairwise commutator formed
    densely before the sector split."""
    mats = [np.asarray(X, dtype=complex) for X in ops]
    if not mats:
        raise ParitySetError("a parity set needs at least one operator")
    d = mats[0].shape[0]
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ParitySetError(f"dimension {d} is not a power of two")
    for X in mats:
        if X.shape != (d, d):
            raise DimensionMismatchError("parity operators differ in dimension")
    eye = np.eye(d)
    problems = []
    for i, X in enumerate(mats):
        if np.max(np.abs(X - X.conj().T)) > tol.resid_abs:
            problems.append(f"op {i} is not Hermitian")
        if abs(np.trace(X)) > tol.resid_abs * d:
            problems.append(f"op {i} is not traceless")
        if np.max(np.abs(X @ X - eye)) > tol.resid_abs:
            problems.append(f"op {i} is not an involution")
    for i, j in combinations(range(len(mats)), 2):
        if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) > tol.resid_abs:
            problems.append(f"ops {i} and {j} do not commute")
    if problems:
        raise ParitySetError("; ".join(problems))
    sectors = [((), np.eye(d, dtype=complex))]
    for X in mats:
        nxt = []
        for label, V in sectors:
            w, W = hermitian_eig(V.conj().T @ X @ V, tol)
            if np.any(np.abs(np.abs(w) - 1.0) > tol.resid_abs):
                raise ParitySetError("restricted parity has eigenvalues away from +-1")
            for sign in (+1, -1):
                cols = W[:, w > 0] if sign > 0 else W[:, w < 0]
                if cols.shape[1]:
                    nxt.append((label + (sign,), fix_column_phases(V @ cols)))
        sectors = nxt
    dims_found = sorted(V.shape[1] for _, V in sectors)
    if len(sectors) != 2 ** len(mats) or dims_found[0] != dims_found[-1]:
        raise ParitySetError(
            f"joint eigenspace dimensions {dims_found} are not {2 ** len(mats)} "
            "equal ones: the set is dependent (some subset product is not traceless)")
    return ParitySet(n=n, sectors=dict(sectors), tol=tol)


def gf2_independent_rows(rng, n, k):
    """k random GF(2)-independent bit rows of length n (k <= n)."""
    while True:
        rows = rng.integers(0, 2, (k, n))
        A, rank = rows.copy(), 0
        for c in range(n):
            hits = np.nonzero(A[rank:, c])[0]
            if hits.size:
                A[[rank, rank + hits[0]]] = A[[rank + hits[0], rank]]
                A[(A[:, c] == 1) & (np.arange(k) != rank)] ^= A[rank]
                rank += 1
                if rank == k:
                    return rows


class TestPauliStrings:
    def test_single_letters(self):
        assert np.array_equal(pauli_string_matrix("X"), SX)
        assert np.array_equal(pauli_string_matrix("Y"), SY)
        assert np.array_equal(pauli_string_matrix("Z"), SZ)
        assert np.array_equal(pauli_string_matrix("I"), I2)

    def test_xx_by_hand(self):
        # antidiagonal of ones
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1
        assert np.array_equal(pauli_string_matrix("XX"), expected)

    def test_leftmost_is_most_significant(self):
        assert np.array_equal(pauli_string_matrix("XI"), np.kron(SX, I2))
        assert np.array_equal(pauli_string_matrix("IX"), np.kron(I2, SX))
        assert not np.array_equal(pauli_string_matrix("XI"), pauli_string_matrix("IX"))

    def test_zzi_spot_entries(self):
        M = pauli_string_matrix("ZZI")
        diag = np.real(np.diag(M))
        # entry for |abc> is (-1)^a (-1)^b
        for idx in range(8):
            a, b = (idx >> 2) & 1, (idx >> 1) & 1
            assert diag[idx] == (-1) ** a * (-1) ** b

    def test_every_string_up_to_four_qubits_matches_kron(self):
        for n in range(1, 5):
            for letters in product("IXYZ", repeat=n):
                s = "".join(letters)
                assert np.array_equal(pauli_string_matrix(s), kron_pauli(s)), s

    def test_random_strings_up_to_eight_qubits_match_kron(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            s = "".join(rng.choice(list("IXYZ"), int(rng.integers(5, 9))))
            assert np.array_equal(pauli_string_matrix(s), kron_pauli(s)), s

    def test_invalid_strings(self):
        with pytest.raises(ContractViolationError):
            pauli_string_matrix("XQ")
        with pytest.raises(ContractViolationError):
            pauli_string_matrix("")


class TestValidateParitySet:
    def test_single_x_slot(self):
        ps = validate_parity_set([np.kron(SX, I2)])
        assert ps.n == 2 and ps.k == 1

    def test_commuting_pauli_pair(self):
        ps = validate_parity_set([pauli_string_matrix("XX"), pauli_string_matrix("ZZ")])
        assert ps.k == 2

    def test_a_dimension_off_the_powers_of_two_is_rejected(self):
        with pytest.raises(ParitySetError, match="^dimension 3 is not a power of two$"):
            validate_parity_set([np.diag([1.0, -1.0, 0.0])])

    def test_anticommuting_pair_rejected(self):
        with pytest.raises(ParitySetError, match="0 and 1 do not commute"):
            validate_parity_set([np.kron(SX, I2), np.kron(SZ, I2)])

    def test_identity_rejected_traceless(self):
        with pytest.raises(ParitySetError, match="not traceless"):
            validate_parity_set([np.eye(4, dtype=complex)])

    def test_noninvolution_rejected(self):
        with pytest.raises(ParitySetError, match="not an involution"):
            validate_parity_set([0.5 * np.kron(SX, I2)])

    def test_nonhermitian_rejected(self):
        M = np.kron(SX, I2).astype(complex)
        M[0, 1] = 1j
        with pytest.raises(ParitySetError, match="not Hermitian"):
            validate_parity_set([M])

    def test_multiple_violations_all_reported(self):
        with pytest.raises(ParitySetError) as err:
            validate_parity_set([np.eye(4, dtype=complex), 0.5 * np.kron(SX, I2)])
        msg = str(err.value)
        assert "op 0" in msg and "op 1" in msg

    def test_dependent_triple_rejected(self):
        # third operator is the product of the first two
        ops = [pauli_string_matrix(s) for s in ("ZZI", "IZZ", "ZIZ")]
        with pytest.raises(ParitySetError, match="dependent"):
            validate_parity_set(ops)

    def test_empty_rejected(self):
        with pytest.raises(ParitySetError):
            validate_parity_set([])

    def test_sign_pair_rejected_at_validation(self):
        # ZZI and -ZZI: no subset product is the identity, but their product
        # -I is not traceless, so only two of the four labels occur
        with pytest.raises(ParitySetError, match="dependent"):
            validate_parity_set([pauli_string_matrix("ZZI"), -pauli_string_matrix("ZZI")])

    def test_unequal_sector_pair_rejected_at_validation(self):
        # commuting traceless involutions whose product has trace 4: the
        # sectors have dimensions 1, 1, 3, 3
        D1 = np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex)
        D2 = np.diag([1, 1, 1, -1, -1, -1, -1, 1]).astype(complex)
        with pytest.raises(ParitySetError, match="dependent"):
            validate_parity_set([D1, D2])

    def test_sectors_stored_in_canonical_order(self):
        ps = validate_parity_set([pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")])
        assert list(ps.sectors) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        assert all(V.shape == (8, 2) for V in ps.sectors.values())


def _subset_products_traceless(mats) -> bool:
    """Brute-force oracle: every nonempty subset product has zero trace."""
    d = mats[0].shape[0]
    for r in range(1, len(mats) + 1):
        for subset in combinations(mats, r):
            P = np.eye(d, dtype=complex)
            for X in subset:
                P = P @ X
            if abs(np.trace(P)) > d / 2:
                return False
    return True


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_validation_accepts_exactly_traceless_subset_products(n, k, conjugate, seed):
    # signed Z strings relabelled qubit by qubit with one letter commute
    # pairwise; subset products are signed Paulis of trace 0 or +-2^n
    rng = np.random.default_rng(seed)
    letters = rng.choice(list("XYZ"), n)
    U = haar_unitary(2 ** n, rng) if conjugate else np.eye(2 ** n)
    mats = []
    for _ in range(k):
        word = "".join(c if bit else "I" for c, bit in zip(letters, rng.integers(0, 2, n)))
        sign = rng.choice([-1.0, 1.0])
        mats.append(sign * U @ pauli_string_matrix(word) @ U.conj().T)
    try:
        ps = validate_parity_set(mats)
    except ParitySetError:
        assert not _subset_products_traceless(mats)
    else:
        assert _subset_products_traceless(mats)
        assert len(ps.sectors) == 2 ** k


BROKEN = ["none", "anticommuting", "product", "sign_pair", "scaled", "nonhermitian",
          "nonhermitian_tight", "identity"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.booleans(), st.sampled_from(BROKEN),
       st.integers(0, 2**32 - 1))
def test_verdict_and_sectors_match_the_pairwise_validator(n, k, conjugate, broken, seed):
    # GF(2)-independent signed Pauli strings, one letter per qubit, commute
    # pairwise; each broken variant adds or alters one op at a random place
    rng = np.random.default_rng(seed)
    k = min(k, n)
    letters = rng.choice(list("XYZ"), n)
    words = ["".join(c if bit else "I" for c, bit in zip(letters, row))
             for row in gf2_independent_rows(rng, n, k)]
    mats = [rng.choice([-1.0, 1.0]) * pauli_string_matrix(w) for w in words]
    tol = Tolerance()
    where = int(rng.integers(0, k + 1))
    pick = int(rng.integers(0, k))
    if broken == "anticommuting":
        q = next(q for q, c in enumerate(words[pick]) if c != "I")
        other = {"X": "Z", "Y": "X", "Z": "X"}[words[pick][q]]
        mats.insert(where, pauli_string_matrix("I" * q + other + "I" * (n - q - 1)))
    elif broken == "product":
        mats.insert(where, mats[pick] @ mats[(pick + 1) % k])
    elif broken == "sign_pair":
        mats.insert(where, -mats[pick])
    elif broken == "scaled":
        mats[pick] = 0.5 * mats[pick]
    elif broken in ("nonhermitian", "nonhermitian_tight"):
        mats[pick] = mats[pick].copy()
        mats[pick][0, 1] += 1e-10j
        if broken == "nonhermitian_tight":
            tol = Tolerance(resid_abs=1e-11)
    elif broken == "identity":
        mats.insert(where, np.eye(2 ** n, dtype=complex))
    if conjugate:
        U = haar_unitary(2 ** n, rng)
        mats = [U @ X @ U.conj().T for X in mats]

    try:
        expected = reference_validate_parity_set(mats, tol)
    except ParitySetError as err:
        with pytest.raises(ParitySetError) as got:
            validate_parity_set(mats, tol)
        assert str(got.value) == str(err)
        return
    ps = validate_parity_set(mats, tol)
    assert list(ps.sectors) == list(expected.sectors)
    for label, V in expected.sectors.items():
        assert np.array_equal(ps.sectors[label], V)


def test_noninvolution_left_out_of_the_split_still_has_its_pairs_checked():
    # op 0 fails the eigenvalue check; op 2 anticommutes with it but not with op 1
    P, Q = pauli_string_matrix("ZII"), pauli_string_matrix("IZI")
    X0 = pauli_string_matrix("XII")
    with pytest.raises(ParitySetError) as err:
        validate_parity_set([0.5 * P, Q, X0])
    assert str(err.value) == ("op 0 is not an involution; ops 0 and 2 do not commute")


def test_invariance_residual_above_tolerance_with_every_pair_below_is_named():
    # the six X_q split C^64 into lines spanned by uniform vectors; a
    # perturbation e0 a^dag + a e0^dag with a = |+...+> moves each sector
    # by ~1.5e-8 while each commutator stays ~3.8e-9
    n, d = 6, 64
    ops = [pauli_string_matrix("I" * q + "X" + "I" * (n - q - 1)) for q in range(n)]
    a = np.full(d, 1 / np.sqrt(d))
    e0 = np.eye(d)[0]
    X = pauli_string_matrix("XXIIII") + 1.5e-8 * (np.outer(a, e0) + np.outer(e0, a))
    assert all(np.max(np.abs(Y @ X - X @ Y)) < 1e-8 for Y in ops)
    with pytest.raises(ParitySetError,
                       match=r"^op 6 leaves the joint eigenspaces of ops \[0, 1, 2, 3, 4, 5\] "
                             r"invariant only within 1\.4\d\de-08, though no pair exceeds"):
        validate_parity_set(ops + [X])


def test_a_dense_problem_elsewhere_is_named_instead_of_the_invariance_residual():
    # the set above plus a non-traceless op 7: the dense checks find that,
    # so the split's own finding on op 6 is not named
    n, d = 6, 64
    ops = [pauli_string_matrix("I" * q + "X" + "I" * (n - q - 1)) for q in range(n)]
    a = np.full(d, 1 / np.sqrt(d))
    e0 = np.eye(d)[0]
    X = pauli_string_matrix("XXIIII") + 1.5e-8 * (np.outer(a, e0) + np.outer(e0, a))
    with pytest.raises(ParitySetError) as err:
        validate_parity_set(ops + [X, np.eye(d, dtype=complex)])
    assert str(err.value) == "op 7 is not traceless"


def test_eigenvalue_off_one_is_named_though_x_squared_is_within_tolerance():
    # one eigenvalue 1 + 2e-8 of a Haar-conjugated parity: X X - 1 is
    # 4e-8 u u^dag for a unit vector u spread over 64 entries, below 1e-8
    # everywhere, so only the split's eigenvalue check sees it
    rng = np.random.default_rng(64)
    U = haar_unitary(64, rng)
    signs = np.real(np.diag(pauli_string_matrix("ZIIIII")))
    w = np.real(np.diag(pauli_string_matrix("IZIIII"))).copy()
    w[0] += 2e-8
    ops = [(U * signs) @ U.conj().T, (U * w) @ U.conj().T]
    assert np.max(np.abs(ops[1] @ ops[1] - np.eye(64))) < 1e-8
    with pytest.raises(ParitySetError, match="eigenvalues away from"):
        reference_validate_parity_set(ops)
    with pytest.raises(ParitySetError) as err:
        validate_parity_set(ops)
    assert str(err.value) == "op 1 is not an involution"


def test_eight_qubits_six_parities_validate_and_decompose_in_under_130_ms():
    # the pairwise validator formed 36 dense 256 x 256 products (~200 ms
    # with validate + decompose); on a quiet machine the split and the unchecked
    # sector TPS take ~57 ms (best of 15, one pinned CPU, single-threaded BLAS;
    # ~64 ms with the level-0 identity and the iso's second unitarity check)
    words = ["XZZXIIII", "IXZZXIII", "XIXZZIII", "ZXIXZIII", "IIIIIZZI", "IIIIIIZZ"]
    mats = [pauli_string_matrix(w) for w in words]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sd = syndrome_decompose(validate_parity_set(mats))
        times.append(time.perf_counter() - start)
    assert sd.tps.dims == (4, 64)
    assert min(times) < 0.13


def split_through_identity(X, tol):
    """Reference level-0 split with the identity products: the block is
    (I^dag X) I and each half is rephased after I @ (its eigenvectors)."""
    V = np.eye(X.shape[0], dtype=complex)
    w, W = hermitian_eig((V.conj().T @ X) @ V, tol)
    if np.any(np.abs(np.abs(w) - 1.0) > tol.resid_abs):
        return None
    halves = [((1,), W[:, w > 0]), ((-1,), W[:, w < 0])]
    return [(label, fix_column_phases(V @ cols)) for label, cols in halves if cols.shape[1]]


def test_level_zero_split_equals_the_split_through_the_identity():
    # level 0 has no basis, so the split takes X as its block and rephases X's own
    # eigenvectors: every op of this file's sets, and seeded sets drawn as the property
    # tests draw them, splits into the values of the split through the identity (whose
    # BLAS products may set the signs of zeros, so the bytes are not compared)
    D1 = np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex)
    D2 = np.diag([1, 1, 1, -1, -1, -1, -1, 1]).astype(complex)
    a, e0 = np.full(64, 1 / 8), np.eye(64)[0]
    sets = [
        [np.kron(SX, I2), np.kron(SZ, I2), 0.5 * np.kron(SX, I2)],
        [pauli_string_matrix(w) for w in ("X", "XX", "ZZ", "ZZI", "IZZ", "ZIZ", "XII")],
        [-pauli_string_matrix("ZZI"), D1, D2],
        [pauli_string_matrix(w) for w in
         ("XZZXIIII", "IXZZXIII", "XIXZZIII", "ZXIXZIII", "IIIIIZZI", "IIIIIIZZ")],
        [pauli_string_matrix("I" * q + "X" + "I" * (5 - q)) for q in range(6)]
        + [pauli_string_matrix("XXIIII") + 1.5e-8 * (np.outer(a, e0) + np.outer(e0, a))],
    ]
    rng = np.random.default_rng(16)
    for n in range(1, 8):
        for conjugate in (False, True):
            letters = rng.choice(list("XYZ"), n)
            rows = gf2_independent_rows(rng, n, int(rng.integers(1, n + 1)))
            mats = [rng.choice([-1.0, 1.0]) * pauli_string_matrix(
                "".join(c if bit else "I" for c, bit in zip(letters, row))) for row in rows]
            U = haar_unitary(2 ** n, rng) if conjugate else np.eye(2 ** n)
            sets.append([U @ X @ U.conj().T for X in mats])
    tol, sectors = Tolerance(), 0
    for mats in sets:
        for X in mats:
            _, got = _split_sectors([((), None)], X, tol)
            expected = split_through_identity(X, tol)
            if expected is None:
                assert got is None
                continue
            assert [label for label, _ in got] == [label for label, _ in expected]
            for (_, V), (_, ref) in zip(got, expected):
                assert np.array_equal(V, ref)
                sectors += 1
    assert sectors == 112


def test_no_split_level_judges_its_blocks_again(monkeypatch):
    # validate_parity_set bounds each X's Hermiticity once, where the set is read; eigh reads
    # X at level 0 and the 4 x 4 blocks V^dag X V of the later level with no second check
    import tpskit.numerics
    import tpskit.parity
    checked = []
    for module in (tpskit.numerics, tpskit.parity):
        real = module.hermiticity_defect
        monkeypatch.setattr(module, "hermiticity_defect", lambda M, real=real: checked.append(len(M)) or real(M))
    ps = validate_parity_set([pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")])
    assert len(ps.sectors) == 4 and checked == [8, 8]


class TestSyndromeDecompose:
    def test_x_slot_sectors(self):
        ps = validate_parity_set([np.kron(SX, I2)])
        sd = syndrome_decompose(ps)
        assert sd.tps.dims == (2, 2)
        assert list(sd.sectors) == [(1,), (-1,)]
        for label, V in sd.sectors.items():
            assert np.allclose(V.conj().T @ V, np.eye(2), atol=1e-12)
            assert np.allclose(np.kron(SX, I2) @ V, label[0] * V, atol=1e-10)

    def test_xx_sectors_hold_bell_states(self):
        ps = validate_parity_set([pauli_string_matrix("XX")])
        sd = syndrome_decompose(ps)
        assert sd.tps.dims == (2, 2)
        V_plus = sd.sectors[(1,)]
        V_minus = sd.sectors[(-1,)]
        # (|00> + |11>)/sqrt2 has XX eigenvalue +1, the minus Bell state -1
        for v, V in ((BELL_PLUS, V_plus), (BELL_MINUS, V_minus)):
            resid = np.linalg.norm(v - V @ (V.conj().T @ v))
            assert resid < 1e-10

    def test_bell_states_unentangled_in_parity_tps(self):
        sd = syndrome_decompose(validate_parity_set([pauli_string_matrix("XX")]))
        from tpskit.tps import TPS
        natural = TPS.natural((2, 2))
        for v in (BELL_PLUS, BELL_MINUS):
            assert entanglement(v, sd.tps) < 1e-8
            assert abs(entanglement(v, natural) - 1.0) < 1e-8

    def test_repetition_code_sectors(self):
        ps = validate_parity_set([pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")])
        sd = syndrome_decompose(ps)
        assert sd.tps.dims == (2, 4)
        assert len(sd.sectors) == 4
        # oracle: joint eigenbasis of diagonal strings read off bit patterns
        expected = {
            (1, 1): [0b000, 0b111],
            (1, -1): [0b001, 0b110],
            (-1, 1): [0b100, 0b011],
            (-1, -1): [0b010, 0b101],
        }
        for label, idxs in expected.items():
            V = sd.sectors[label]
            for idx in idxs:
                e = np.zeros(8, dtype=complex)
                e[idx] = 1
                assert np.linalg.norm(e - V @ (V.conj().T @ e)) < 1e-10

    def test_single_sector_states_are_products(self):
        rng = np.random.default_rng(5)
        sd = syndrome_decompose(validate_parity_set([pauli_string_matrix("XX")]))
        for label, V in sd.sectors.items():
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = V @ (c / np.linalg.norm(c))
            assert entanglement(psi, sd.tps) < 1e-10

    def test_sector_sum_is_full_space(self):
        sd = syndrome_decompose(validate_parity_set(
            [pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")]))
        P = sum(V @ V.conj().T for V in sd.sectors.values())
        assert np.allclose(P, np.eye(8), atol=1e-10)

    def test_no_logical_factor_rejected(self):
        ps = validate_parity_set([pauli_string_matrix("XX"), pauli_string_matrix("ZZ")])
        with pytest.raises(ParitySetError, match="no logical factor"):
            syndrome_decompose(ps)

    def test_the_sector_structure_carries_the_parity_set_tolerance(self):
        tol = Tolerance(rank_rel=1e-12, resid_abs=1e-9)
        ps = validate_parity_set([pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")], tol)
        assert ps.tol is tol and syndrome_decompose(ps).tps.tol is tol

    def test_determinism(self):
        # two validations of fresh copies of the ops give the same bytes
        words = ("ZZI", "IZZ")
        a, b = (syndrome_decompose(validate_parity_set([pauli_string_matrix(w) for w in words]))
                for _ in range(2))
        assert list(a.sectors) == list(b.sectors)
        for V, W in zip(a.sectors.values(), b.sectors.values()):
            assert V.tobytes() == W.tobytes()
        assert a.tps.iso.tobytes() == b.tps.iso.tobytes()

    def test_the_parity_set_is_its_sector_structure(self):
        ps = validate_parity_set([pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")])
        assert syndrome_decompose(ps) is ps
        assert ps.tps is ps.tps

    def test_building_the_sector_structure_checks_no_unitarity(self, monkeypatch):
        # the sector iso is orthonormal by construction, as natural's identity is exact:
        # both are built unchecked (the oracle below bounds its defect instead)
        import tpskit.numerics
        calls = []
        real = tpskit.numerics.unitarity_defect
        monkeypatch.setattr(tpskit.numerics, "unitarity_defect", lambda U: calls.append(U) or real(U))
        ps = validate_parity_set([pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")])
        tps = syndrome_decompose(ps).tps
        assert ps.tps is tps and tps.dims == (2, 4) and calls == []

    def test_a_hand_built_record_is_checked_for_shape_not_orthonormality(self):
        # validate_parity_set is the one producer whose columns are orthonormal by
        # construction; a hand-built record gets the sector count and shapes checked,
        # a complex iso, and its columns as given
        e = np.eye(4)
        with pytest.raises(DimensionMismatchError, match="not 2 bases of shape"):
            ParitySet(n=2, sectors={(1,): e[:, :2]}, tol=Tolerance()).tps
        with pytest.raises(DimensionMismatchError, match=r"shape \(4, 2\)"):
            ParitySet(n=2, sectors={(1,): e[:, :2], (-1,): e[:, 1:]}, tol=Tolerance()).tps
        iso = ParitySet(n=2, sectors={(1,): e[:, :2], (-1,): e[:, 2:]}, tol=Tolerance()).tps.iso
        assert iso.dtype == complex and np.array_equal(iso, e[:, [0, 2, 1, 3]])
        scaled = ParitySet(n=2, sectors={(1,): 2 * e[:, :2], (-1,): e[:, 2:]}, tol=Tolerance()).tps.iso
        assert np.array_equal(scaled, e[:, [0, 2, 1, 3]] * [2, 1, 2, 1])

    def test_the_sector_basis_is_unitary_within_4_d_eps(self):
        # the oracle in place of a runtime check: over Haar-conjugated independent Pauli
        # sets on 2-8 qubits the iso's unitarity defect, and the distance of the sector
        # projectors' sum from 1, stay within 4 d eps (the worst seen is 1.25 d eps)
        rng, eps = np.random.default_rng(48), np.finfo(float).eps
        for n in range(2, 9):
            for _ in range(3):
                letters = rng.choice(list("XYZ"), n)
                rows = gf2_independent_rows(rng, n, int(rng.integers(1, n)))
                U = haar_unitary(2 ** n, rng)
                ps = validate_parity_set([rng.choice([-1.0, 1.0]) * U @ pauli_string_matrix(
                    "".join(c if bit else "I" for c, bit in zip(letters, row))) @ U.conj().T for row in rows])
                bound = 4 * ps.dim * eps
                assert unitarity_defect(ps.tps.iso) <= bound, (n, len(rows))
                P = sum(V @ V.conj().T for V in ps.sectors.values())
                assert np.max(np.abs(P - np.eye(ps.dim))) <= bound, (n, len(rows))


class TestConjugateParitySet:
    def test_random_conjugation_preserves_sector_dims(self):
        rng = np.random.default_rng(21)
        ops = [pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")]
        U = haar_unitary(8, rng)
        out = validate_parity_set([U @ X @ U.conj().T for X in ops])
        sd = syndrome_decompose(out)
        assert sorted(V.shape[1] for V in sd.sectors.values()) == [2, 2, 2, 2]


class TestCrossModuleStructure:
    def test_parity_algebra_blocks(self):
        # the abelian algebra generated by one parity on 2 qubits has
        # dimension 2 and splits into 2 blocks of shape (2, 1)
        alg = close_algebra([pauli_string_matrix("XX")])
        assert len(alg) == 2
        sd = structure_decompose(alg, seed=1)
        assert sd.block_shape == [(2, 1), (2, 1)]

    def test_repetition_parity_algebra_blocks(self):
        alg = close_algebra([pauli_string_matrix("ZZI"), pauli_string_matrix("IZZ")])
        assert len(alg) == 4
        sd = structure_decompose(alg, seed=1)
        assert sd.block_shape == [(2, 1), (2, 1), (2, 1), (2, 1)]


def test_import_leaves_the_tps_layer_unloaded():
    # reading a Pauli string or validating a set must not compile tps: only the
    # sector structure's first read needs TPS
    code = ("import sys, tpskit.parity as p\n"
            "print('tpskit.tps' in sys.modules)\n"
            "ps = p.validate_parity_set([p.pauli_string_matrix('ZZI'), p.pauli_string_matrix('IZZ')])\n"
            "print('tpskit.tps' in sys.modules)\n"
            "ps.tps\n"
            "print('tpskit.tps' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


# ------------------------------------------------ the exact route of all-Pauli sets

def dense_route(tokens):
    """(exit code, results or stderr) of the dense route on Pauli tokens:
    validate_parity_set on each token's matrix, then the sector TPS."""
    try:
        ps = validate_parity_set([pauli_string_matrix(t) for t in [parse_pauli_token(t) for t in tokens]])
        tps_dims = list(ps.tps.dims)
    except SpecFileError as exc:
        return 1, f"spec file error: {exc}\n"
    except TpskitError as exc:
        return 2, f"computation error: {type(exc).__name__}: {exc}\n"
    return 0, {"n": ps.n, "k": ps.k,
               "sectors": [{"label": list(label), "dim": V.shape[1]} for label, V in ps.sectors.items()],
               "tps_dims": tps_dims}


def exact_route(tokens, capsys):
    """(exit code, results or stderr) of `tps parity --parity TOKENS`."""
    code = main(["tps", "parity", "--parity", *tokens])
    out, err = capsys.readouterr()
    return code, json.loads(out)["results"] if code == 0 else err


EDGE_TOKEN_SETS = [["II"], ["IIII", "ZZII"], ["ZZI", "ZZI"], ["XX", "YY", "ZZ"], ["ZZ", "ZZZ"],
                   ["XX", "ZZ"], ["ZA"], ["Z" * 12], ["Z" * 20], ["Z" * 12, "ZA"], ["ZA", "Z" * 12],
                   ["ZZ", "Z" * 20], ["ZZ", "XI", "II"], ["", "ZZ"], ["XIII", "IYYY"], ["IXZ"]]


def random_token_sets(seed, count):
    """count token sets of k = 1..4 strings on n = 2..6 qubits over IZ, IXZ or IXYZ;
    a third are commuting sets, half of those with one string's product appended."""
    rng = np.random.default_rng(seed)
    sets = []
    for i in range(count):
        n, k, alphabet = int(rng.integers(2, 7)), int(rng.integers(1, 5)), ("IZ", "IXZ", "IXYZ")[i % 3]
        if i % 3 == 2 and k <= n:
            letters = rng.choice(list("XYZ"), n)
            toks = ["".join(c if bit else "I" for c, bit in zip(letters, row))
                    for row in gf2_independent_rows(rng, n, k)]
            if rng.integers(2) and k >= 2:
                toks.append("".join(c if a != b else "I" for a, b, c in zip(toks[0], toks[1], letters)))
        else:
            toks = ["".join(rng.choice(list(alphabet), n)) for _ in range(k)]
        sets.append(toks)
    return sets


def test_the_exact_route_answers_as_the_dense_route(capsys):
    outcomes = set()
    for tokens in EDGE_TOKEN_SETS + random_token_sets(43, 360):
        expected = dense_route(tokens)
        assert exact_route(tokens, capsys) == expected, tokens
        outcomes.add(expected[0] if expected[0] != 2 else expected[1].split(":")[1].strip())
    # every verdict is reached, and each kind of refusal
    assert outcomes == {0, 1, "ParitySetError", "DimensionMismatchError", "ContractViolationError"}


def as_spec_entries(tokens, path):
    """Write to path, as pauli entries named by their place, the tokens that a spec of the
    first token's dimension can hold; the --parity names that stand for the tokens (the
    rest stay bare), and whether every token is an entry."""
    dim = 2 ** len(tokens[0])
    held = [bool(t) and set(t) <= set("IXYZ") and 2 ** len(t) == dim for t in tokens]
    path.write_text(json.dumps({"dim": dim, "operators": [
        {"name": f"t{j}", "pauli": t} for j, (t, h) in enumerate(zip(tokens, held)) if h]}))
    return [f"t{j}" if h else t for j, (t, h) in enumerate(zip(tokens, held))], all(held)


def parity_answer(argv, capsys):
    """(exit code, results or stderr) of main(argv)."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out)["results"] if code == 0 else err


def test_spec_file_pauli_entries_answer_as_bare_tokens(tmp_path, capsys):
    # one input kind takes one route: the sweep above with the tokens as spec-file entries,
    # at the default --tol-resid and at one under which the dense split refuses
    path, entries_only = tmp_path / "tokens.json", 0
    for tokens in EDGE_TOKEN_SETS + random_token_sets(43, 360):
        names, all_held = as_spec_entries(tokens, path)
        for flags in ([], ["--tol-resid", "1e-300"]):
            assert (parity_answer(["tps", "parity", str(path), "--parity", *names, *flags], capsys)
                    == parity_answer(["tps", "parity", "--parity", *tokens, *flags], capsys)), (tokens, flags)
        entries_only += all_held
    assert entries_only >= 360


def test_pauli_bits_mark_x_and_z_letters_leftmost_most_significant():
    assert pauli_bits("IXYZ") == (4, 0b0110, 0b0011)
    # the dense route's size rule holds on the exact route too, which builds no matrix
    with pytest.raises(ContractViolationError, match="12-qubit Pauli string needs 256 MiB"):
        pauli_bits("Z" * 12)

"""Normal forms and lattice solving, cross-checked against sympy."""

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from derhamz.intlinalg import (
    IntMatrix,
    hnf,
    hstack,
    kernel_basis,
    lattice_solve,
    preimage_basis,
    snf,
    unimodular_inverse,
)

from dense_oracle import (
    dense_hnf,
    dense_kernel_basis,
    dense_lattice_solve,
    transpose,
)

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=40)
settings.load_profile("suite")


small_matrices = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m).map(
                lambda rows: IntMatrix(rows, ncols=n))))


# the Smith form runs on Hermite forms of a matrix and its transpose; larger
# matrices with larger entries exercise many alternations and folds
medium_matrices = st.integers(0, 10).flatmap(
    lambda m: st.integers(0, 10).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-10 ** 3, 10 ** 3), min_size=n, max_size=n),
            min_size=m, max_size=m).map(
                lambda rows: IntMatrix(rows, ncols=n))))


@st.composite
def structured_matrices(draw):
    """Small matrices with zero rows and zero columns inserted, and
    optionally [M | q I] for a prime power q, the shape of the closed-form
    oracle's lattices."""
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                  max_size=n), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, n))
        rows = [row[:j] + [0] + row[j:] for row in rows]
        n += 1
    if draw(st.booleans()):
        q = draw(st.sampled_from([2, 3])) ** draw(st.integers(1, 3))
        rows = [row + [q * (i == t) for t in range(len(rows))]
                for i, row in enumerate(rows)]
        n += len(rows)
    return IntMatrix(rows, ncols=n)


def det(M):
    return Matrix(M.to_lists()).det() if M.nrows else 1


def sympy_invariant_factors(M):
    if M.nrows == 0 or M.ncols == 0:
        return []
    S = smith_normal_form(Matrix(M.to_lists()))
    diag = [abs(S[i, i]) for i in range(min(S.shape))]
    return sorted(d for d in diag if d > 1)


class TestHnf:
    def test_spec_example(self):
        M = IntMatrix([[2, 4], [0, 2]])
        H, U = hnf(M)
        assert H == IntMatrix([[2, 0], [0, 2]])
        assert M @ U == H
        # lattice equality by mutual membership
        for j in range(2):
            assert lattice_solve(H, M.col(j)) is not None
            assert lattice_solve(M, H.col(j)) is not None

    def test_identity(self):
        I = IntMatrix.identity(4)
        H, U = hnf(I)
        assert H == I and U == I

    def test_zero(self):
        Z = IntMatrix.zeros(3, 2)
        H, U = hnf(Z)
        assert H == Z and U == IntMatrix.identity(2)

    def test_empty(self):
        for M in (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0),
                  IntMatrix.zeros(0, 0)):
            H, U = hnf(M)
            assert H.shape == M.shape
            assert M @ U == H

    @given(small_matrices)
    def test_transform_and_lattice(self, M):
        H, U = hnf(M)
        assert M @ U == H
        assert abs(det(U)) == 1
        for j in range(M.ncols):
            assert lattice_solve(H, M.col(j)) is not None
            assert lattice_solve(M, H.col(j)) is not None

    @given(small_matrices)
    def test_canonical(self, M):
        H, _ = hnf(M)
        H2, _ = hnf(H)
        assert H2 == H


class TestDenseReference:
    @given(structured_matrices(), st.lists(st.integers(-4, 4), max_size=12),
           st.lists(st.integers(-9, 9), max_size=8))
    def test_eliminations_match_the_dense_reference(self, M, coeffs, noise):
        H, U, pivots = dense_hnf(M)
        assert hnf(M) == (H, U)
        assert M @ U == H
        assert abs(det(U)) == 1
        assert kernel_basis(M) == dense_kernel_basis(M)
        inside = M.apply((coeffs + [0] * M.ncols)[:M.ncols])
        anywhere = tuple((noise + [0] * M.nrows)[:M.nrows])
        for b in (inside, anywhere):
            assert lattice_solve(M, b) == dense_lattice_solve(M, b)
        assert lattice_solve(M, inside) is not None


class TestSnf:
    def test_spec_examples(self):
        S, U, V = snf(IntMatrix([[2, 0], [0, 3]]))
        assert S == IntMatrix([[1, 0], [0, 6]])
        assert sympy_invariant_factors(IntMatrix([[2, 0], [0, 3]])) == [6]
        for n in (0, 1, 5, -7):
            S, U, V = snf(IntMatrix([[n]]))
            assert S == IntMatrix([[abs(n)]])

    def test_folds(self):
        # diagonal already, but 4 does not divide 6: the chain needs folds
        M = IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
        S, U, V = snf(M)
        assert S == IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 60]])
        _check_smith(M)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (0, 3), (3, 0),
                                       (0, 0)])
    def test_zero_and_empty(self, shape):
        M = IntMatrix.zeros(*shape)
        S, U, V = snf(M)
        assert S == M
        assert U.shape == (shape[0],) * 2 and V.shape == (shape[1],) * 2
        _check_smith(M)

    @given(small_matrices)
    def test_decomposition(self, M):
        _check_smith(M)

    @given(medium_matrices)
    def test_decomposition_medium(self, M):
        _check_smith(M)


def _check_smith(M):
    """U @ M @ V == S with U and V unimodular, S diagonal with nonnegative
    entries d1 | d2 | ... (zeros last), and the invariant factors sympy's."""
    S, U, V = snf(M)
    assert U @ M @ V == S
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    diag = [S[i, i] for i in range(min(S.shape))]
    for i in range(S.nrows):
        for j in range(S.ncols):
            if i != j:
                assert S[i, j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert sorted(d for d in diag if d > 1) == sympy_invariant_factors(M)


class TestLatticeSolve:
    def test_spec_examples(self):
        assert lattice_solve(IntMatrix([[2]]), [4]) == (2,)
        assert lattice_solve(IntMatrix([[2]]), [3]) is None
        M = IntMatrix([[1, 0], [0, 2]])
        x = lattice_solve(M, [5, 6])
        assert x is not None and M.apply(x) == (5, 6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lattice_solve(IntMatrix([[2]]), [1, 2])

    def test_empty(self):
        assert lattice_solve(IntMatrix.zeros(0, 2), []) == (0, 0)
        assert lattice_solve(IntMatrix.zeros(2, 0), [0, 0]) == ()
        assert lattice_solve(IntMatrix.zeros(2, 0), [1, 0]) is None

    @given(small_matrices, st.lists(st.integers(-4, 4), min_size=0, max_size=4))
    def test_solutions_are_solutions(self, M, coeffs):
        coeffs = (coeffs + [0] * M.ncols)[: M.ncols]
        b = M.apply(coeffs)
        x = lattice_solve(M, b)
        assert x is not None
        assert M.apply(x) == b


class TestKernel:
    @given(small_matrices)
    def test_kernel_properties(self, M):
        K = kernel_basis(M)
        assert (M @ K).is_zero()
        if M.nrows and M.ncols:
            rank = Matrix(M.to_lists()).rank()
            assert K.ncols == M.ncols - rank

    @given(small_matrices)
    def test_preimage(self, M):
        if M.nrows == 0:
            return
        rel = 2 * IntMatrix.identity(M.nrows)
        P = preimage_basis(M, rel)
        moved = M @ P
        for j in range(moved.ncols):
            assert all(v % 2 == 0 for v in moved.col(j))


class TestDet:
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=n, max_size=n)))
    def test_matches_sympy(self, rows):
        # unimodular_inverse accepts exactly the matrices of determinant
        # +-1, and inverts them
        M = IntMatrix(rows)
        if abs(Matrix(rows).det()) == 1:
            assert M @ unimodular_inverse(M) == IntMatrix.identity(M.nrows)
        else:
            with pytest.raises(ValueError):
                unimodular_inverse(M)

    def test_unimodular_inverse(self):
        U = IntMatrix([[1, 2], [0, 1]])
        W = unimodular_inverse(U)
        assert U @ W == IntMatrix.identity(2)
        with pytest.raises(ValueError):
            unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))


class TestMatrixBasics:
    def test_stacking(self):
        A = IntMatrix([[1, 2]])
        B = IntMatrix([[3]])
        assert hstack(A, B) == IntMatrix([[1, 2, 3]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_nonint_rejected(self):
        # every builder that takes outside entries checks each one
        for bad in (1.5, "1"):
            with pytest.raises(TypeError):
                IntMatrix([[1, bad]])
            with pytest.raises(TypeError):
                IntMatrix.from_columns([(1,), (bad,)], 1)

    def test_wrong_column_length_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1, 2), (3,)], 2)
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1, 2)], 3)

    def test_from_columns(self):
        M = IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)], 2)
        assert M == IntMatrix([[1, 3, 5], [2, 4, 6]])
        assert IntMatrix.from_columns([], 3).shape == (3, 0)
        assert IntMatrix.from_columns([(), ()], 0).shape == (0, 2)
        assert IntMatrix.from_columns([], 3) == IntMatrix([[], [], []])

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_shortcut_builders_match_init(self, k):
        # zeros and identity build without the entry checks; they must
        # give the same matrix, hash included, as the checked constructor
        pairs = [(IntMatrix.identity(k),
                  IntMatrix([[int(i == j) for j in range(k)]
                             for i in range(k)], ncols=k)),
                 (IntMatrix.zeros(0, k), IntMatrix([], ncols=k)),
                 (IntMatrix.zeros(k, 2), IntMatrix([[0, 0]] * k, ncols=2))]
        for built, checked in pairs:
            assert built == checked and built.shape == checked.shape
            assert hash(built) == hash(checked)
        with pytest.raises(ValueError):
            IntMatrix.zeros(2, -1)
        with pytest.raises(ValueError):
            IntMatrix.identity(-1)

    def test_mod_and_scalar(self):
        M = IntMatrix([[3, -1], [2, 5]])
        assert M.mod(2) == IntMatrix([[1, 1], [0, 1]])
        assert (2 * M).to_lists() == [[6, -2], [4, 10]]
        assert transpose(M).to_lists() == [[3, 2], [-1, 5]]

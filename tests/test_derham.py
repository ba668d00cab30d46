"""Bases and structure matrices of the polynomial de Rham complex."""

import pytest
from hypothesis import given, settings, strategies as st

from derhamz.derham import (
    BasisElement,
    basis,
    cartier_rep_matrix,
    complex_z,
    d_matrix,
    dim_formula,
    frobenius_matrix,
    koszul_blocks,
    koszul_matrix,
    substitution_map,
)
from derhamz.intlinalg import IntMatrix

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=25)
settings.load_profile("suite")


class TestBasis:
    def test_spec_examples(self):
        b = basis(1, 4, 1)
        assert b.dim == 1 and b.elements == (BasisElement((3,), (1,)),)
        b = basis(2, 2, 1)
        assert [e for e in b] == [
            BasisElement((1, 0), (1,)),   # x dx
            BasisElement((0, 1), (1,)),   # y dx
            BasisElement((1, 0), (2,)),   # x dy
            BasisElement((0, 1), (2,)),   # y dy
        ]
        assert basis(2, 4, 3).dim == 0

    def test_polynomial_order(self):
        assert [e.alpha for e in basis(2, 2, 0)] == [(2, 0), (1, 1), (0, 2)]

    def test_colex_subset_order(self):
        Ts = []
        for e in basis(3, 2, 2):
            if e.T not in Ts:
                Ts.append(e.T)
        assert Ts == [(1, 2), (1, 3), (2, 3)]

    def test_dim_formula(self):
        for r in range(5):
            for n in range(11):
                for i in range(-1, r + 2):
                    assert basis(r, n, i).dim == dim_formula(r, n, i)

    def test_degree_zero(self):
        assert basis(2, 0, 0).dim == 1
        assert basis(0, 0, 0).dim == 1
        assert basis(0, 3, 0).dim == 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            basis(-1, 2, 0)
        with pytest.raises(ValueError):
            basis(2, -1, 0)


class TestDifferential:
    def test_spec_examples(self):
        assert d_matrix(1, 2, 0) == IntMatrix([[2]])
        # basis (x^2, xy, y^2) -> (x dx, y dx, x dy, y dy)
        assert d_matrix(2, 2, 0) == IntMatrix(
            [[2, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 2]])
        # d(x dx) = 0, d(y dx) = -dx^dy, d(x dy) = dx^dy, d(y dy) = 0
        assert d_matrix(2, 2, 1) == IntMatrix([[0, -1, 1, 0]])

    def test_frozen_golden_degree_three(self):
        # hand computation on the documented ordering
        # [x^2 dx, xy dx, y^2 dx, x^2 dy, xy dy, y^2 dy] -> [x dxdy, y dxdy]
        assert d_matrix(2, 3, 1) == IntMatrix(
            [[0, -1, 0, 2, 0, 0],
             [0, 0, -2, 0, 1, 0]])

    def test_d_squared_zero(self):
        for r in range(5):
            for n in range(11):
                for i in range(min(n, r)):
                    prod = d_matrix(r, n, i + 1) @ d_matrix(r, n, i)
                    assert prod.is_zero(), (r, n, i)


class TestKoszul:
    def test_spec_examples(self):
        assert koszul_matrix(1, 3, 1) == IntMatrix([[1]])
        # kappa(dx^dy) = x dy - y dx
        assert koszul_matrix(2, 2, 2).col(0) == (0, -1, 1, 0)
        # polynomials go to zero: empty target
        assert koszul_matrix(2, 3, 0).nrows == 0

    def test_koszul_squared_zero(self):
        for r in range(5):
            for n in range(11):
                for i in range(2, min(n, r) + 1):
                    prod = koszul_matrix(r, n, i - 1) @ koszul_matrix(r, n, i)
                    assert prod.is_zero(), (r, n, i)

    def test_euler_identity(self):
        for r in range(1, 4):
            for n in range(11):
                for i in range(min(n, r) + 1):
                    dim = dim_formula(r, n, i)
                    euler = (koszul_matrix(r, n, i + 1) @ d_matrix(r, n, i)
                             + d_matrix(r, n, i - 1) @ koszul_matrix(r, n, i))
                    assert euler == n * IntMatrix.identity(dim), (r, n, i)

    def test_euler_identity_four_variables(self):
        for n in range(11):
            for i in range(min(n, 4) + 1):
                dim = dim_formula(4, n, i)
                euler = (koszul_matrix(4, n, i + 1) @ d_matrix(4, n, i)
                         + d_matrix(4, n, i - 1) @ koszul_matrix(4, n, i))
                assert euler == n * IntMatrix.identity(dim)


class TestFrobenius:
    def test_power_rules(self):
        # x -> x^p with coefficient 1, dx -> p x^(p-1) dx with coefficient p
        assert frobenius_matrix(1, 1, 0, 2) == IntMatrix([[1]])
        assert frobenius_matrix(1, 1, 1, 2) == IntMatrix([[2]])
        # combined: x dx -> 2 x^3 dx
        assert frobenius_matrix(1, 2, 1, 2) == IntMatrix([[2]])

    def test_chain_map(self):
        for r in range(1, 4):
            for p in (2, 3):
                for n in range(1, 6):
                    for i in range(min(n, r) + 1):
                        lhs = d_matrix(r, p * n, i) @ frobenius_matrix(r, n, i, p)
                        rhs = frobenius_matrix(r, n, i + 1, p) @ d_matrix(r, n, i)
                        assert lhs == rhs, (r, n, i, p)


class TestCartierRep:
    def test_power_rules(self):
        assert cartier_rep_matrix(1, 1, 0, 2) == IntMatrix([[1]])  # x -> x^2
        assert cartier_rep_matrix(1, 1, 1, 2) == IntMatrix([[1]])  # dx -> x dx
        # dy -> y dy inside the rank-two piece
        C = cartier_rep_matrix(2, 1, 1, 2)
        tgt = basis(2, 2, 1)
        assert C.col(1)[tgt.index(BasisElement((0, 1), (2,)))] == 1
        assert sum(C.col(1)) == 1

    def test_columns_are_modp_cocycles(self):
        for r in range(1, 4):
            for p in (2, 3):
                for n in range(1, 5):
                    for i in range(min(n, r) + 1):
                        C = cartier_rep_matrix(r, n, i, p)
                        d = d_matrix(r, p * n, i)
                        assert (d @ C).mod(p).is_zero(), (r, n, i, p)


class TestSubstitution:
    def test_spec_examples(self):
        f = IntMatrix.identity(2)
        assert substitution_map(f, 3, 1) == IntMatrix.identity(
            dim_formula(2, 3, 1))
        c = IntMatrix([[5]])
        assert substitution_map(c, 2, 0) == IntMatrix([[25]])
        collapse = IntMatrix([[1, 1]])
        assert substitution_map(collapse, 2, 2).is_zero()

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 4),
           st.data())
    def test_naturality(self, r, s, n, data):
        f = IntMatrix(data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=r, max_size=r),
            min_size=s, max_size=s)), ncols=r)
        for i in range(min(n, max(r, s)) + 1):
            lhs = d_matrix(s, n, i) @ substitution_map(f, n, i)
            rhs = substitution_map(f, n, i + 1) @ d_matrix(r, n, i)
            assert lhs == rhs
            lhs = koszul_matrix(s, n, i) @ substitution_map(f, n, i)
            rhs = substitution_map(f, n, i - 1) @ koszul_matrix(r, n, i)
            assert lhs == rhs


class TestReduceModP:
    def test_spec_examples(self):
        assert IntMatrix([[2]]).mod(2) == IntMatrix([[0]])
        assert IntMatrix([[3]]).mod(2) == IntMatrix([[1]])
        I = IntMatrix.identity(3)
        assert I.mod(5) == I


class TestComplex:
    def test_degree_zero_complex(self):
        cpx = complex_z(2, 0)
        assert cpx.top == 0
        assert cpx.d(0).shape == (0, 1)

    def test_out_of_range_differentials(self):
        cpx = complex_z(2, 4)
        assert cpx.d(-1).shape == (dim_formula(2, 4, 0), 0)
        assert cpx.d(5).shape == (0, 0)


class TestKoszulBlocks:
    def test_blocks_reproduce_d_matrix(self):
        # embed every block differential at its cells and sum: the result
        # is the global differential, and the cells partition the basis
        for r in range(5):
            for n in range(9):
                blocks = koszul_blocks(r, n)
                for i in range(r + 1):
                    d = d_matrix(r, n, i)
                    rows = [[0] * d.ncols for _ in range(d.nrows)]
                    covered = []
                    for blk in blocks:
                        if i >= len(blk.cells):
                            continue
                        covered += blk.cells[i]
                        src = blk.cells[i]
                        tgt = blk.cells[i + 1] if i + 1 < len(blk.cells) \
                            else ()
                        block_d = blk.differentials[i]
                        assert block_d.shape == (len(tgt), len(src))
                        for a, g in enumerate(tgt):
                            for b, h in enumerate(src):
                                rows[g][h] += block_d[a, b]
                    assert IntMatrix(rows, ncols=d.ncols) == d, (r, n, i)
                    assert sorted(covered) == list(range(d.ncols)), (r, n, i)

    def test_block_cells_carry_their_weight(self):
        for blk in koszul_blocks(3, 5):
            beta, support = blk.beta, blk.support
            assert support == tuple(j for j in (1, 2, 3) if beta[j - 1])
            for i, cells in enumerate(blk.cells):
                for k in cells:
                    alpha, T = basis(3, 5, i).elements[k]
                    weight = tuple(a + (j + 1 in T)
                                   for j, a in enumerate(alpha))
                    assert weight == beta

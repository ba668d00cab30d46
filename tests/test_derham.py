"""Bases and structure matrices of the polynomial de Rham complex."""

import sys
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from derhamz.bockstein import closed_form_page, pages
from derhamz.cohomology import integral_cohomology, modp_cohomology
from derhamz import derham
from derhamz.derham import (
    BasisElement,
    _compositions_desc,
    basis,
    basis_index,
    block_counts,
    dim_formula,
    first_block,
    first_blocks,
    ordered_weights,
    weight_pairs,
)
from derhamz.intlinalg import IntMatrix

from dense_oracle import (
    block_cells,
    cartier_rep_matrix,
    complex_z,
    d_matrix,
    distinct_blocks,
    frobenius_matrix,
    index_map,
    koszul_blocks,
    koszul_matrix,
    substitution_map,
)

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

    def test_compositions_match_the_recursive_definition(self):
        def recursive(total, parts):
            if parts == 0:
                if total == 0:
                    yield ()
                return
            if parts == 1:
                yield (total,)
                return
            for first in range(total, -1, -1):
                for rest in recursive(total - first, parts - 1):
                    yield (first,) + rest

        for total in range(9):
            for parts in range(7):
                assert list(_compositions_desc(total, parts)) == \
                    list(recursive(total, parts)), (total, parts)

    def test_compositions_past_the_recursion_limit(self):
        # one part per variable, far more than Python's recursion limit
        parts = sys.getrecursionlimit() + 100
        first, second, *_, last = _compositions_desc(1, parts)
        assert first == (1,) + (0,) * (parts - 1)
        assert second == (0, 1) + (0,) * (parts - 2)
        assert last == (0,) * (parts - 1) + (1,)

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
        assert C.col(1)[index_map(2, 2, 1)[BasisElement((0, 1), (2,))]] == 1
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


def _embedded_sum(blocks, maps, i, j, shape):
    """The sum of maps(blk) from degree i to degree j of every block, each
    embedded at its cells; also the source cells covered."""
    rows = [[0] * shape[1] for _ in range(shape[0])]
    covered = []
    for blk in blocks:
        if i > len(blk.weights):
            continue
        src = block_cells(blk, i)
        covered += src
        tgt = block_cells(blk, j)
        block_map = maps(blk)
        assert block_map.shape == (len(tgt), len(src))
        for a, g in enumerate(tgt):
            for b, h in enumerate(src):
                rows[g][h] += block_map[a, b]
    return IntMatrix(rows, ncols=shape[1]), covered


class TestKoszulBlocks:
    def test_blocks_reproduce_d_matrix(self):
        # embed every block differential at its cells and sum: the result
        # is the global differential, and the cells partition the basis
        for r in range(5):
            for n in range(9):
                blocks = koszul_blocks(r, n)
                for i in range(r + 1):
                    d = d_matrix(r, n, i)
                    total, covered = _embedded_sum(
                        blocks, lambda blk: blk.d(i), i, i + 1,
                        d.shape)
                    assert total == d, (r, n, i)
                    assert sorted(covered) == list(range(d.ncols)), (r, n, i)

    def test_block_kappa_reproduces_koszul_matrix(self):
        for r in range(5):
            for n in range(9):
                blocks = koszul_blocks(r, n)
                for i in range(r + 2):
                    kappa = koszul_matrix(r, n, i)
                    total, _ = _embedded_sum(
                        blocks, lambda blk: blk.kappa(i), i, i - 1,
                        kappa.shape)
                    assert total == kappa, (r, n, i)

    def test_frobenius_and_cartier_pair_blocks(self):
        # cell T of block beta goes to cell T of block p*beta, with
        # coefficient 1 (Cartier) and p^i (Frobenius), and nowhere else;
        # the differentials of block p*beta are p times those of beta
        for r in range(5):
            for n in range(7):
                for p in (2, 3):
                    blocks = koszul_blocks(r, n)
                    multiples = koszul_blocks(r, p * n)
                    where = {blk.beta: c for c, blk in enumerate(multiples)}
                    images = [where[tuple(p * b for b in blk.beta)]
                              for blk in blocks]
                    rest = [c for c in range(len(multiples))
                            if c not in images]
                    assert len(set(images)) == len(images)
                    for c in rest:
                        assert any(b % p for b in multiples[c].beta)
                    # weight_pairs: the weights of the first block of each
                    # distinct weights with those of its image, and the
                    # keys of the rest; first_blocks finds the first of the
                    # rest with one of the given keys
                    pairs, others = weight_pairs(r, n, p)
                    assert pairs == [(blocks[b].weights,
                                      multiples[images[b]].weights)
                                     for b in distinct_blocks(blocks)]
                    assert others == sorted({multiples[c].key for c in rest})
                    for keys in [[key] for key in others] + [others, []]:
                        assert first_blocks(r, p * n, keys) == [
                            (multiples[c].beta, multiples[c].key)
                            for c in rest if multiples[c].key in keys][:1]
                    for i in range(min(n, r) + 1):
                        source_of = {}
                        for blk, c in zip(blocks, images):
                            image = multiples[c]
                            assert image.beta == tuple(p * b
                                                       for b in blk.beta)
                            assert image.weights == tuple(
                                p * w for w in blk.weights)
                            assert all(image.d(j) == p * blk.d(j)
                                       for j in range(len(blk.weights) + 1))
                            source_of.update(zip(block_cells(image, i),
                                                 block_cells(blk, i)))
                        for M, coeff in ((cartier_rep_matrix(r, n, i, p), 1),
                                         (frobenius_matrix(r, n, i, p),
                                          p ** i)):
                            for g in range(M.nrows):
                                row = M.row(g)
                                nonzero = len(row) - row.count(0)
                                if g in source_of:
                                    assert nonzero == 1, (r, n, p, i, g)
                                    assert row[source_of[g]] == coeff
                                else:
                                    assert nonzero == 0, (r, n, p, i, g)

    def test_block_counts_count_the_blocks(self):
        for r in range(7):
            for n in range(15):
                assert block_counts(r, n) == Counter(
                    blk.key for blk in koszul_blocks(r, n)), (r, n)

    @given(st.integers(0, 12), st.integers(0, 60))
    @example(0, 0)
    @example(0, 9)
    @example(9, 0)
    @example(2, 2 ** 5 * 3 ** 4 * 5)
    def test_block_counts_beyond_the_grid(self, r, n):
        counts = block_counts(r, n)
        # every composition of n into r parts is one block, and the
        # blocks of support size s are C(r, s) times the compositions of
        # n into s positive parts
        for s in range(r + 1):
            blocks = sum(c for (g, t), c in counts.items() if t == s)
            if n == 0 or s == 0:
                assert blocks == (n == s == 0), (r, n, s)
            else:
                assert blocks == comb(r, s) * comb(n - 1, s - 1), (r, n, s)
        assert all(c > 0 and (g and n % g == 0 or g == n == 0)
                   for (g, s), c in counts.items())
        if comb(n + r, r) <= 20000:
            # uncached, so the larger block lists are not kept
            assert counts == Counter(
                blk.key for blk in koszul_blocks.__wrapped__(r, n))

    def test_negative_arguments_raise_value_error(self):
        # as basis does, instead of recursing without end
        for call, args in ((block_counts, (-1, 3)), (block_counts, (2, -1)),
                           (integral_cohomology, (-1, 3)),
                           (modp_cohomology, (-1, 3, 2)),
                           (pages, (-1, 3, 3)),
                           (closed_form_page, (-2, 4, 2, 1))):
            with pytest.raises(ValueError):
                call(*args)

    def test_ordered_weights_walk_the_first_blocks(self):
        # the distinct weights in the order they first appear among the
        # blocks, each first seen on (w, 0, ..., 0) and standing for C(r,
        # len w) blocks; their counts per key are block_counts
        for r in range(7):
            for n in range(15):
                blocks = koszul_blocks(r, n)
                walk = ordered_weights(r, n)
                assert walk == [blocks[b].weights
                                for b in distinct_blocks(blocks)], (r, n)
                for b in distinct_blocks(blocks):
                    assert blocks[b].beta == first_block(blocks[b].weights,
                                                         r), (r, n, b)
                per_weights = Counter(blk.weights for blk in blocks)
                assert all(per_weights[w] == comb(r, len(w))
                           for w in walk), (r, n)
                per_key = Counter()
                for w in walk:
                    per_key[derham.block_key(w)] += comb(r, len(w))
                assert per_key == block_counts(r, n), (r, n)

    def test_basis_index_is_the_block_cell(self):
        for r in range(4):
            for n in range(7):
                for blk in koszul_blocks(r, n):
                    for i in range(len(blk.weights) + 1):
                        assert [basis_index(blk.beta, i, c) for c in range(
                            len(block_cells(blk, i)))] == list(
                            block_cells(blk, i)), (blk.beta, i)

    def test_block_cells_carry_their_weight(self):
        for blk in koszul_blocks(3, 5):
            beta = blk.beta
            assert blk.weights == tuple(b for b in beta if b)
            for i in range(len(blk.weights) + 1):
                for k in block_cells(blk, i):
                    alpha, T = basis(3, 5, i).elements[k]
                    weight = tuple(a + (j + 1 in T)
                                   for j, a in enumerate(alpha))
                    assert weight == beta

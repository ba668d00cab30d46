"""Groups, homomorphisms, homology; oracle is sympy rank + Smith bookkeeping."""

from collections import Counter
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from derhamz.abgroups import (
    FgAbGroup,
    Homomorphism,
    _coprime_base,
    _invariant_chain,
    graded_piece_dim,
    homology_at,
    induced_map,
    is_exact_at,
    is_isomorphic,
    p_torsion,
    primary_inclusion,
    primary_part,
    quotient,
    smith_group,
    subgroup_pk,
)
from derhamz.intlinalg import (
    IntMatrix,
    hnf,
    hstack,
    kernel_basis,
    lattice_solve,
    preimage_basis,
)

from dense_oracle import (
    complex_z,
    frobenius_matrix,
    pairwise_invariant_chain,
    transpose,
)

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=30)
settings.load_profile("suite")


def Z(*factors):
    return FgAbGroup(factors)


def order(G):
    """|G|, for a finite group."""
    assert G.free_rank == 0
    return prod(G.entries)


class TestFgAbGroup:
    def test_invariants(self):
        G = FgAbGroup([2, 4])
        assert G.invariant_factors == (2, 4)
        assert G.free_rank == 0
        assert order(G) == 8

    def test_free_and_zero(self):
        assert FgAbGroup([0, 0, 0]).free_rank == 3
        assert not FgAbGroup([0, 0, 0]).is_trivial
        assert FgAbGroup.zero().is_trivial
        assert FgAbGroup([1, 1]).is_trivial

    def test_element_tests(self):
        G = Z(4)
        assert G.element_is_zero([4])
        assert not G.element_is_zero([2])
        assert G.element_is_zero([1 - 5])

    def test_wrong_length_elements_rejected(self):
        # the entrywise test reads one coordinate per generator, no more and
        # no fewer, as IntMatrix.apply does
        for G, coords in ((Z(2, 3), [2]), (Z(2, 3), [2, 3, 1]),
                          (Z(2, 0), [2]), (Z(), [0])):
            with pytest.raises(ValueError):
                G.element_is_zero(coords)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            FgAbGroup([2, -3])

    def test_is_isomorphic_spec_examples(self):
        assert not is_isomorphic(Z(2, 2), Z(4))
        assert is_isomorphic(Z(6), Z(2, 3))
        assert is_isomorphic(FgAbGroup.zero(), FgAbGroup.zero())

    def test_direct_sum(self):
        G = Z(4).direct_sum(Z(2), Z(0))
        assert G.entries == (4, 2, 0)
        assert G.free_rank == 1
        assert G.invariant_factors == (2, 4)


class TestHomomorphism:
    def test_well_definedness_enforced(self):
        # Z/2 -> Z/4 sending the generator to a generator is not well defined
        with pytest.raises(ValueError):
            Homomorphism(Z(2), Z(4), IntMatrix([[1]]))
        # but landing on the element of order two is fine
        Homomorphism(Z(2), Z(4), IntMatrix([[2]]))

    def test_equality_mod_relations(self):
        f = Homomorphism(Z(2), Z(4), IntMatrix([[2]]))
        g = Homomorphism(Z(2), Z(4), IntMatrix([[-2]]))
        assert f == g

    def test_iso_checks(self):
        double = Homomorphism(Z(4), Z(4), IntMatrix([[2]]))
        assert not double.is_injective()
        assert not double.is_surjective()
        assert Homomorphism(Z(4), Z(4), IntMatrix([[1]])).is_isomorphism()


class TestHomologyAt:
    def test_spec_examples(self):
        # injective d_out: H = 0
        G, lift = homology_at(IntMatrix.zeros(1, 0), IntMatrix([[2]]))
        assert G.is_trivial
        # d_in = [2], d_out = 0: Z/2
        G, lift = homology_at(IntMatrix([[2]]), IntMatrix.zeros(0, 1))
        assert G.invariant_factors == (2,)
        # one-variable complex at n = 4
        cpx = complex_z(1, 4)
        G, lift = homology_at(cpx.d(0), cpx.d(1))
        assert G.invariant_factors == (4,)

    def test_rejects_non_complex(self):
        with pytest.raises(ValueError):
            homology_at(IntMatrix([[1]]), IntMatrix([[1]]))

    def test_express(self):
        cpx = complex_z(1, 4)
        G, lift = homology_at(cpx.d(0), cpx.d(1))
        coords = lattice_solve(lift, (1,))
        assert coords is not None and len(coords) == 1


@st.composite
def random_two_step_complex(draw):
    """d_in: Z^a -> Z^b, d_out: Z^b -> Z^c with d_out @ d_in = 0."""
    a = draw(st.integers(0, 3))
    b = draw(st.integers(1, 4))
    c = draw(st.integers(0, 3))
    d_in = IntMatrix(draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=a, max_size=a),
        min_size=b, max_size=b)), ncols=a)
    # rows of d_out must kill the image of d_in: build from the left kernel
    left = kernel_basis(transpose(d_in))
    coeff = IntMatrix(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=left.ncols,
                 max_size=left.ncols),
        min_size=c, max_size=c)), ncols=left.ncols)
    d_out = coeff @ transpose(left)
    return d_in, d_out


class TestHomologyOracle:
    @given(random_two_step_complex())
    def test_against_rank_and_torsion_bookkeeping(self, cpx):
        d_in, d_out = cpx
        G, lift = homology_at(d_in, d_out)
        # oracle: free rank from rational ranks, torsion from the Smith
        # diagonal of the incoming map (kernels of integer maps are
        # saturated, so the torsion of Z^b/im equals the torsion of H)
        b = d_in.nrows
        rank_out = Matrix(d_out.to_lists()).rank() if d_out.nrows else 0
        rank_in = Matrix(d_in.to_lists()).rank() if d_in.ncols else 0
        expected_free = b - rank_out - rank_in
        torsion = []
        if d_in.ncols and b:
            S = smith_normal_form(Matrix(d_in.to_lists()))
            torsion = sorted(abs(S[i, i]) for i in range(min(S.shape))
                             if abs(S[i, i]) > 1)
        assert G.free_rank == expected_free
        assert sorted(G.invariant_factors) == torsion


class TestInducedMap:
    def test_identity(self):
        cpx = complex_z(2, 4)
        H1 = homology_at(cpx.d(0), cpx.d(1))
        f = induced_map(IntMatrix.identity(cpx.d(1).ncols), H1, H1,
                        tgt_d_out=cpx.d(1))
        assert f == Homomorphism(H1[0], H1[0],
                                 IntMatrix.identity(H1[0].ngens))

    def test_multiplication_by_p(self):
        cpx = complex_z(2, 4)
        H1 = homology_at(cpx.d(0), cpx.d(1))
        f = induced_map(2 * IntMatrix.identity(cpx.d(1).ncols), H1, H1,
                        tgt_d_out=cpx.d(1))
        expected = Homomorphism(H1[0], H1[0],
                                2 * IntMatrix.identity(H1[0].ngens))
        assert f == expected

    def test_frobenius_doubling(self):
        # F(x dx) = 2 x^3 dx: Z/2 -> Z/4 sends the generator to twice one
        src_cpx = complex_z(1, 2)
        tgt_cpx = complex_z(1, 4)
        src = homology_at(src_cpx.d(0), src_cpx.d(1))
        tgt = homology_at(tgt_cpx.d(0), tgt_cpx.d(1))
        f = induced_map(frobenius_matrix(1, 2, 1, 2), src, tgt,
                        tgt_d_out=tgt_cpx.d(1))
        assert src[0].invariant_factors == (2,)
        assert tgt[0].invariant_factors == (4,)
        assert f.matrix == IntMatrix([[2]])

    def test_non_cocycle_rejected(self):
        G = Z(0)
        lift = IntMatrix.identity(1)
        with pytest.raises(ValueError):
            induced_map(IntMatrix([[1]]), (G, lift), (G, lift),
                        tgt_d_out=IntMatrix([[1]]))


DIAGONAL_ENTRIES = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3, 4, 6] + [
        q ** k for q in (2, 3, 5, 7) for k in range(1, 41) if q ** k <= 2 ** 40]),
        st.booleans()).map(lambda e: -e[0] if e[1] else e[0]),
    max_size=6)


class TestSmithEntries:
    @given(DIAGONAL_ENTRIES, st.data())
    def test_quotient_of_a_moved_diagonal(self, entries, data):
        G = FgAbGroup(abs(d) for d in entries)
        k = len(entries)
        # W: a random product of unimodular column operations
        W = [[int(a == b) for b in range(k)] for a in range(k)]
        if k > 1:
            for a, b, c in data.draw(st.lists(st.tuples(
                    st.integers(0, k - 1), st.integers(0, k - 1),
                    st.integers(-3, 3)), max_size=8)):
                if a != b:
                    for row in W:
                        row[a] += c * row[b]
        signed = IntMatrix([[d if s == t else 0 for s in range(k)]
                            for t, d in enumerate(entries)], ncols=k)
        moved = signed @ IntMatrix(W, ncols=k)
        # the extra zero column keeps the lattice and makes the relation
        # matrix non-square; quotient's Smith form recovers the diagonal
        H, U, Uinv = quotient(hstack(moved, IntMatrix.zeros(k, 1)))
        assert H.entries == H.diagonal == G.diagonal
        assert U @ Uinv == IntMatrix.identity(k)
        for p in (2, 3, 5, 7):
            assert primary_part(H, p) == primary_part(G, p)
            P, incl = primary_inclusion(G, p)
            assert is_isomorphic(P, primary_part(G, p))
            assert incl.is_injective()

    def test_entrywise_invariants_and_zero_test(self):
        G = FgAbGroup([4, 0, 6, 1, 2 ** 40, 3])
        assert G.diagonal == (1, 1, 2, 12, 2 ** 40 * 3, 0)
        # the chain is computed once per entries, not on every read
        assert FgAbGroup(list(G.entries)).diagonal is G.diagonal
        assert G.element_is_zero([8, 0, 6, 5, 0, 3])
        assert not G.element_is_zero([0, 1, 0, 0, 0, 0])


BIG_PRIMES = (2 ** 61 - 1, 2 ** 31 - 1, 10 ** 9 + 7, 10 ** 9 + 9)
CHAIN_ENTRIES = st.one_of(
    st.integers(0, 200),
    st.sampled_from([0, 1, 2 ** 40, 2 ** 40 * 3, 2 ** 64, 3 ** 30 * 5]),
    st.tuples(st.sampled_from(BIG_PRIMES), st.sampled_from(BIG_PRIMES),
              st.integers(1, 3)).map(lambda t: t[0] * t[1] * t[2]))


class TestInvariantChain:
    @given(st.lists(st.tuples(CHAIN_ENTRIES, st.integers(1, 4)), max_size=8))
    @example([(2 ** 40 * 3, 2), (2, 3), (3, 1), (0, 2), (1, 5)])
    @example([((10 ** 9 + 7) * (10 ** 9 + 9), 2), (10 ** 9 + 7, 1)])
    def test_exponent_lists_give_the_pairwise_merge(self, copies):
        # the chain read off a coprime base of the distinct entries is the
        # one the gcd/lcm merge builds entry by entry, whatever the order
        entries = [d for d, c in copies for _ in range(c)]
        counts = Counter(entries)
        chain = pairwise_invariant_chain(d for d in entries if d > 1)
        assert _invariant_chain({d: c for d, c in counts.items()
                                 if d > 1}) == chain
        assert pairwise_invariant_chain(
            d for d in reversed(entries) if d > 1) == chain
        G = smith_group(counts)
        assert G.entries == chain + (0,) * counts[0]
        assert is_isomorphic(G, FgAbGroup(entries))
        assert FgAbGroup(entries).diagonal == (
            (1,) * (len(entries) - len(chain) - counts[0]) + chain
            + (0,) * counts[0])

    def test_coprime_base(self):
        # refined only as far as the values meet: 35 stays whole
        base = _coprime_base([2 ** 40 * 3, 12, 18, 35])
        assert sorted(base) == [2, 3, 35]
        assert _coprime_base([6, 6, 1]) == [6]


class TestSubgroups:
    def test_subgroup_pk_spec_examples(self):
        S, incl = subgroup_pk(Z(4), 2, 1)
        assert S.invariant_factors == (2,)
        S, incl = subgroup_pk(Z(4, 4, 2), 2, 1)
        assert S.invariant_factors == (2, 2)
        G = Z(6, 12)
        S, incl = subgroup_pk(G, 3, 0)
        assert is_isomorphic(S, G)

    def test_inclusion_is_injective(self):
        S, incl = subgroup_pk(Z(8, 4), 2, 1)
        assert incl.is_injective()

    def test_graded_piece_dims(self):
        G = Z(4)
        assert [graded_piece_dim(G, 2, k) for k in (1, 2, 3)] == [1, 1, 0]
        G = Z(4, 4, 2)
        assert graded_piece_dim(G, 2, 1) == 3
        assert graded_piece_dim(G, 2, 2) == 2
        assert graded_piece_dim(Z(0), 5, 1) == 1

    @given(st.lists(st.sampled_from([2, 3, 4, 8, 9, 5]), max_size=5),
           st.sampled_from([2, 3, 5]))
    def test_graded_dims_nonincreasing(self, factors, p):
        G = FgAbGroup(sorted(factors))
        dims = [graded_piece_dim(G, p, k) for k in range(1, 6)]
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_primary_part_spec_examples(self):
        assert primary_part(Z(12), 2).invariant_factors == (4,)
        assert primary_part(Z(12), 3).invariant_factors == (3,)
        assert primary_part(Z(4, 2), 3).is_trivial

    def test_primary_inclusion(self):
        G = Z(12, 18)
        P, incl = primary_inclusion(G, 3)
        assert is_isomorphic(P, primary_part(G, 3))
        assert incl.is_injective()
        # image really is the whole 3-primary part: same order subgroup
        img, _, _ = quotient(preimage_basis(incl.matrix, G.relations))
        assert order(img) == order(P) == 27

    def test_subgroup_presentation(self):
        # the subgroup of G generated by columns is the quotient of one
        # generator per column by the combinations that die in G
        G = Z(4)
        S, _, _ = quotient(preimage_basis(IntMatrix([[2]]), G.relations))
        assert S.invariant_factors == (2,)
        S, incl = subgroup_pk(Z(4, 0, 9, 1), 2, 1)
        assert S.entries == (2, 0, 9, 1)
        assert incl.matrix == 2 * IntMatrix.identity(4)

    @given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12, 25, 27]),
                    max_size=5),
           st.sampled_from([2, 3, 5]))
    def test_p_torsion_spans_the_kernel_of_p(self, entries, p):
        # the generators (d/p) e_t read off the entries span the same
        # lattice, modulo the relations, as the kernel of p * I
        G = FgAbGroup(entries)
        k = G.ngens
        gens = IntMatrix.from_columns(
            [[m if s == t else 0 for s in range(k)]
             for t, m in p_torsion(G, p)], k)
        kernel = preimage_basis(p * IntMatrix.identity(k), G.relations)

        def lattice(M):
            H, _ = hnf(hstack(M, G.relations))
            return [col for col in H.columns() if any(col)]

        assert lattice(gens) == lattice(kernel)


class TestExactness:
    def test_exact_and_broken(self):
        # 0 -> Z/2 --x2--> Z/4 --quot--> Z/2 -> 0 is exact in the middle
        A, B, C = Z(2), Z(4), Z(2)
        f = Homomorphism(A, B, IntMatrix([[2]]))
        g = Homomorphism(B, C, IntMatrix([[1]]))
        ok, _ = is_exact_at(f, g)
        assert ok
        ok, witness = is_exact_at(Homomorphism.zero(A, B), g)
        assert not ok and witness is not None

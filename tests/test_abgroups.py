"""Groups, homomorphisms, homology; oracle is sympy rank + Smith bookkeeping."""

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from derhamz.abgroups import (
    FgAbGroup,
    Homomorphism,
    graded_piece_dim,
    homology_at,
    induced_map,
    is_exact_at,
    is_isomorphic,
    primary_inclusion,
    primary_part,
    subgroup_pk,
    subgroup_presentation,
)
from derhamz.intlinalg import IntMatrix, hstack, kernel_basis, lattice_solve

from dense_oracle import complex_z, frobenius_matrix

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=30)
settings.load_profile("suite")


def Z(*factors):
    return FgAbGroup.from_factors(factors)


class TestFgAbGroup:
    def test_invariants(self):
        G = FgAbGroup(2, IntMatrix([[2, 0], [0, 4]]))
        assert G.invariant_factors == (2, 4)
        assert G.free_rank == 0
        assert G.order() == 8

    def test_free_and_zero(self):
        assert FgAbGroup.free(3).free_rank == 3
        assert FgAbGroup.free(3).order() is None
        assert FgAbGroup.zero().is_trivial

    def test_element_tests(self):
        G = FgAbGroup.cyclic(4)
        assert G.element_is_zero([4])
        assert not G.element_is_zero([2])
        assert G.elements_equal([1], [5])

    def test_is_isomorphic_spec_examples(self):
        assert not is_isomorphic(Z(2, 2), Z(4))
        assert is_isomorphic(Z(6), Z(2, 3))
        assert is_isomorphic(FgAbGroup.zero(), FgAbGroup.zero())

    def test_direct_sum(self):
        G = Z(4).direct_sum(Z(2), FgAbGroup.free(1))
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
        assert Homomorphism.identity(Z(4)).is_isomorphism()


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
    left = kernel_basis(d_in.transpose())
    coeff = IntMatrix(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=left.ncols,
                 max_size=left.ncols),
        min_size=c, max_size=c)), ncols=left.ncols)
    d_out = coeff @ left.transpose()
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
        assert f == Homomorphism.identity(H1[0])

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
        G = FgAbGroup.free(1)
        lift = IntMatrix.identity(1)
        with pytest.raises(ValueError):
            induced_map(IntMatrix([[1]]), (G, lift), (G, lift),
                        tgt_d_out=IntMatrix([[1]]))


DIAGONAL_ENTRIES = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3, 4, 6] + [
        q ** k for q in (2, 3, 5, 7) for k in range(1, 41) if q ** k <= 2 ** 40]),
        st.booleans()).map(lambda e: -e[0] if e[1] else e[0]),
    max_size=6)


class TestDiagonalFastPath:
    @given(DIAGONAL_ENTRIES, st.data())
    def test_matches_the_smith_path(self, entries, data):
        G = FgAbGroup.from_diagonal(entries)
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
        moved = G.relations @ IntMatrix(W, ncols=k)
        # the extra zero column keeps the lattice and makes the presentation
        # non-square, so its diagonal comes from the Smith reduction
        H = FgAbGroup(k, hstack(moved, IntMatrix.zeros(k, 1)))
        assert G.diagonal == H.diagonal
        for p in (2, 3, 5, 7):
            P, incl = primary_inclusion(G, p)
            assert is_isomorphic(P, primary_part(G, p))
            assert incl.is_injective()

    def test_square_diagonal_groups_skip_the_smith_reduction(self):
        G = FgAbGroup.from_diagonal([4, 0, 6, 1, 2 ** 40, 3])
        assert G.diagonal == (1, 1, 2, 12, 2 ** 40 * 3, 0)
        assert G._snf is None
        assert G.element_is_zero([8, 0, 6, 5, 0, 3])
        assert not G.element_is_zero([0, 1, 0, 0, 0, 0])


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
        assert graded_piece_dim(FgAbGroup.free(1), 5, 1) == 1

    @given(st.lists(st.sampled_from([2, 3, 4, 8, 9, 5]), max_size=5),
           st.sampled_from([2, 3, 5]))
    def test_graded_dims_nonincreasing(self, factors, p):
        G = FgAbGroup.from_factors(sorted(factors))
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
        img, _ = incl.image_subgroup()
        assert img.order() == P.order()

    def test_subgroup_presentation(self):
        G = Z(4)
        S, incl = subgroup_presentation(G, IntMatrix([[2]]))
        assert S.invariant_factors == (2,)


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

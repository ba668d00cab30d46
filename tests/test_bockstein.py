"""Exact couples, derived pages, closed-form oracle agreement.

The closed-form oracle reads its pages off one certified adapted basis per
block (one Smith form per positive degree); hypothesis compares its
lattices Z_j with the Hermite-form reference of tests/dense_oracle.py and
its pages with the Smith-coordinate quotient there, and a faulty snf, a
wrong inverse or a block d with d∘d != 0 must make the oracle raise.
"""

import json
import re
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from derhamz import bockstein, cohomology, derham
from derhamz.abgroups import (
    FgAbGroup,
    Homomorphism,
    diagonal_matrix,
    graded_piece_dim,
    homology_at,
    is_isomorphic,
    quotient,
)
from derhamz.bockstein import (
    ExactCouple,
    ExactnessError,
    _adapted_basis,
    _closed_form_block,
    _oracle_d,
    closed_form_page,
    compare_with_closed_form,
    couples,
    derive,
    initial_couple,
    pages,
)
from derhamz.cohomology import (
    ModpDegree,
    block_homology,
    block_modp_homology,
    integral_cohomology,
    modp_cohomology,
)
from derhamz.derham import dim_formula, koszul_d
from derhamz.intlinalg import IntMatrix, hnf, hstack, lattice_solve
from derhamz.modp import rank, valuation
from derhamz.theorems import verify_page_identification

from dense_oracle import (
    block_cells,
    complex_z,
    d_matrix,
    direct_couple,
    hnf_page_dims,
    hnf_z_basis,
    koszul_blocks,
    modp_class_matrix,
    place,
    smith_closed_form_block,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _placed(c, i, mats):
    """The blocks' degree-i matrices mats[b], b indexing
    koszul_blocks(c.r, c.n), their rows at the block's global cells, their
    columns in block order."""
    placed = [(block_cells(blk, i), M)
              for blk, M in zip(koszul_blocks(c.r, c.n), mats)
              if i <= len(blk.weights)]
    return place(placed, dim_formula(c.r, c.n, i),
                 sum(M.ncols for _, M in placed))


def _dense_lift(c, i):
    """The blocks' integral generators of degree i at their global cells,
    blocks in basis order: the generators of the canonical block of the
    key, moved back through the block's transport."""
    return _placed(c, i, [blk.transport.backward[i]
                          @ block_homology(blk.key)[i].gens
                          if i <= len(blk.weights) else None
                          for blk in koszul_blocks(c.r, c.n)])


def _rep_matrix(stage):
    """The mod-p class representatives of a page stage, as columns."""
    return IntMatrix.from_columns(list(stage.reps), stage.dim_cochain)


def _e_reps(s, i):
    """Mod-p block cochains representing the generators of E^i of a block
    couple: each level's stage representatives, composed along parent."""
    reps = _rep_matrix(s.stages[i])
    if s.parent is None:
        return reps
    return (_e_reps(s.parent, i) @ reps).mod(s.p)


def _dense_reps(c, i):
    """The summands' degree-i E representatives at their global cells: the
    canonical ones of each block's key, moved back through the block's
    transport."""
    return _placed(c, i, [(blk.transport.backward[i]
                           @ _e_reps(c.summands[blk.key], i)).mod(c.p)
                          if i <= len(blk.weights) else None
                          for blk in koszul_blocks(c.r, c.n)])


def _block_diagonal(mats):
    placed, nrows = [], 0
    for M in mats:
        placed.append((range(nrows, nrows + M.nrows), M))
        nrows += M.nrows
    return place(placed, nrows, sum(M.ncols for M in mats))


class TestInitialCouple:
    def test_connecting_map_example(self):
        # r=1, n=2, p=2: D^1 = Z/2, E^0 = <[x^2]>, del[x^2] = [x dx]
        c = initial_couple(1, 2, 2)
        (s,) = c.summands.values()
        assert s.D[1].invariant_factors == (2,)
        assert c.dims == (1, 1)
        assert s.k_maps[0].matrix == IntMatrix([[1]])

    def test_trivial_when_p_does_not_divide(self):
        c = initial_couple(1, 3, 2)
        assert all(d == 0 for d in c.dims)

    def test_degree_one(self):
        c = initial_couple(1, 1, 2)
        assert all(s.D[1].is_trivial for s in c.summands.values())
        assert all(d == 0 for d in c.dims)

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            initial_couple(1, 0, 2)

    def test_matches_the_dense_construction(self):
        # the sum of the summands' D is isomorphic to integral_cohomology's
        # group, which keeps only its invariants; with the blocks'
        # generators placed at their cells, j is the reduction of those
        # lifts and k sends [z] to [(d z~)/p], both computed here on the
        # global complex
        for (r, n, p) in [(1, 4, 2), (2, 4, 2), (2, 6, 3), (3, 6, 2),
                          (3, 4, 2), (3, 9, 3)]:
            c = couples(r, n, p, 1)[0]
            HZ = integral_cohomology(r, n)
            MP = modp_cohomology(r, n, p)
            cpx = complex_z(r, n)
            assert c.imax == HZ.top
            blocks = koszul_blocks(r, n)
            # every block's summand is the one of its key
            assert c.counts == Counter(blk.key for blk in blocks)
            summands = [c.summands[blk.key] for blk in blocks]
            lifts = [_dense_lift(c, i) for i in range(c.imax + 2)]
            D = [FgAbGroup.zero().direct_sum(
                     *[s.D[i] for s in summands if i <= s.imax])
                 for i in range(c.imax + 1)]
            for i in range(c.imax + 1):
                parts = [s for s in summands if i <= s.imax]
                assert is_isomorphic(D[i], HZ.group(i)), (r, n, p, i)
                dense_j = modp_class_matrix(MP, i, lifts[i])
                assert _block_diagonal([s.j_maps[i].matrix for s in parts]) \
                    == dense_j, (r, n, p, i)
                # E^i of each summand is mod-p H^i of its block's key
                assert [s.stages[i] for s in parts] == [
                    block_modp_homology(blk.key, p)[i] for blk in blocks
                    if i <= len(blk.weights)], (r, n, p, i)
                reps = _dense_reps(c, i)
                k = _block_diagonal([s.k_maps[i].matrix for s in parts])
                for col, rep in enumerate(reps.columns()):
                    dv = cpx.d(i).apply(rep)
                    assert all(v % p == 0 for v in dv)
                    if i == c.imax:
                        continue
                    coords = lattice_solve(lifts[i + 1], [v // p for v in dv])
                    assert D[i + 1].element_is_zero(
                        [a - b for a, b in zip(coords, k.col(col))]), \
                        (r, n, p, i)

    def test_differential_is_zero_outside_degree_range(self):
        for s in initial_couple(2, 4, 2).summands.values():
            assert s.d_matrix(-1).shape == (s.e_dim(0), 0)
            assert s.d_matrix(s.imax).shape == (0, s.e_dim(s.imax))


class TestExactness:
    def test_couples_exact_small_sweep(self):
        for r in (1, 2):
            for p in (2, 3, 5):
                for n in range(1, 9):
                    kmax = valuation(n, p) + 1
                    for c in couples(r, n, p, kmax):
                        for s in c.summands.values():
                            assert s.exactness_failures() == [], \
                                (r, n, p, c.level, s.weights)

    def test_couples_exact_three_variables(self):
        # the certificate on every summand, the last level included
        for (r, n, p) in [(3, 10, 5), (3, 12, 2), (3, 12, 3), (3, 9, 3),
                          (4, 6, 2), (4, 6, 3)]:
            kmax = valuation(n, p) + 1
            for c in couples(r, n, p, kmax):
                for s in c.summands.values():
                    assert s.exactness_failures() == [], \
                        (r, n, p, c.level, s.weights)

    def test_derive_rejects_broken_couple(self):
        # j = 0 leaves every map well defined and d = 0, but breaks
        # ker k = im j wherever E is nonzero
        (c,) = initial_couple(1, 2, 2).summands.values()
        broken = ExactCouple(
            c.weights, c.p, c.level, c.D, c.stages,
            [IntMatrix.zeros(c.e_dim(i), G.ngens) for i, G in enumerate(c.D)],
            [k.matrix for k in c.k_maps])
        with pytest.raises(ExactnessError):
            derive(broken)

    def test_equal_broken_contents_name_their_own_couples(self):
        # the broken couple of test_derive_rejects_broken_couple under two
        # weights and levels: one record, one certificate, and each derive
        # raises, every time, naming the couple it was given
        (c,) = initial_couple(1, 2, 2).summands.values()
        j = [IntMatrix.zeros(c.e_dim(i), G.ngens) for i, G in enumerate(c.D)]
        k = [m.matrix for m in c.k_maps]
        first = ExactCouple((2,), 2, 1, c.D, c.stages, j, k)
        second = ExactCouple((6,), 2, 3, c.D, c.stages, j, k)
        assert first._content is second._content
        for couple in (first, second, first, second):
            name = f"couple level {couple.level} of weights {couple.weights}"
            with pytest.raises(ExactnessError,
                               match=re.escape(name) + " at p=2 fails"):
                derive(couple)

    def test_a_faulty_exactness_check_is_reached(self, cold_tower):
        # every node reported broken: the certificate of level 1 of (1, 4,
        # 2) is computed in this test, so it raises; its record keeps the
        # verdict until the tables are cleared
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bockstein, "is_exact_at", lambda f, g: (False, (7,)))
            with pytest.raises(ExactnessError, match=re.escape(
                    "couple level 1 of weights (4,) at p=2 fails ker i = im k "
                    "in degree 0; witness (7,)")):
                couples(1, 4, 2, 2)
        with pytest.raises(ExactnessError):
            couples(1, 4, 2, 2)
        cold_tower()
        assert [c.dims for c in couples(1, 4, 2, 3)] == [(1, 1), (1, 1),
                                                         (0, 0)]

    def test_a_page_that_keeps_the_coboundaries_fails_derive(self,
                                                             cold_tower):
        # derive's pages without the quotient by im d: j of the 2-torsion
        # generator of D^1 = Z/2 of (1, 2, 2) no longer vanishes on E'
        real = bockstein.modp_homology
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bockstein, "modp_homology",
                          lambda d_in, d_out, p: real(
                              IntMatrix.zeros(d_in.nrows, 0), d_out, p))
            with pytest.raises(ExactnessError, match="j' is not independent"):
                couples(1, 2, 2, 2)
        cold_tower()
        assert [c.dims for c in couples(1, 2, 2, 2)] == [(1, 1), (0, 0)]

    def test_a_page_that_expresses_nothing_fails_derive(self, cold_tower):
        # level 1 of the key (2, 1) is built first; then no class can be
        # expressed on its derived page, which derive reaches since the
        # level's record has not been derived yet
        level = bockstein._block_level((2, 1), 2, 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ModpDegree, "express", lambda self, z: None)
            with pytest.raises(ExactnessError, match="j' is not independent"):
                derive(level)
        cold_tower()
        assert derive(bockstein._block_level((2, 1), 2, 1)).dims == (0, 0)

    def test_constructor_certifies_d_squared_zero(self):
        # D = 0, Z/2, Z/2 and pages of dims (1, 2, 1); every map below is
        # well defined, but d^1 d^0 = [[1]]
        c = direct_couple((2, 2), 2)
        assert [G.entries for G in c.D] == [(), (2,), (2,)]
        assert c.dims == (1, 2, 1)
        j = [IntMatrix.zeros(1, 0), IntMatrix([[1], [0]]), IntMatrix([[1]])]
        k = [IntMatrix([[1]]), IntMatrix([[1, 0]]), IntMatrix.zeros(0, 1)]
        with pytest.raises(RuntimeError,
                           match="page differential does not square to zero"):
            ExactCouple((2, 2), 2, 1, c.D, c.stages, j, k)
        k[1] = IntMatrix.zeros(1, 2)
        ExactCouple((2, 2), 2, 1, c.D, c.stages, j, k)


@pytest.fixture
def cold_tower():
    """Clears the couple records, the mod-p homology tables and the tower
    levels before and after the test, so that a fault injected into
    is_exact_at, modp_homology or ModpDegree.express is reached where the
    tower computes, no record keeps its verdict after the test, and every
    key reads its mod-p homology from one table again; calling it clears
    them again."""
    def clear():
        for cache in (bockstein._content, cohomology._modp_degree,
                      cohomology.block_modp_homology,
                      bockstein._block_level):
            cache.cache_clear()
    clear()
    yield clear
    clear()


class TestDerive:
    def test_z4_torsion_survives_two_pages(self):
        pg = pages(1, 4, 2, 3)
        assert [p.dims for p in pg] == [(1, 1), (1, 1), (0, 0)]

    def test_z2_dies_after_page_one(self):
        pg = pages(1, 2, 2, 2)
        assert [p.dims for p in pg] == [(1, 1), (0, 0)]

    def test_golden_rank_two(self):
        pg = pages(2, 4, 2)
        assert [p.dims for p in pg] == [(3, 4, 1), (2, 2, 0), (0, 0, 0)]

    def test_page_one_vanishes_when_p_coprime(self):
        for (r, n, p) in [(2, 3, 2), (1, 5, 3), (3, 5, 2)]:
            assert pages(r, n, p, 1)[0].is_zero

    def test_d_squared_zero_on_pages(self):
        for c in couples(2, 8, 2, valuation(8, 2) + 1):
            for s in c.summands.values():
                for i in range(s.imax):
                    prod = s.d_matrix(i + 1) @ s.d_matrix(i)
                    assert prod.mod(2).is_zero(), (c.level, i)

    def test_stationarity_beyond_nu(self):
        for (r, n, p) in [(1, 8, 2), (2, 6, 3), (2, 9, 3)]:
            nu = valuation(n, p)
            pg = pages(r, n, p, nu + 2)
            for page in pg[nu:]:
                assert page.is_zero

    def test_page_dims_at_four_variables(self):
        # page k is the mod-p complex of degree n/p^k, page nu+1 is zero
        for (r, n, p) in [(4, 8, 2), (4, 9, 3), (4, 12, 2)]:
            nu = valuation(n, p)
            pg = pages(r, n, p)
            assert len(pg) == nu + 1
            for page in pg[:nu]:
                m = n // p ** page.k
                assert page.dims == tuple(dim_formula(r, m, i)
                                          for i in range(min(n, r) + 1))
                rep = verify_page_identification(r, n, p, page.k)
                last = ("page beyond nu vanishes" if page.k == nu
                        else "conjugates the differential")
                assert rep.ok and rep.checks[-1] == (last, True), \
                    (r, n, p, page.k)
            assert pg[nu].is_zero

    def test_page_dims_match_graded_bookkeeping(self):
        # dim E_k^i = graded_k(H^i) + graded_k(H^(i+1)) for finite H
        for (r, n, p) in [(2, 4, 2), (2, 8, 2), (2, 6, 3), (3, 6, 2)]:
            H = integral_cohomology(r, n)
            for page in pages(r, n, p):
                for i, dim in enumerate(page.dims):
                    expected = (graded_piece_dim(H.group(i), p, page.k)
                                + graded_piece_dim(H.group(i + 1), p, page.k))
                    assert dim == expected, (r, n, p, page.k, i)


class TestClosedForm:
    def test_page_one_is_modp_cohomology(self):
        for (r, n, p) in [(1, 4, 2), (2, 4, 2), (2, 6, 3), (3, 4, 2)]:
            cf = closed_form_page(r, n, p, 1)
            assert cf.dims == modp_cohomology(r, n, p).dims

    def test_degree_zero_lattice_example(self):
        # r=1, n=4, p=2, k=2: d(x^4) = 4 x^3 dx lies in 4*Omega^1, so
        # Z_2^0 is everything and E_2^0 has dimension 1
        cf = closed_form_page(1, 4, 2, 2)
        assert cf.dims[0] == 1

    def test_zero_beyond_nu(self):
        assert closed_form_page(1, 4, 2, 3).is_zero
        assert closed_form_page(2, 6, 2, 2).is_zero
        assert closed_form_page(2, 9, 3, 3).is_zero

    def test_oracle_agreement_small_sweep(self):
        for r in (1, 2):
            for p in (2, 3):
                for n in range(1, 9):
                    for rep in compare_with_closed_form(r, n, p):
                        assert rep["ok"], (r, n, p, rep)

    def test_pages_read_no_engine_result(self):
        # the oracle's pages come from its own block d alone: no
        # transport, no block homology and no tower level of the engine
        def forbidden(*args):
            raise AssertionError("the oracle read an engine result")

        _closed_form_block.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            for module, name in ((derham, "transport"),
                                 (bockstein, "transport"),
                                 (cohomology, "block_homology"),
                                 (bockstein, "block_homology"),
                                 (bockstein, "_block_level")):
                patch.setattr(module, name, forbidden)
            dims = [closed_form_page(3, 8, 2, k).dims for k in range(1, 5)]
        assert dims == [page.dims for page in pages(3, 8, 2)]

    def test_pages_walk_their_own_blocks(self):
        # the oracle enumerates the blocks itself: it answers with the
        # engine's walk over ordered weights and its block counts refused
        def forbidden(*args):
            raise AssertionError("the oracle read the engine's walk")

        engine = {(r, n, p): [page.dims for page in pages(r, n, p)]
                  for r, n, p in ((3, 8, 2), (4, 6, 3), (2, 12, 2))}
        with pytest.MonkeyPatch.context() as patch:
            for module, name in ((derham, "ordered_weights"),
                                 (derham, "block_counts"),
                                 (derham, "weight_pairs"),
                                 (bockstein, "block_counts"),
                                 (bockstein, "weight_pairs")):
                patch.setattr(module, name, forbidden)
            oracle = {(r, n, p): [closed_form_page(r, n, p, k).dims
                                  for k in range(1, len(dims) + 1)]
                      for (r, n, p), dims in engine.items()}
        assert oracle == engine

    def test_block_d_reproduces_d_matrix(self):
        # the oracle's own block d, embedded at the block cells and summed,
        # is the dense global d
        for r in range(5):
            for n in range(1, 9):
                blocks = koszul_blocks(r, n)
                for i in range(min(n, r) + 1):
                    d = d_matrix(r, n, i)
                    rows = [[0] * d.ncols for _ in range(d.nrows)]
                    for blk in blocks:
                        if i > len(blk.weights):
                            continue
                        block_d = _oracle_d(
                            tuple(b for b in blk.beta if b))[i]
                        src = block_cells(blk, i)
                        tgt = block_cells(blk, i + 1)
                        assert block_d.shape == (len(tgt), len(src))
                        for a, g in enumerate(tgt):
                            for b, h in enumerate(src):
                                rows[g][h] += block_d[a, b]
                    assert IntMatrix(rows, d.ncols) == d, (r, n, i)

    def test_four_variables_fit_in_512_mib(self):
        # the oracle works per block, so (4,8,2) and (4,9,3) run in a
        # child capped at 512 MiB of address space, within a minute
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

        code = ("import json\n"
                "from derhamz.bockstein import compare_with_closed_form, pages\n"
                "print(json.dumps([(compare_with_closed_form(*a),\n"
                "                   [pg.dims for pg in pages(*a)])\n"
                "                  for a in ((4, 8, 2), (4, 9, 3))]))\n")
        run = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, timeout=60,
                             preexec_fn=cap_address_space,
                             env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert run.returncode == 0, run.stderr.decode()[-500:]
        for reports, dims in json.loads(run.stdout):
            assert len(reports) == len(dims)
            for rep, page_dims in zip(reports, dims):
                assert rep["ok"], rep
                assert rep["dims_derived"] == rep["dims_closed_form"] \
                    == page_dims, rep


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.sampled_from([2, 3, 5]), st.integers(1, 4))
def test_smith_lattices_are_the_hermite_lattices(weights, p, j):
    # on the adapted basis [a | b | h], Z_j is spanned by
    # p^max(0, j - v_p(s_t)) a_t, every b and every h: the lattice of the
    # Hermite form of [d | p^j I] (so is Z_(j-1))
    weights = tuple(weights)
    for i, (P, scales) in enumerate(_adapted_basis(weights)):
        for level in (j - 1, j):
            lift = diagonal_matrix(
                tuple(p ** max(0, level - valuation(s, p)) for s in scales)
                + (1,) * (P.ncols - len(scales)))
            assert (hnf(P @ lift)[0]
                    == hnf(hnf_z_basis(weights, p, level, i))[0]), (i, level)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.sampled_from([2, 3, 5]), st.integers(1, 4))
def test_adapted_pages_are_the_smith_coordinate_pages(weights, p, k):
    # page k read off the adapted basis against the integer quotient in
    # Smith coordinates: the same dims (those of the Hermite-form
    # reference), d_k of the same rank mod p, and generators in Z_k
    weights = tuple(weights)
    dims, gens, diffs = _closed_form_block(weights, p, k)
    ref_dims, ref_diffs = smith_closed_form_block(weights, p, k)
    assert dims == ref_dims == hnf_page_dims(weights, p, k)
    for i, (d_k, ref_d_k) in enumerate(zip(diffs, ref_diffs)):
        assert rank(d_k, p) == rank(ref_d_k, p), i
    for i, cochains in enumerate(gens):
        Z = hnf_z_basis(weights, p, k, i)
        for col in cochains.columns():
            assert lattice_solve(Z, col) is not None, (i, col)


def _double_last_column(M):
    return M @ diagonal_matrix((1,) * (M.ncols - 1) + (2,))


def _negate_first_row(M):
    return diagonal_matrix((-1,) + (1,) * (M.nrows - 1)) @ M


def _add_last_row_to_first(M):
    rows = M.to_lists()
    rows[0] = [a + b for a, b in zip(rows[0], rows[-1])]
    return IntMatrix(rows, M.ncols)


@pytest.fixture
def cold_oracle():
    # the faults below act where the oracle computes, so its caches start
    # and end empty (_oracle_d itself is not cached)
    for cache in (_adapted_basis, _closed_form_block):
        cache.cache_clear()
    yield
    for cache in (_adapted_basis, _closed_form_block):
        cache.cache_clear()


@pytest.mark.parametrize("fault, message", [
    # U d V = S still holds, with S doubled in the same column, but V is
    # no longer unimodular
    (lambda S, U, V: (_double_last_column(S), U, _double_last_column(V)),
     "not unimodular"),
    (lambda S, U, V: (2 * S, U, V), "does not reduce"),
    (lambda S, U, V: (S, _negate_first_row(U), V), "does not reduce"),
], ids=["V column doubled", "S doubled", "U row negated"])
def test_the_oracle_certifies_its_smith_forms(cold_oracle, fault, message):
    real = bockstein.snf
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bockstein, "snf", lambda d: fault(*real(d)))
        with pytest.raises(RuntimeError, match=message):
            compare_with_closed_form(2, 6, 3)


def test_the_oracle_certifies_its_adapted_basis(cold_oracle):
    # a V^-1 whose first row has the last row added is still unimodular
    # and leaves every Smith form certified, but P^-1 of the degree above
    # then gives the image of d a nonzero a coordinate; a 1x1 inverse is
    # left alone, since adding its row to itself would break
    # unimodularity instead
    real = bockstein.unimodular_inverse
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bockstein, "unimodular_inverse",
                      lambda M: (_add_last_row_to_first(real(M))
                                 if M.nrows > 1 else real(M)))
        with pytest.raises(RuntimeError, match="is not elementary"):
            compare_with_closed_form(2, 6, 3)


def test_the_oracle_certifies_its_inverses(cold_oracle):
    # a doubled inverse of the row transform U of a Smith form keeps the
    # b columns K U^-1 cocycles, so every Smith form and every P^-1 d P
    # pass, but P^-1 P is twice the identity
    real_snf, real_inverse = bockstein.snf, bockstein.unimodular_inverse
    row_transforms = set()

    def recording_snf(M):
        S, U, V = real_snf(M)
        row_transforms.add(id(U))
        return S, U, V

    def inverse(M):
        inv = real_inverse(M)
        return 2 * inv if id(M) in row_transforms else inv

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bockstein, "snf", recording_snf)
        patch.setattr(bockstein, "unimodular_inverse", inverse)
        with pytest.raises(RuntimeError, match="is not the identity"):
            compare_with_closed_form(2, 6, 3)


def test_the_oracle_certifies_d_squared_zero(cold_oracle):
    # doubling the first column of every block d breaks d∘d = 0 on the
    # block of (1, 1), whose d^1 d^0 is then -2
    real = IntMatrix.from_columns.__func__

    def doubled(cls, cols, nrows):
        cols = [list(c) for c in cols]
        if cols:
            cols[0] = [2 * v for v in cols[0]]
        return real(cls, cols, nrows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntMatrix, "from_columns", classmethod(doubled))
        with pytest.raises(AssertionError, match="d∘d != 0"):
            _oracle_d((1, 1))


def _identified_dims(r, n, p, k):
    """The dims of page k, checked to be those of the mod-p forms of degree
    n/p^k (dim_formula) and to pass the page identification report."""
    rep = verify_page_identification(r, n, p, k)
    assert rep.ok and rep.checks[0] == ("dimensions agree", True)
    dims = couples(r, n, p, k)[k - 1].dims
    assert dims == tuple(dim_formula(r, n // p ** k, i)
                         for i in range(len(dims)))
    return dims


class TestPageIdentification:
    def test_golden_rank_two(self):
        assert _identified_dims(2, 4, 2, 1) == (3, 4, 1)

    def test_one_variable_depth_two(self):
        assert _identified_dims(1, 4, 2, 2) == (1, 1)
        # d_2 is conjugate to d on Omega_1 mod 2, which has rank 1
        couple = couples(1, 4, 2, 2)[1]
        assert sum(count * rank(couple.summands[key].d_matrix(0), 2)
                   for key, count in couple.counts.items()) == 1

    def test_rank_matches_slice_rank(self):
        # d_1 on the first page of (2, 4, 2) has rank 1, like d on
        # Omega_2 mod 2
        couple = couples(2, 4, 2, 1)[0]
        assert sum(count * rank(couple.summands[key].d_matrix(1), 2)
                   for key, count in couple.counts.items()) == 1

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            verify_page_identification(2, 4, 2, 3)
        with pytest.raises(ValueError):
            verify_page_identification(2, 3, 2, 1)


class TestPagesApi:
    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            pages(1, 0, 2)

    def test_requires_a_page(self):
        # an empty page range would make the oracle comparison vacuous
        for upto in (0, -3):
            with pytest.raises(ValueError):
                couples(2, 4, 2, upto)
            with pytest.raises(ValueError):
                compare_with_closed_form(2, 4, 2, upto)

    def test_express_cochain_on_a_deep_tower(self):
        # past nu the pages of (1, 4, 2) stay those of level 3; the class
        # of a cochain is found without recursing through 1100 levels
        deep = couples(1, 4, 2, 1100)[-1].summands[4, 1]
        third = couples(1, 4, 2, 3)[-1].summands[4, 1]
        for i, answer in ((0, None), (1, ())):
            assert deep.express_cochain(i, (1,)) == answer
            assert third.express_cochain(i, (1,)) == answer

    def test_default_kmax(self):
        assert len(pages(2, 8, 2)) == valuation(8, 2) + 1

    def test_cochain_reps_shapes(self):
        for page, c in zip(pages(2, 4, 2), couples(2, 4, 2, 3)):
            for i, dim in enumerate(page.dims):
                assert _dense_reps(c, i).shape == (dim_formula(2, 4, i), dim)

    def test_cochain_reps_are_modp_cocycles(self):
        for (r, n, p) in [(2, 4, 2), (2, 8, 2), (3, 6, 3)]:
            for c in couples(r, n, p, valuation(n, p) + 1):
                for i in range(c.imax + 1):
                    moved = d_matrix(r, n, i) @ _dense_reps(c, i)
                    assert moved.mod(p).is_zero(), (r, n, p, c.level, i)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=3),
       st.sampled_from([2, 3]), st.integers(1, 3))
def test_trusted_columns_are_the_checked_columns(weights, p, k):
    # the closed-form pages, the couple builders and quotient (on its
    # Hermite pivot columns) hand the columns they build to the unchecked
    # IntMatrix._raw_columns: on small random weights every call gets
    # tuples of plain ints of the right length, so each matrix is the one
    # the checked from_columns builds
    raw = IntMatrix._raw_columns.__func__
    built = []

    def recording(cls, cols, nrows):
        built.append((list(cols), nrows))
        return raw(cls, cols, nrows)

    weights = tuple(weights)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntMatrix, "_raw_columns", classmethod(recording))
        bockstein._closed_form_block.__wrapped__(weights, p, k)
        derive(direct_couple(weights, p))
        for i in range(len(weights) + 1):
            homology_at(koszul_d(weights, i - 1), koszul_d(weights, i))
            quotient(hstack(koszul_d(weights, i), diagonal_matrix(
                (p ** k,) * koszul_d(weights, i).nrows)))
    assert built
    for cols, nrows in built:
        assert all(type(c) is tuple and len(c) == nrows
                   and all(type(v) is int for v in c) for c in cols)
        assert raw(IntMatrix, cols, nrows) == IntMatrix.from_columns(cols,
                                                                     nrows)

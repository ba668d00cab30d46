"""Integral and mod-p cohomology, Cartier bijectivity, naturality."""

import json
import resource
import subprocess
import sys
from hashlib import sha256
from math import comb, gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

from derhamz import cohomology, derham
from derhamz.abgroups import FgAbGroup, homology_at
from derhamz.bockstein import derive
from derhamz.cohomology import (
    block_modp_homology,
    cartier_iso,
    cocycle_dim,
    integral_cohomology,
    modp_cohomology,
    modp_homology,
)
from derhamz.derham import dim_formula, koszul_d
from derhamz.intlinalg import IntMatrix, hnf, kernel_basis, lattice_solve

from derhamz.modp import rank, valuation

from dense_oracle import (
    block_cells,
    cartier_rep_matrix,
    coboundaries,
    complex_z,
    direct_couple,
    greedy,
    koszul_blocks,
    modp_class_matrix,
    place,
    substitution_map,
    transpose,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=15)
settings.load_profile("suite")


def gf_rank(M, p):
    if M.nrows == 0 or M.ncols == 0:
        return 0
    dm = DomainMatrix.from_Matrix(Matrix(M.to_lists())).convert_to(GF(p))
    return len(dm.rref()[1])


def lattice(M):
    """The nonzero Hermite columns: equal iff the column lattices are."""
    H = hnf(M)[0]
    return [H.col(j) for j in range(H.ncols) if any(H.col(j))]


def _compositions(n, r):
    """Every beta in N^r with |beta| = n."""
    if r == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, r - 1):
            yield (first,) + rest


def closed_form_torsion(r, n, i):
    """Invariant factors of the closed form, recombined prime by prime."""
    exponents = {}           # prime -> exponents of its cyclic summands
    for beta in _compositions(n, r):
        s = sum(1 for b in beta if b)
        if s == 0 or i == 0:
            continue
        g, copies = gcd(*beta), comb(s - 1, i - 1)
        q = 2
        while g > 1:
            e = 0
            while g % q == 0:
                g //= q
                e += 1
            if e:
                exponents.setdefault(q, []).extend([e] * copies)
            q += 1
    for exps in exponents.values():
        exps.sort(reverse=True)
    count = max((len(exps) for exps in exponents.values()), default=0)
    factors = [prod(q ** exps[k] for q, exps in exponents.items()
                    if k < len(exps))
               for k in range(count)]
    return tuple(sorted(factors))


# sha256 of the stdout of `derhamz cohomology -r R -n N --unsafe-bounds`,
# recorded while H^i was still the group of one entry per block generator
PINNED_STDOUT = {
    (6, 14): "0f1374a50c0d53bdc0c0209c2f8505b12937140fda65c3898a75ef9369f7674a",
    (8, 12): "f9a9f2f131241eb480a677567342ff61e5aca82b9505631559307257ce0a61da",
    (8, 16): "7005b60d768710123a4174836557a204ad42128cd457a2eef839e124e1c4f9f1",
}


class TestIntegralCohomology:
    def test_one_variable_law(self):
        for n in range(1, 13):
            H = integral_cohomology(1, n)
            assert H.group(0).is_trivial
            expected = (n,) if n > 1 else ()
            assert H.group(1).invariant_factors == expected

    def test_rank_two_degree_four(self):
        H = integral_cohomology(2, 4)
        assert H.group(1).invariant_factors == (2, 4, 4)
        assert H.group(2).invariant_factors == (2,)

    def test_degree_zero(self):
        H = integral_cohomology(1, 0)
        assert H.group(0).free_rank == 1

    def test_h0_vanishes_positive_degree(self):
        for r in (1, 2, 3):
            for n in range(1, 9):
                assert integral_cohomology(r, n).group(0).is_trivial

    def test_out_of_range_zero(self):
        H = integral_cohomology(2, 4)
        assert H.group(5).is_trivial
        assert H.group(-1).is_trivial

    def test_full_pipeline_against_sympy_smith_oracle(self):
        # free rank from rational ranks, torsion from the Smith diagonal of
        # the incoming differential, independent of the package's own
        # normal-form code
        from sympy.matrices.normalforms import smith_normal_form

        cases = [(r, n) for r in (1, 2) for n in range(1, 9)] + [(3, 6)]
        for (r, n) in cases:
            cpx = complex_z(r, n)
            H = integral_cohomology(r, n)
            for i in range(cpx.top + 1):
                d_in, d_out = cpx.d(i - 1), cpx.d(i)
                rank_in = Matrix(d_in.to_lists()).rank() if d_in.ncols else 0
                rank_out = Matrix(d_out.to_lists()).rank() if d_out.nrows else 0
                free = d_in.nrows - rank_in - rank_out
                torsion = []
                if d_in.ncols:
                    S = smith_normal_form(Matrix(d_in.to_lists()))
                    torsion = sorted(abs(S[k, k]) for k in range(min(S.shape))
                                     if abs(S[k, k]) > 1)
                assert H.group(i).free_rank == free, (r, n, i)
                assert list(H.group(i).invariant_factors) == torsion, (r, n, i)

    def test_closed_form_oracle(self):
        # H^i = sum over |beta| = n of (Z/gcd beta)^C(s-1, i-1), s the
        # number of nonzero entries of beta; the engine never uses this
        cases = [(r, n) for r in range(1, 5) for n in range(13)]
        for (r, n) in cases + [(4, 16)]:
            # uncached, so the (4,16) lifts are not kept for the session
            H = integral_cohomology.__wrapped__(r, n)
            for i in range(H.top + 1):
                G = H.group(i)
                if n == 0:
                    assert (G.free_rank, G.invariant_factors) == (1, ())
                    continue
                assert G.free_rank == 0, (r, n, i)
                assert G.invariant_factors == closed_form_torsion(r, n, i), \
                    (r, n, i)

    @pytest.mark.parametrize("r, n, mib",
                             [(5, 12, 256), (8, 8, 80), (6, 14, 64),
                              (8, 12, 64), (8, 16, 64)])
    def test_many_variables_fit_in_little_memory(self, r, n, mib):
        # a group is its invariant factors and free generators, and the
        # blocks are counted per key, not enumerated: (5,12), with up to
        # 5005 generators in one degree, (8,8), with 6435 blocks, up to
        # (8,16), with 245157 blocks and 7.6M block generators, run in a
        # child capped at the given address space
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

        run = subprocess.run(
            [sys.executable, "-m", "derhamz", "cohomology", "-r", str(r),
             "-n", str(n), "--unsafe-bounds"],
            capture_output=True, timeout=60, preexec_fn=cap_address_space,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert run.returncode == 0, run.stderr.decode()[-500:]
        if (r, n) in PINNED_STDOUT:
            # the closed form would enumerate (8,16)'s blocks for seconds
            assert sha256(run.stdout).hexdigest() == PINNED_STDOUT[r, n]
            return
        results = json.loads(run.stdout)["results"]
        assert [row["i"] for row in results] == list(range(min(n, r) + 1))
        for row in results:
            assert row["free_rank"] == 0
            assert tuple(row["invariant_factors"]) == closed_form_torsion(
                r, n, row["i"]), row["i"]

    def test_blocks_are_counted_not_enumerated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the blocks were enumerated")

        # mod-p cohomology and cocycle dims also sum over the keys
        cases = [(1, 0, 2), (3, 6, 2), (3, 6, 3), (4, 12, 2), (0, 3, 3)]
        expected = [(modp_cohomology(r, n, p).dims,
                     [cocycle_dim(r, n, i, p) for i in range(-1, r + 2)])
                    for r, n, p in cases]
        monkeypatch.setattr(derham, "ordered_weights", refuse)
        monkeypatch.setattr(derham, "_compositions_desc", refuse)
        assert expected == [
            (modp_cohomology(r, n, p).dims,
             [cocycle_dim(r, n, i, p) for i in range(-1, r + 2)])
            for r, n, p in cases]
        for r, n in [(1, 0), (3, 6), (4, 12), (0, 3)]:
            H = integral_cohomology.__wrapped__(r, n)
            assert [d.i for d in H.degrees] == list(range(min(n, r) + 1))
            for i in range(1, H.top + 1):
                assert H.group(i).invariant_factors == closed_form_torsion(
                    r, n, i), (r, n, i)
        assert integral_cohomology.__wrapped__(1, 0).group(0).free_rank == 1

    def test_annihilated_by_n(self):
        for r in (1, 2):
            for n in range(1, 9):
                H = integral_cohomology(r, n)
                for i in range(min(n, r) + 1):
                    G = H.group(i)
                    assert G.free_rank == 0
                    assert all(n % d == 0 for d in G.invariant_factors)


class TestModpHomology:
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=4),
           st.sampled_from([2, 3, 5]))
    def test_choices_on_blocks_and_pages(self, weights, p):
        # on a Koszul block and on every page of its derived couples up to
        # the first zero page: the greedy coboundaries and representatives,
        # and express on them and on a non-cocycle
        weights = tuple(weights)
        for i in range(len(weights) + 1):
            _check_modp_choices(koszul_d(weights, i - 1),
                                koszul_d(weights, i), p)
        couple = direct_couple(weights, p)
        for level in range(min(valuation(w, p) for w in weights) + 1):
            if level:
                couple = derive(couple)
            for i in range(couple.imax + 1):
                _check_modp_choices(couple.d_matrix(i - 1),
                                    couple.d_matrix(i), p)


def _check_modp_choices(d_in, d_out, p):
    """modp_homology keeps as representatives the cocycles that greedily
    extend the pivot columns of d_in mod p; express sends representative j
    to e_j, a pivot column of d_in to 0 and a cell whose d is nonzero mod p
    to None."""
    deg = modp_homology(d_in, d_out, p)
    n = d_in.nrows
    bounds = coboundaries(d_in, p)
    assert list(deg.reps) == [deg.cocycles[k]
                              for k in greedy(bounds, deg.cocycles, n, p)]
    for j, z in enumerate(deg.reps):
        assert deg.express(z) == tuple(int(t == j) for t in range(deg.dim))
    for b in bounds:
        assert deg.express(b) == (0,) * deg.dim
    for c in range(n):
        if any(v % p for v in d_out.col(c)):
            assert deg.express([int(t == c) for t in range(n)]) is None


class TestModpCohomology:
    def test_spec_examples(self):
        assert modp_cohomology(1, 2, 2).dims == (1, 1)
        assert modp_cohomology(2, 4, 2).dims == (3, 4, 1)
        assert modp_cohomology(2, 3, 2).dims == (0, 0, 0)

    def test_vanishing_when_p_does_not_divide(self):
        for r in (1, 2, 3):
            for p in (2, 3):
                for n in range(1, 9):
                    if n % p:
                        dims = modp_cohomology(r, n, p).dims
                        assert all(d == 0 for d in dims), (r, n, p)

    def test_dims_against_sympy_ranks(self):
        for (r, n, p) in [(2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 4, 2)]:
            cpx = complex_z(r, n)
            mp = modp_cohomology(r, n, p)
            assert len(mp.dims) == cpx.top + 1
            for i in range(cpx.top + 1):
                z = dim_formula(r, n, i) - gf_rank(cpx.d(i), p)
                b = gf_rank(cpx.d(i - 1), p)
                assert mp.dims[i] == z - b

    def test_cartier_dimension_match(self):
        for r in (1, 2, 3):
            for p in (2, 3):
                for n in range(1, 13 // p + 1):
                    mp = modp_cohomology(r, p * n, p)
                    for i in range(min(p * n, r) + 1):
                        assert mp.dims[i] == dim_formula(r, n, i), \
                            (r, n, p, i)

    def test_rank_bookkeeping(self):
        # alternating sums: cochain dims vs cocycle + coboundary dims
        for (r, n, p) in [(2, 4, 2), (3, 6, 2), (2, 6, 3)]:
            mp = modp_cohomology(r, n, p)
            degrees = range(len(mp.dims))
            lhs = sum((-1) ** i * dim_formula(r, n, i) for i in degrees)
            rhs = sum((-1) ** i * (len(_embedded(mp, i, "cocycles"))
                                   + len(_embedded(mp, i, "coboundaries")))
                      for i in degrees)
            assert lhs == rhs

    def test_block_routing(self):
        # the direct sum over blocks: the cocycle and coboundary counts are
        # the sympy ranks, and on each block the reps express as unit
        # vectors, coboundaries as zero, and the first and the last cell
        # whose d is nonzero mod p (checked on the dense d) are rejected
        for r in range(4):
            for n in range(9):
                for p in (2, 3):
                    mp = modp_cohomology(r, n, p)
                    cpx = complex_z(r, n)
                    for i in range(len(mp.dims)):
                        where = (r, n, p, i)
                        assert len(_embedded(mp, i, "cocycles")) == \
                            dim_formula(r, n, i) - gf_rank(cpx.d(i), p), where
                        assert len(_embedded(mp, i, "coboundaries")) == \
                            gf_rank(cpx.d(i - 1), p), where
                        assert len(_embedded(mp, i, "reps")) == mp.dims[i]
                        for blk in koszul_blocks(r, n):
                            if i <= len(blk.weights):
                                _check_block_routing(blk, cpx, i, p)

    def test_modp_class_matrix_oracle(self):
        # the dense oracle solves over the embedded reps and coboundaries:
        # reps map to unit vectors, coboundaries to zero, a non-cocycle
        # raises
        for (r, n, p) in [(2, 4, 2), (3, 6, 2), (2, 6, 3), (3, 6, 3)]:
            mp = modp_cohomology(r, n, p)
            cpx = complex_z(r, n)
            for i in range(len(mp.dims)):
                dim = dim_formula(r, n, i)
                reps = _embedded(mp, i, "reps")
                bounds = _embedded(mp, i, "coboundaries")
                M = modp_class_matrix(
                    mp, i, IntMatrix.from_columns(reps + bounds, dim))
                assert M == IntMatrix.from_columns(
                    [[int(t == j) for t in range(len(reps))]
                     for j in range(len(reps))]
                    + [[0] * len(reps)] * len(bounds), len(reps))
                bad = [g for g in range(dim) if any(
                    v % p for v in cpx.d(i).col(g))]
                if bad:
                    z = [int(t == bad[0]) for t in range(dim)]
                    with pytest.raises(ValueError):
                        modp_class_matrix(mp, i,
                                          IntMatrix.from_columns([z], dim))

    def test_prime_guard(self):
        with pytest.raises(ValueError):
            modp_cohomology(2, 4, 4)
        with pytest.raises(ValueError):
            modp_cohomology(2, 4, 17)


def _embedded(mp, i, attr):
    """The blocks' degree-i vectors of the given kind (reps or cocycles of
    the canonical block of the key, moved back through the block's
    transport, or coboundaries, the pivot columns of the block d mod p) at
    their global cells, blocks in basis order."""
    out = []
    for blk in koszul_blocks(mp.r, mp.n):
        if i <= len(blk.weights):
            back = blk.transport.backward[i]
            vecs = (coboundaries(blk.d(i - 1), mp.p) if attr == "coboundaries"
                    else [[v % mp.p for v in back.apply(z)] for z in getattr(
                        block_modp_homology(blk.key, mp.p)[i], attr)])
            for v in vecs:
                full = [0] * dim_formula(mp.r, mp.n, i)
                for g, x in zip(block_cells(blk, i), v):
                    full[g] = x
                out.append(tuple(full))
    return out


def _check_block_routing(blk, cpx, i, p):
    """On one block, in its own cochains through its transport (backward[i]
    to them, forward[i] back onto the canonical block of the key): reps
    express as unit vectors, coboundaries as zero, and the first and the
    last non-cocycle cell are rejected."""
    where = (blk.beta, i, p)
    deg = block_modp_homology(blk.key, p)[i]
    forward, backward = blk.transport.forward[i], blk.transport.backward[i]
    for j, rep in enumerate(deg.reps):
        unit = tuple(int(t == j) for t in range(deg.dim))
        moved = [v % p for v in backward.apply(rep)]
        assert deg.express(forward.apply(moved)) == unit, where
    for b in coboundaries(blk.d(i - 1), p):
        assert deg.express(forward.apply(b)) == (0,) * deg.dim, where
    d = blk.d(i)
    bad = [c for c in range(d.ncols) if any(v % p for v in d.col(c))]
    for c in bad[:1] + bad[-1:]:
        z = [0] * cpx.d(i).ncols
        z[block_cells(blk, i)[c]] = 1
        assert any(v % p for v in cpx.d(i).apply(z)), where
        assert deg.express(forward.col(c)) is None, (where, c)


class TestCocycleDim:
    def test_spec_examples(self):
        assert cocycle_dim(2, 2, 1, 2) == 3
        assert cocycle_dim(2, 1, 1, 2) == 2
        assert cocycle_dim(1, 2, 1, 2) == 1

    def test_empty_piece(self):
        assert cocycle_dim(2, 4, 3, 2) == 0

    def test_against_sympy_rank(self):
        for r in range(4):
            for n in range(11):
                cpx = complex_z(r, n)
                for p in (2, 3):
                    for i in range(-1, min(n, r) + 2):
                        assert cocycle_dim(r, n, i, p) == (
                            dim_formula(r, n, i) - gf_rank(cpx.d(i), p)), \
                            (r, n, i, p)


def _placed_cartier(r, n, i, p):
    """cartier_iso's matrices, one per ordered weights with a degree i,
    placed at the cells of every block of those weights: columns at the
    block's degree-i cells, rows after the previous blocks' classes (the
    blocks p*beta in basis order, and the other blocks have no classes)."""
    matrices = cartier_iso(r, n, i, p)
    blocks = [blk for blk in koszul_blocks(r, n)
              if 0 <= i <= len(blk.weights)]
    assert list(matrices) == list(dict.fromkeys(blk.weights
                                                for blk in blocks))
    placed = [(block_cells(blk, i), transpose(matrices[blk.weights]))
              for blk in blocks]
    dim = modp_cohomology(r, p * n, p).dims
    return transpose(place(placed, dim_formula(r, n, i),
                           dim[i] if i < len(dim) else 0))


class TestCartierIso:
    def test_rank_one(self):
        for i in (0, 1):
            assert list(cartier_iso(1, 1, i, 2)) == [(1,)]
            (M,) = cartier_iso(1, 1, i, 2).values()
            assert M.shape == (1, 1) and rank(M, 2) == 1

    def test_rank_two_independent_classes(self):
        M = _placed_cartier(2, 1, 1, 2)
        assert M.shape == (2, 2) and rank(M, 2) == 2

    def test_zero_piece(self):
        assert cartier_iso(2, 4, 3, 2) == {}
        # no block has cells in a negative degree
        assert cartier_iso(2, 2, -1, 3) == {}
        assert _placed_cartier(2, 4, 3, 2).shape == (0, 0)

    def test_bijective_on_sweep(self):
        # raises when not bijective; the block matrices, placed at their
        # cells, are the classes of the dense representative
        for r in (1, 2, 3):
            for p in (2, 3):
                for n in range(1, 12 // p + 1):
                    target = modp_cohomology(r, p * n, p)
                    for i in range(min(n, r) + 2):
                        dense = modp_class_matrix(
                            target, i, cartier_rep_matrix(r, n, i, p))
                        placed = _placed_cartier(r, n, i, p)
                        assert placed == dense.mod(p), (r, n, i, p)
                        assert rank(placed, p) == placed.nrows \
                            == placed.ncols, (r, n, i, p)

    @given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3),
           st.sampled_from([2, 3]), st.data())
    def test_naturality_on_classes(self, r, s, n, p, data):
        f = IntMatrix(data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=r, max_size=r),
            min_size=s, max_size=s)), ncols=r)
        target = modp_cohomology(s, p * n, p)
        for i in range(min(n, max(r, s)) + 1):
            # substitute then take Cartier classes
            one = (cartier_rep_matrix(s, n, i, p)
                   @ substitution_map(f, n, i)).mod(p)
            # take Cartier representatives then substitute at level p*n
            other = (substitution_map(f, p * n, i)
                     @ cartier_rep_matrix(r, n, i, p)).mod(p)
            assert (modp_class_matrix(target, i, one).mod(p)
                    == modp_class_matrix(target, i, other).mod(p))


class TestExpress:
    def test_integral_express_roundtrip(self):
        # per block: the Smith-adapted generators are a basis of the integer
        # cocycles, the Smith entries times the generators span the
        # coboundaries, and every generator expresses as its unit vector;
        # H^i is isomorphic to the group of the blocks' entries (it keeps
        # only the invariant factors and the free generators)
        for r in range(4):
            for n in range(11):
                H = integral_cohomology(r, n)
                for i in range(H.top + 1):
                    entries = []
                    for blk in koszul_blocks(r, n):
                        if i > len(blk.weights):
                            continue
                        d_in, d_out = blk.d(i - 1), blk.d(i)
                        G, gens = homology_at(d_in, d_out)
                        diag = G.entries
                        entries += diag
                        assert (hnf(gens)[0]
                                == hnf(kernel_basis(d_out))[0]), (r, n, i)
                        spans = IntMatrix.from_columns(
                            [[e * v for v in gens.col(t)]
                             for t, e in enumerate(diag)], gens.nrows)
                        assert lattice(spans) == lattice(d_in), (r, n, i)
                        for j in range(gens.ncols):
                            unit = tuple(int(t == j)
                                         for t in range(gens.ncols))
                            assert lattice_solve(gens, gens.col(j)) == unit
                    assert H.group(i).diagonal == tuple(
                        d for d in FgAbGroup(entries).diagonal if d != 1), \
                        (r, n, i)

    def test_modp_express_rejects_non_cocycle(self):
        # x^2 has d(x^2) = 2x dx = 0 mod 2, so pick a genuine non-cocycle
        # in degree 0 at p = 3 instead: x^2, the one cell of block (2, 0)
        mp3 = modp_cohomology(2, 2, 3)
        blk = koszul_blocks(2, 2)[0]
        assert blk.beta == (2, 0)
        assert block_cells(blk, 0) == (0,)
        assert block_modp_homology(blk.key, 3)[0].express(
            blk.transport.forward[0].apply((1,))) is None
        with pytest.raises(ValueError):
            modp_class_matrix(mp3, 0, IntMatrix([[1], [0], [0]]))

    def test_modp_express_rejects_wrong_length(self):
        # one coordinate per block cell: extra entries are not dropped and
        # missing ones do not read as 0 (block (2, 2) of (2, 4), degree 1)
        (blk,) = [blk for blk in koszul_blocks(2, 4) if blk.beta == (2, 2)]
        deg = block_modp_homology(blk.key, 2)[1]
        assert deg.dim_cochain == 2
        for z in ((0, 0, 5, 5, 5), (5,)):
            with pytest.raises(ValueError):
                deg.express(z)

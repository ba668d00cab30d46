"""Integral and mod-p cohomology of the de Rham complex, with lifts.

Generator lifts are retained for every group so induced maps (Frobenius,
connecting maps) can be computed later against the same identifications;
results are cached per (r, n) and (r, n, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import modp
from .abgroups import FgAbGroup, Homomorphism, homology_at
from .derham import (
    basis,
    cartier_rep_matrix,
    complex_z,
    dim_formula,
    koszul_blocks,
)
from .intlinalg import IntMatrix, place_blocks, snf, unimodular_inverse
from .modp import check_prime


@dataclass(frozen=True)
class HDegree:
    i: int
    group: FgAbGroup
    lift: IntMatrix          # cochain representatives of the generators


@dataclass(frozen=True)
class CohomologyResult:
    r: int
    n: int
    degrees: tuple

    @property
    def top(self) -> int:
        return len(self.degrees) - 1

    def group(self, i: int) -> FgAbGroup:
        if 0 <= i <= self.top:
            return self.degrees[i].group
        return FgAbGroup.zero()

    def lift(self, i: int) -> IntMatrix:
        if 0 <= i <= self.top:
            return self.degrees[i].lift
        return IntMatrix.zeros(dim_formula(self.r, self.n, i), 0)

    def express(self, i: int, z: Sequence[int]) -> tuple:
        """Class coordinates of an integer cocycle on the stored generators."""
        from .intlinalg import lattice_solve

        y = lattice_solve(self.lift(i), z)
        if y is None:
            raise ValueError(f"not a cocycle in degree {i}")
        return y


@lru_cache(maxsize=None)
def integral_cohomology(r: int, n: int) -> CohomologyResult:
    """H^i over Z for every degree of the total-degree-n complex.

    The complex is the direct sum of its multidegree blocks
    (derham.koszul_blocks), so H^i is the sum of the blocks' H^i, each from
    smith_homology on the block's own differentials.  H^i is presented by
    the square diagonal matrix of the Smith entries, and the lift columns
    (each block's generators at its global indices, blocks in basis order)
    are a basis of the integer cocycles.
    """
    blocks = koszul_blocks(r, n)
    degrees = []
    for i in range(min(n, r) + 1):
        diag = []
        placed = []          # (global rows, generator columns) per block
        for blk in blocks:
            if i >= len(blk.cells):
                continue
            entries, gens = smith_homology(blk.d(i - 1), blk.d(i))
            if not gens.ncols:
                continue
            diag += entries
            placed.append((blk.cells[i], gens))
        lift = place_blocks(placed, dim_formula(r, n, i), len(diag))
        degrees.append(HDegree(i, FgAbGroup.from_diagonal(diag), lift))
    return CohomologyResult(r, n, tuple(degrees))


def smith_homology(d_in: IntMatrix, d_out: IntMatrix):
    """ker(d_out) / im(d_in) over Z on Smith-adapted generators.

    Returns (entries, gens): generator t has order entries[t] (0 for a free
    one, 1 for a trivial one), and the columns of gens are cochain
    representatives, a basis of ker(d_out).  homology_at checks d∘d = 0.
    """
    G, K = homology_at(d_in, d_out)
    if not K.ncols:
        return [], K
    S, U, _ = snf(G.relations)
    entries = [S[t, t] for t in range(min(S.shape))]
    entries += [0] * (K.ncols - min(S.shape))
    return entries, K @ unimodular_inverse(U)


class ModpDegree:
    """Cocycles, coboundaries and chosen class representatives in one degree."""

    __slots__ = ("i", "dim_cochain", "cocycles", "coboundaries", "reps",
                 "dim", "_solver", "_p")

    def __init__(self, i, dim_cochain, cocycles, coboundaries, reps, p):
        self.i = i
        self.dim_cochain = dim_cochain
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.reps = reps
        self.dim = len(reps)
        self._p = p
        self._solver = None

    def rep_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(list(self.reps), self.dim_cochain)

    def express(self, z: Sequence[int]) -> Optional[tuple]:
        """Class coordinates of a mod-p cocycle, or None if z is no cocycle."""
        if self._solver is None:
            cols = list(self.reps) + list(self.coboundaries)
            self._solver = modp.Solver(
                IntMatrix.from_columns(cols, self.dim_cochain), self._p)
        sol = self._solver.solve([v % self._p for v in z])
        if sol is None:
            return None
        return sol[: self.dim]


def modp_homology(i: int, d_in: IntMatrix, d_out: IntMatrix,
                  p: int) -> ModpDegree:
    """ker(d_out) / im(d_in) over the p-element field, in one degree.

    The class representatives are the cocycles that greedily extend a basis
    of the coboundaries; this is the one builder of mod-p subquotients, used
    for mod-p cohomology and for every derived Bockstein page.
    """
    if not (d_out @ d_in).mod(p).is_zero():
        raise ValueError("d_out @ d_in is nonzero mod p: not a complex")
    cocycles = modp.nullspace(d_out, p)
    coboundaries, _ = modp.image_basis(d_in.mod(p), p)
    added = modp.complete_basis(coboundaries, cocycles, p)
    reps = tuple(cocycles[k] for k in added)
    return ModpDegree(i, d_out.ncols, tuple(cocycles), tuple(coboundaries),
                      reps, p)


class ModpDegreeSum:
    """A direct sum of mod-p subquotients in one degree.

    parts holds (indices, summand) pairs: the summand's cochain coordinates
    are the entries at indices of a dim_cochain vector, and class
    coordinates are the summands' coordinates concatenated in part order.
    The indices of the parts partition range(dim_cochain).
    """

    __slots__ = ("i", "dim_cochain", "parts", "dim", "_p", "_part_of",
                 "_offsets")

    def __init__(self, i, dim_cochain, parts, p):
        self.i = i
        self.dim_cochain = dim_cochain
        self.parts = tuple(parts)
        self._offsets = []
        self.dim = 0
        for _, st in self.parts:
            self._offsets.append(self.dim)
            self.dim += st.dim
        self._p = p
        self._part_of = None

    def _embedded(self, attr: str) -> tuple:
        out = []
        for idx, st in self.parts:
            for v in getattr(st, attr):
                full = [0] * self.dim_cochain
                for g, x in zip(idx, v):
                    full[g] = x
                out.append(tuple(full))
        return tuple(out)

    @property
    def reps(self) -> tuple:
        return self._embedded("reps")

    @property
    def cocycles(self) -> tuple:
        return self._embedded("cocycles")

    @property
    def coboundaries(self) -> tuple:
        return self._embedded("coboundaries")

    def rep_matrix(self) -> IntMatrix:
        return place_blocks([(idx, st.rep_matrix()) for idx, st in self.parts],
                            self.dim_cochain, self.dim)

    def express(self, z: Sequence[int]) -> Optional[tuple]:
        """Class coordinates of a mod-p cocycle, or None if z is no cocycle;
        solved only in the parts where z is nonzero mod p."""
        if self._part_of is None:
            self._part_of = [None] * self.dim_cochain
            for t, (idx, _) in enumerate(self.parts):
                for g in idx:
                    self._part_of[g] = t
        p = self._p
        coords = [0] * self.dim
        for t in {self._part_of[g] for g, v in enumerate(z) if v % p}:
            idx, st = self.parts[t]
            part = st.express([z[g] for g in idx])
            if part is None:
                return None
            coords[self._offsets[t]:self._offsets[t] + st.dim] = part
        return tuple(coords)


class ModpCohomologyResult:
    """dim H^i = dim Z^i - dim B^i over the p-element field, per degree.

    block_degrees[b][i] is H^i of the Koszul block blocks[b], and degrees[i]
    is the direct sum of the blocks' H^i, blocks in basis order.
    """

    def __init__(self, r, n, p, blocks, block_degrees):
        self.r = r
        self.n = n
        self.p = p
        self.blocks = tuple(blocks)
        self.block_degrees = tuple(block_degrees)
        self.degrees = tuple(
            ModpDegreeSum(i, dim_formula(r, n, i),
                          [(blk.cells[i], bd[i]) for blk, bd
                           in zip(self.blocks, self.block_degrees)
                           if i < len(bd)], p)
            for i in range(min(n, r) + 1))

    @property
    def top(self) -> int:
        return len(self.degrees) - 1

    def degree(self, i: int) -> ModpDegreeSum:
        if 0 <= i <= self.top:
            return self.degrees[i]
        return ModpDegreeSum(i, dim_formula(self.r, self.n, i), (), self.p)

    def dim(self, i: int) -> int:
        return self.degree(i).dim

    @property
    def dims(self) -> tuple:
        return tuple(d.dim for d in self.degrees)

    def express(self, i: int, z: Sequence[int]) -> Optional[tuple]:
        return self.degree(i).express(z)


@lru_cache(maxsize=None)
def modp_cohomology(r: int, n: int, p: int) -> ModpCohomologyResult:
    """Cohomology of the complex tensored with Z/p, block by block.

    Each block's H^i comes from modp_homology on the block's own
    differentials, once per distinct differentials (blocks with the same
    ordered nonzero weights share them).
    """
    check_prime(p)
    blocks = koszul_blocks(r, n)
    by_diffs = {}
    for blk in blocks:
        if blk.differentials not in by_diffs:
            by_diffs[blk.differentials] = tuple(
                modp_homology(i, blk.d(i - 1), blk.d(i), p)
                for i in range(len(blk.cells)))
    return ModpCohomologyResult(
        r, n, p, blocks, [by_diffs[blk.differentials] for blk in blocks])


def cocycle_dim(r: int, n: int, i: int, p: int) -> int:
    """Dimension of the mod-p cocycle space in one degree: the cochain
    dimension minus the mod-p ranks of the blocks' d^i."""
    check_prime(p)
    return dim_formula(r, n, i) - sum(modp.rank(blk.d(i), p)
                                      for blk in koszul_blocks(r, n))


def class_matrix(express: Callable[[Sequence[int]], Optional[tuple]],
                 cochain_cols: IntMatrix, dim: int):
    """Class coordinates of each cochain column, as columns of a dim-row
    matrix.

    Returns (matrix, None), or (None, j) for the first column j that
    express maps to None.
    """
    cols = []
    for j, col in enumerate(cochain_cols.columns()):
        coords = express(col)
        if coords is None:
            return None, j
        cols.append(coords)
    return IntMatrix.from_columns(cols, dim), None


def modp_class_matrix(target: ModpCohomologyResult, i: int,
                      cochain_cols: IntMatrix) -> IntMatrix:
    """Classes of mod-p cocycle columns, as a matrix over the target H^i."""
    deg = target.degree(i)
    matrix, failed = class_matrix(deg.express, cochain_cols, deg.dim)
    if matrix is None:
        raise ValueError(
            f"column {failed} is not a mod-p cocycle in degree {i}")
    return matrix


def cartier_iso(r: int, n: int, i: int, p: int) -> Homomorphism:
    """The map of the cited isomorphism on mod-p groups, certified bijective.

    Sends the full space of forms in degree (n, i) to H^i of total degree
    p*n mod p, via the cochain representative x -> x^p, dx -> x^(p-1) dx.
    Raises if the result is not bijective, which would falsify the
    implementation rather than the statement.
    """
    check_prime(p)
    C = cartier_rep_matrix(r, n, i, p)
    tgt_cpx = complex_z(r, p * n)
    if not (tgt_cpx.d(i) @ C).mod(p).is_zero():
        raise RuntimeError("representative columns are not mod-p cocycles")
    target = modp_cohomology(r, p * n, p)
    matrix = modp_class_matrix(target, i, C)
    src_dim = basis(r, n, i).dim
    source = FgAbGroup.elementary(p, src_dim)
    tgt_group = FgAbGroup.elementary(p, target.dim(i))
    hom = Homomorphism(source, tgt_group, matrix.mod(p))
    if target.dim(i) != src_dim or modp.rank(matrix, p) != src_dim:
        raise RuntimeError(
            f"cartier map not bijective at (r={r}, n={n}, i={i}, p={p}): "
            f"dims {src_dim} vs {target.dim(i)}")
    return hom

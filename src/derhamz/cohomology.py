"""Integral and mod-p cohomology of the de Rham complex, block by block.

Both are direct sums over the multidegree blocks of the complex
(derham.koszul_blocks); results are cached per (r, n) and (r, n, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import modp
from .abgroups import FgAbGroup, Homomorphism, homology_at
from .derham import block_multiples, dim_formula, koszul_blocks
from .intlinalg import IntMatrix, place_blocks, snf, unimodular_inverse
from .modp import check_prime


@dataclass(frozen=True)
class HDegree:
    i: int
    group: FgAbGroup


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


@lru_cache(maxsize=None)
def integral_cohomology(r: int, n: int) -> CohomologyResult:
    """H^i over Z for every degree of the total-degree-n complex.

    The complex is the direct sum of its multidegree blocks
    (derham.koszul_blocks), so H^i is the sum of the blocks' H^i, each from
    smith_homology on the block's own differentials, once per distinct
    differentials.  H^i is presented by the square diagonal matrix of the
    Smith entries, blocks in basis order; smith_homology on a block gives
    that block's generators.
    """
    blocks = koszul_blocks(r, n)
    entries = {}             # per distinct differentials, per degree
    for blk in blocks:
        if blk.differentials not in entries:
            entries[blk.differentials] = [
                smith_homology(blk.d(i - 1), blk.d(i))[0]
                for i in range(len(blk.cells))]
    degrees = []
    for i in range(min(n, r) + 1):
        diag = [e for blk in blocks if i < len(blk.cells)
                for e in entries[blk.differentials][i]]
        degrees.append(HDegree(i, FgAbGroup.from_diagonal(diag)))
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

    __slots__ = ("i", "dim_cochain", "parts", "dim", "_p", "_offsets")

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

    def express(self, z: Sequence[int]) -> Optional[tuple]:
        """Class coordinates of a mod-p cocycle, or None if z is no cocycle;
        solved only in the parts where z is nonzero mod p."""
        p = self._p
        coords = [0] * self.dim
        for (idx, st), offset in zip(self.parts, self._offsets):
            part = [z[g] for g in idx]
            if any(v % p for v in part):
                part = st.express(part)
                if part is None:
                    return None
                coords[offset:offset + st.dim] = part
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


def cartier_blocks(r: int, n: int, i: int, p: int):
    """The inverse Cartier map in degree i on each distinct block pair,
    certified bijective.

    In block coordinates the representative x -> x^p, dx -> x^(p-1) dx is
    the identity from block beta of total degree n to block p*beta of
    degree p*n (derham.block_multiples), so the map of a pair sends the
    unit cochains of p*beta to their mod-p classes.  Checks, once per
    distinct pair, that those cochains are mod-p cocycles and that their
    classes are a basis of the block's H^i, and on every other block of
    degree p*n, whose weight has an entry prime to p, that its mod-p H^i
    vanishes.

    Returns a dict from a block's differentials to its class matrix.
    Raises RuntimeError when a check fails, which would falsify the
    implementation rather than the statement.
    """
    check_prime(p)
    target = modp_cohomology(r, p * n, p)
    blocks = koszul_blocks(r, n)
    images, others = block_multiples(blocks, target.blocks, p)
    where = f"(r={r}, n={n}, i={i}, p={p})"
    matrices = {}
    for blk, c in zip(blocks, images):
        if blk.differentials in matrices or i >= len(blk.cells):
            continue
        image = target.blocks[c]
        if not image.d(i).mod(p).is_zero():
            raise RuntimeError(f"representative columns are not mod-p "
                               f"cocycles at {where}, block {image.beta}")
        deg = target.block_degrees[c][i]
        cells = len(blk.cells[i])
        matrix, _ = class_matrix(deg.express, IntMatrix.identity(cells),
                                 deg.dim)
        if deg.dim != cells or matrix is None or \
                modp.rank(matrix, p) != cells:
            raise RuntimeError(
                f"cartier map not bijective at {where}, block {image.beta}: "
                f"dims {cells} vs {deg.dim}")
        matrices[blk.differentials] = matrix
    for c in others:
        degs = target.block_degrees[c]
        if i < len(degs) and degs[i].dim:
            raise RuntimeError(
                f"mod-p H^{i} of block {target.blocks[c].beta} at {where} "
                f"is nonzero, though p does not divide its weight")
    return matrices


def cartier_iso(r: int, n: int, i: int, p: int) -> Homomorphism:
    """The map of the cited isomorphism on mod-p groups, certified bijective.

    Sends the full space of forms in degree (n, i) to H^i of total degree
    p*n mod p, via the cochain representative x -> x^p, dx -> x^(p-1) dx:
    the direct sum of the block maps of cartier_blocks, which raises if
    one is not bijective.
    """
    matrices = cartier_blocks(r, n, i, p)
    # the blocks p*beta are in basis order and the other blocks have no
    # classes, so the blocks' classes follow each other
    placed = [(blk.cells[i], matrices[blk.differentials].transpose())
              for blk in koszul_blocks(r, n) if i < len(blk.cells)]
    src_dim = dim_formula(r, n, i)
    dim = modp_cohomology(r, p * n, p).dim(i)
    return Homomorphism(FgAbGroup.elementary(p, src_dim),
                        FgAbGroup.elementary(p, dim),
                        place_blocks(placed, src_dim, dim).transpose())

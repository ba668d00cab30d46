"""Integral and mod-p cohomology of the de Rham complex, block by block.

Both are direct sums over the multidegree blocks of the complex
(derham.koszul_blocks).  Per-block results are cached by the block's ordered
nonzero weights (KoszulBlock.weights), shared by every (r, n): block_homology
by the weights, block_modp_homology and _cartier_block by the weights and
p.  The assembled results are cached per (r, n) and (r, n, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from . import modp
from .abgroups import FgAbGroup, Homomorphism, homology_at
from .derham import block_multiples, dim_formula, koszul_blocks, koszul_d
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
    (derham.koszul_blocks), so H^i is the sum of the blocks' H^i
    (block_homology).  H^i is presented by the square diagonal matrix of
    the Smith entries, blocks in basis order; block_homology gives each
    block's generators.
    """
    blocks = koszul_blocks(r, n)
    degrees = []
    for i in range(min(n, r) + 1):
        diag = [e for blk in blocks if i < len(blk.cells)
                for e in block_homology(blk.weights)[i].entries]
        degrees.append(HDegree(i, FgAbGroup.from_diagonal(diag)))
    return CohomologyResult(r, n, tuple(degrees))


class BlockHomology(NamedTuple):
    """H^i over Z of one block: smith_homology's entries and gens."""
    entries: tuple
    gens: IntMatrix

    @property
    def group(self) -> FgAbGroup:
        """Presented by the square diagonal of the entries."""
        return FgAbGroup.from_diagonal(self.entries)


@lru_cache(maxsize=None)
def block_homology(weights: tuple) -> tuple:
    """H^0 .. H^s over Z of the Koszul block of the s ordered nonzero
    weights, as BlockHomology from smith_homology on the block d."""
    return tuple(BlockHomology(*smith_homology(koszul_d(weights, i - 1),
                                              koszul_d(weights, i)))
                 for i in range(len(weights) + 1))


def smith_homology(d_in: IntMatrix, d_out: IntMatrix):
    """ker(d_out) / im(d_in) over Z on Smith-adapted generators.

    Returns (entries, gens): generator t has order entries[t] (0 for a free
    one, 1 for a trivial one), and the columns of gens are cochain
    representatives, a basis of ker(d_out).  homology_at checks d∘d = 0.
    """
    G, K = homology_at(d_in, d_out)
    if not K.ncols:
        return (), K
    S, U, _ = snf(G.relations)
    entries = tuple(S[t, t] for t in range(min(S.shape)))
    entries += (0,) * (K.ncols - min(S.shape))
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
    """Cohomology of the complex tensored with Z/p: each block's H^i is
    block_modp_homology of its weights."""
    check_prime(p)
    blocks = koszul_blocks(r, n)
    return ModpCohomologyResult(
        r, n, p, blocks, [block_modp_homology(blk.weights, p)
                          for blk in blocks])


@lru_cache(maxsize=None)
def block_modp_homology(weights: tuple, p: int) -> tuple:
    """H^0 .. H^s over the p-element field of the Koszul block of the s
    ordered nonzero weights, each a ModpDegree from modp_homology."""
    return tuple(modp_homology(i, koszul_d(weights, i - 1),
                               koszul_d(weights, i), p)
                 for i in range(len(weights) + 1))


def cocycle_dim(r: int, n: int, i: int, p: int) -> int:
    """Dimension of the mod-p cocycle space in one degree: the sum of the
    blocks' mod-p cocycle counts."""
    return sum(len(degs[i].cocycles)
               for degs in modp_cohomology(r, n, p).block_degrees
               if 0 <= i < len(degs))


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


def cartier_blocks(r: int, n: int, i: int, p: int) -> list:
    """The inverse Cartier map in degree i on each block, certified
    bijective.

    In block coordinates the representative x -> x^p, dx -> x^(p-1) dx is
    the identity from block beta of total degree n to block p*beta of
    degree p*n (derham.block_multiples); _cartier_block gives the map of a
    pair.  Also checks, on every other block of degree p*n, whose weight
    has an entry prime to p, that its mod-p H^i vanishes.

    Returns per block its class matrix, None above the block's top degree.
    Raises RuntimeError when a check fails, which would falsify the
    implementation rather than the statement.
    """
    check_prime(p)
    target = modp_cohomology(r, p * n, p)
    blocks = koszul_blocks(r, n)
    matrices = [_cartier_block(blk.weights, i, p)
                if i < len(blk.cells) else None for blk in blocks]
    _, others = block_multiples(blocks, target.blocks, p)
    for c in others:
        degs = target.block_degrees[c]
        if i < len(degs) and degs[i].dim:
            raise RuntimeError(
                f"mod-p H^{i} of block {target.blocks[c].beta} at "
                f"(r={r}, n={n}, i={i}, p={p}) is nonzero, though p does not "
                f"divide its weight")
    return matrices


@lru_cache(maxsize=None)
def _cartier_block(weights: tuple, i: int, p: int) -> IntMatrix:
    """The class matrix of the unit cochains of the block of p*w in its
    mod-p H^i, checked to be cocycles whose classes are a basis."""
    multiple = tuple(p * w for w in weights)
    where = f"block of weights {multiple}, i={i}, p={p}"
    if not koszul_d(multiple, i).mod(p).is_zero():
        raise RuntimeError(
            f"representative columns are not mod-p cocycles on the {where}")
    deg = block_modp_homology(multiple, p)[i]
    cells = deg.dim_cochain
    matrix, _ = class_matrix(deg.express, IntMatrix.identity(cells), deg.dim)
    if deg.dim != cells or matrix is None or modp.rank(matrix, p) != cells:
        raise RuntimeError(f"cartier map not bijective on the {where}: "
                           f"dims {cells} vs {deg.dim}")
    return matrix


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
    placed = [(blk.cells[i], M.transpose())
              for blk, M in zip(koszul_blocks(r, n), matrices)
              if M is not None]
    src_dim = dim_formula(r, n, i)
    dim = modp_cohomology(r, p * n, p).dim(i)
    return Homomorphism(FgAbGroup.elementary(p, src_dim),
                        FgAbGroup.elementary(p, dim),
                        place_blocks(placed, src_dim, dim).transpose())

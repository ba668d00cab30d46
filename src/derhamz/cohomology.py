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
from typing import NamedTuple, Optional, Sequence

from . import modp
from .abgroups import FgAbGroup, class_matrix, homology_at
from .derham import block_pairs, koszul_blocks, koszul_d
from .intlinalg import IntMatrix, hstack
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
    (block_homology).  H^i is the group of the blocks' Smith entries,
    blocks in basis order; block_homology gives each block's generators.
    """
    blocks = koszul_blocks(r, n)
    degrees = []
    for i in range(min(n, r) + 1):
        entries = [e for blk in blocks if i <= len(blk.weights)
                   for e in block_homology(blk.weights)[i].group.entries]
        degrees.append(HDegree(i, FgAbGroup(entries)))
    return CohomologyResult(r, n, tuple(degrees))


class BlockHomology(NamedTuple):
    """H^i over Z of one block, as homology_at gives it: generator t of
    group has order group.entries[t] and cochain representative gens[:, t]."""
    group: FgAbGroup
    gens: IntMatrix


@lru_cache(maxsize=None)
def block_homology(weights: tuple) -> tuple:
    """H^0 .. H^s over Z of the Koszul block of the s ordered nonzero
    weights, as BlockHomology from homology_at on the block d."""
    return tuple(BlockHomology(*homology_at(koszul_d(weights, i - 1),
                                           koszul_d(weights, i)))
                 for i in range(len(weights) + 1))


class ModpDegree:
    """Cocycles and chosen class representatives in one degree.

    The representatives are read off one row reduction (modp.Solver) of
    [d_in | cocycles] mod p: its pivot columns are a basis of the
    coboundaries among the columns of d_in, then the representatives, the
    cocycles that greedily extend it.
    """

    __slots__ = ("dim_cochain", "cocycles", "reps", "dim", "_solver",
                 "_rep_columns")

    def __init__(self, d_in: IntMatrix, cocycles: tuple, p: int):
        self.dim_cochain = d_in.nrows
        self.cocycles = cocycles
        self._solver = modp.Solver(
            hstack(d_in, IntMatrix.from_columns(cocycles, d_in.nrows)), p)
        k = d_in.ncols
        self._rep_columns = tuple(c for c, _ in self._solver.rows
                                  if c is not None and c >= k)
        self.reps = tuple(cocycles[c - k] for c in self._rep_columns)
        self.dim = len(self.reps)

    def rep_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(list(self.reps), self.dim_cochain)

    def express(self, z: Sequence[int]) -> Optional[tuple]:
        """Class coordinates of a mod-p cocycle, or None if z is no cocycle."""
        sol = self._solver.solve([v % self._solver.p for v in z])
        if sol is None:
            return None
        return tuple(sol[c] for c in self._rep_columns)


def modp_homology(d_in: IntMatrix, d_out: IntMatrix, p: int) -> ModpDegree:
    """ker(d_out) / im(d_in) over the p-element field, in one degree.

    The class representatives are the cocycles that greedily extend a basis
    of the coboundaries; this is the one builder of mod-p subquotients, used
    for mod-p cohomology and for every derived Bockstein page.
    """
    if not (d_out @ d_in).mod(p).is_zero():
        raise ValueError("d_out @ d_in is nonzero mod p: not a complex")
    return ModpDegree(d_in, tuple(modp.nullspace(d_out, p)), p)


@dataclass(frozen=True)
class ModpCohomologyResult:
    """Mod-p cohomology, the direct sum of its Koszul blocks' cohomology.

    block_degrees[b][i] is H^i of the block blocks[b] over the p-element
    field, and dims[i] = dim Z^i - dim B^i is the dimension of the sum."""
    r: int
    n: int
    p: int
    blocks: tuple
    block_degrees: tuple
    dims: tuple


@lru_cache(maxsize=None)
def modp_cohomology(r: int, n: int, p: int) -> ModpCohomologyResult:
    """Cohomology of the complex tensored with Z/p: each block's H^i is
    block_modp_homology of its weights."""
    check_prime(p)
    blocks = koszul_blocks(r, n)
    degs = tuple(block_modp_homology(blk.weights, p) for blk in blocks)
    dims = tuple(sum(bd[i].dim for bd in degs if i < len(bd))
                 for i in range(min(n, r) + 1))
    return ModpCohomologyResult(r, n, p, blocks, degs, dims)


@lru_cache(maxsize=None)
def block_modp_homology(weights: tuple, p: int) -> tuple:
    """H^0 .. H^s over the p-element field of the Koszul block of the s
    ordered nonzero weights, each a ModpDegree from modp_homology."""
    return tuple(modp_homology(koszul_d(weights, i - 1),
                               koszul_d(weights, i), p)
                 for i in range(len(weights) + 1))


def cocycle_dim(r: int, n: int, i: int, p: int) -> int:
    """Dimension of the mod-p cocycle space in one degree: the sum of the
    blocks' mod-p cocycle counts."""
    return sum(len(degs[i].cocycles)
               for degs in modp_cohomology(r, n, p).block_degrees
               if 0 <= i < len(degs))


def cartier_iso(r: int, n: int, i: int, p: int) -> list:
    """The inverse Cartier map from the mod-p forms of degree (n, i) to
    mod-p H^i of total degree p*n, block by block, certified bijective.

    In block coordinates the representative x -> x^p, dx -> x^(p-1) dx is
    the identity from block beta of total degree n to block p*beta of
    degree p*n (derham.block_pairs); _cartier_block gives the map of a
    pair.  Also checks, on every other block of degree p*n, whose weight
    has an entry prime to p, that its mod-p H^i vanishes.

    Returns per block beta of koszul_blocks(r, n) the class matrix of its
    degree-i cells in block p*beta, None outside the block's degrees.
    Raises RuntimeError when a check fails, which would falsify the
    implementation rather than the statement.
    """
    check_prime(p)
    target = modp_cohomology(r, p * n, p)
    blocks = koszul_blocks(r, n)
    matrices = [_cartier_block(blk.weights, i, p)
                if 0 <= i <= len(blk.weights) else None for blk in blocks]
    _, others = block_pairs(blocks, target.blocks, p)
    for c in others:
        degs = target.block_degrees[c]
        if 0 <= i < len(degs) and degs[i].dim:
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

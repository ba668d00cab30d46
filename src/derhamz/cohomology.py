"""Integral and mod-p cohomology of the de Rham complex, block by block.

Both are direct sums over the multidegree blocks of the complex.  Blocks
of one key (gcd and number of the nonzero weights) are isomorphic
complexes: the certified exterior-power transport derham.transport carries
the block of any ordered weights onto the canonical block of its key,
whose weights are (g, 0, ..., 0).  So each per-block result is computed
once per key, on the canonical block: block_homology by the key,
block_modp_homology and _cartier_block by the key and p.  Every result
stays in the canonical coordinates: class coordinates (group entries,
mod-p classes) need no transport, and a cochain of a block is moved onto
the canonical block by forward[i] of the block's transport where it enters
(cartier_iso, whose class matrices are cached per ordered weights).  Mod-p
homology is built once per distinct residues of its two differentials
(modp_homology), so keys whose blocks agree mod p share it.  Integral and
mod-p cohomology read only how many blocks each key has
(derham.block_counts); cartier_iso walks the distinct ordered weights
(derham.ordered_weights and weight_pairs).  Integral cohomology is cached
per (r, n); mod-p cohomology sums the per-key dims on each call.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import modp
from .abgroups import FgAbGroup, class_matrix, homology_at, smith_group
from .derham import (
    block_counts,
    block_key,
    canonical_weights,
    first_block,
    first_blocks,
    koszul_d,
    transport,
    weight_pairs,
)
from .intlinalg import IntMatrix, hstack
from .modp import check_prime


class HDegree(NamedTuple):
    i: int
    group: FgAbGroup


class CohomologyResult(NamedTuple):
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

    The complex is the direct sum of its multidegree blocks, so H^i is
    the sum of the blocks' H^i.  A block's H^i is the group of its key
    (block_homology), so H^i only
    needs the number of blocks of each key (derham.block_counts), and is
    the group of its Smith diagonal (abgroups.smith_group): the invariant
    factors, then the free generators.  No block is enumerated and no
    transport is needed.
    """
    counts = block_counts(r, n)
    degrees = []
    for i in range(min(n, r) + 1):
        entries = Counter()
        for key, count in counts.items():
            if i <= key[1]:
                for e in block_homology(key)[i].group.entries:
                    entries[e] += count
        degrees.append(HDegree(i, smith_group(entries)))
    return CohomologyResult(r, n, tuple(degrees))


class BlockHomology(NamedTuple):
    """H^i over Z of one block, as homology_at gives it: generator t of
    group has order group.entries[t] and cochain representative gens[:, t]."""
    group: FgAbGroup
    gens: IntMatrix


@lru_cache(maxsize=None)
def block_homology(key: tuple) -> tuple:
    """H^0 .. H^s over Z of the canonical block of the key (g, s), as
    BlockHomology from homology_at on the block d.  The block of ordered
    weights w of the key has the same groups, generated by
    transport(w).backward[i] @ gens."""
    weights = canonical_weights(key)
    d = [koszul_d(weights, i) for i in range(-1, key[1] + 1)]
    return tuple(BlockHomology(*homology_at(d_in, d_out))
                 for d_in, d_out in zip(d, d[1:]))


class ModpDegree:
    """Cocycles and chosen class representatives in one degree.

    The representatives are read off one row reduction (modp.Solver) of
    [d_in | cocycles] mod p: its pivot columns are a basis of the
    coboundaries among the columns of d_in, then the representatives, the
    cocycles that greedily extend it.
    """

    __slots__ = ("p", "dim_cochain", "cocycles", "reps", "dim", "_solver",
                 "_rep_columns")

    def __init__(self, d_in: IntMatrix, cocycles: tuple, p: int):
        self.p = p
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
        sol = self._solver.solve([v % self.p for v in z])
        if sol is None:
            return None
        return tuple(sol[c] for c in self._rep_columns)


def modp_homology(d_in: IntMatrix, d_out: IntMatrix, p: int) -> ModpDegree:
    """ker(d_out) / im(d_in) over the p-element field, in one degree.

    The class representatives are the cocycles that greedily extend a basis
    of the coboundaries; this is the one builder of mod-p subquotients, used
    for mod-p cohomology and for every derived Bockstein page.  Everything
    a ModpDegree holds is a residue, so one is built per distinct residues
    (_modp_degree): blocks whose d agree mod p share it.
    """
    return _modp_degree(d_in.mod(p), d_out.mod(p), p)


@lru_cache(maxsize=None)
def _modp_degree(d_in: IntMatrix, d_out: IntMatrix, p: int) -> ModpDegree:
    """The ModpDegree of d_in and d_out, reduced mod p; keyed like the
    tower levels and key pairs that ask for it."""
    if not (d_out @ d_in).mod(p).is_zero():
        raise ValueError("d_out @ d_in is nonzero mod p: not a complex")
    return ModpDegree(d_in, tuple(modp.nullspace(d_out, p)), p)


class ModpCohomologyResult(NamedTuple):
    """Mod-p cohomology, the direct sum of its Koszul blocks' cohomology.

    H^i of a block over the p-element field is block_modp_homology of its
    key, and dims[i] = dim Z^i - dim B^i is the dimension of the sum."""
    r: int
    n: int
    p: int
    dims: tuple


def modp_cohomology(r: int, n: int, p: int) -> ModpCohomologyResult:
    """Cohomology of the complex tensored with Z/p: each block's H^i is
    block_modp_homology of its key, so the dims sum over the keys, each
    weighted by its number of blocks (derham.block_counts)."""
    check_prime(p)
    counts = block_counts(r, n)
    dims = tuple(sum(count * block_modp_homology(key, p)[i].dim
                     for key, count in counts.items() if i <= key[1])
                 for i in range(min(n, r) + 1))
    return ModpCohomologyResult(r, n, p, dims)


@lru_cache(maxsize=None)
def block_modp_homology(key: tuple, p: int) -> tuple:
    """H^0 .. H^s over the p-element field of the canonical block of the
    key (g, s), each a ModpDegree from modp_homology."""
    weights = canonical_weights(key)
    d = [koszul_d(weights, i) for i in range(-1, key[1] + 1)]
    return tuple(modp_homology(d_in, d_out, p)
                 for d_in, d_out in zip(d, d[1:]))


def cocycle_dim(r: int, n: int, i: int, p: int) -> int:
    """Dimension of the mod-p cocycle space in one degree: the sum of the
    blocks' mod-p cocycle counts, read on the canonical block of each key
    and weighted by its number of blocks (derham.block_counts)."""
    check_prime(p)
    return sum(count * len(block_modp_homology(key, p)[i].cocycles)
               for key, count in block_counts(r, n).items()
               if 0 <= i <= key[1])


def cartier_iso(r: int, n: int, i: int, p: int) -> dict:
    """The inverse Cartier map from the mod-p forms of degree (n, i) to
    mod-p H^i of total degree p*n, block by block, certified bijective.

    In block coordinates the representative x -> x^p, dx -> x^(p-1) dx is
    the identity from block beta of total degree n to block p*beta of
    degree p*n (derham.weight_pairs).  _cartier_block certifies it on the
    canonical pair of the key: its unit cochains are cocycles whose classes
    are a basis.  The map of a block is then the classes of its unit
    cochains in block p*beta's mod-p H^i: the columns of forward[i] of the
    transport that beta and p*beta share, expressed on H^i of the canonical
    block of p*beta's key, once per ordered weights, i and p, whatever r
    (_cartier_classes; blocks of equal weights are the same complex).
    Also checks, on every other block of degree p*n, whose weight has an
    entry prime to p, that its mod-p H^i vanishes, on the canonical block
    of its key.

    Returns, per ordered weights w of derham.ordered_weights(r, n) with a
    degree i, the class matrix of the degree-i cells of a block of weights
    w in block p*beta.  Raises RuntimeError when a check fails, which
    would falsify the implementation rather than the statement; the error
    names the first block (w, 0, ..., 0) of the weights.
    """
    check_prime(p)
    pairs, others = weight_pairs(r, n, p)
    matrices = {}
    for weights, _ in pairs:
        if not 0 <= i <= len(weights):
            continue
        matrix = _cartier_classes(weights, i, p)
        if matrix is None:
            raise RuntimeError(f"a cell of block {first_block(weights, r)} "
                               f"has no class in block p*beta (i={i}, "
                               f"p={p})")
        matrices[weights] = matrix
    nonzero = [key for key in others
               if 0 <= i <= key[1] and block_modp_homology(key, p)[i].dim]
    for beta, _ in first_blocks(r, p * n, nonzero):
        raise RuntimeError(
            f"mod-p H^{i} of block {beta} at (r={r}, n={n}, i={i}, p={p}) "
            f"is nonzero, though p does not divide its weight")
    return matrices


@lru_cache(maxsize=None)
def _cartier_classes(weights: tuple, i: int, p: int) -> Optional[IntMatrix]:
    """The class matrix of the degree-i cells of the block of the ordered
    weights w in mod-p H^i of block p*w: the columns of forward[i] of
    their shared transport, expressed on H^i of the canonical block of
    p*w's key, after _cartier_block certified that key pair; None when a
    cell has no class.  Computed once per (weights, i, p), for every r."""
    g, s = block_key(weights)
    _cartier_block((g, s), i, p)
    deg = block_modp_homology((p * g, s), p)[i]
    return class_matrix(deg.express, transport(weights).forward[i],
                        deg.dim)[0]


@lru_cache(maxsize=None)
def _cartier_block(key: tuple, i: int, p: int) -> None:
    """Certify the Cartier map of the canonical pair of the key (g, s): the
    unit cochains of the canonical block of (p*g, s) are mod-p cocycles
    whose classes in its H^i are a basis."""
    g, s = key
    multiple = canonical_weights((p * g, s))
    where = f"block of weights {multiple}, i={i}, p={p}"
    if not koszul_d(multiple, i).mod(p).is_zero():
        raise RuntimeError(
            f"representative columns are not mod-p cocycles on the {where}")
    deg = block_modp_homology((p * g, s), p)[i]
    cells = deg.dim_cochain
    matrix, _ = class_matrix(deg.express, IntMatrix.identity(cells), deg.dim)
    if deg.dim != cells or matrix is None or modp.rank(matrix, p) != cells:
        raise RuntimeError(f"cartier map not bijective on the {where}: "
                           f"dims {cells} vs {deg.dim}")

"""Monomial bases of polynomial differential forms over Z and the
multidegree (Koszul) blocks of the complex, with their own d and kappa.

The graded piece of form degree i and total degree n in r variables has
basis x^alpha dx_T with |alpha| = n - i and T an i-subset of {1..r}; the
element x^alpha dx_{t1} ^ ... ^ dx_{ti} is stored as (alpha, T).

Basis order is fixed so matrices are reproducible across runs: primary key
T in colexicographic increasing order, secondary key alpha in lexicographic
decreasing order.  Golden files depend on this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

from .intlinalg import IntMatrix


class BasisElement(NamedTuple):
    alpha: tuple            # exponent vector, length r, nonnegative
    T: tuple                # strictly increasing subset of {1..r}


def _compositions_desc(total: int, parts: int):
    """Exponent vectors of given length summing to total, lex decreasing.

    Iterative, for any length: the successor moves one unit of the last
    nonzero entry before the final one, plus the final entry, to the next.
    """
    if parts < 1 or total < 0:
        if parts == 0 == total:
            yield ()
        return
    a = [total] + [0] * (parts - 1)
    while True:
        yield tuple(a)
        j = parts - 2
        while j >= 0 and not a[j]:
            j -= 1
        if j < 0:
            return
        a[j], a[-1], a[j + 1] = a[j] - 1, 0, a[-1] + 1


def _subsets_colex(r: int, i: int):
    """i-subsets of {1..r} in colexicographic increasing order."""
    from itertools import combinations

    return sorted(combinations(range(1, r + 1), i),
                  key=lambda T: tuple(reversed(T)))


@dataclass(frozen=True)
class GradedPiece:
    r: int
    n: int
    i: int
    elements: tuple

    @property
    def dim(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def basis(r: int, n: int, i: int) -> GradedPiece:
    """The documented ordered basis of the (r, n, i) graded piece.

    Out-of-range i yields the zero piece.  The dimension is
    C(n-i+r-1, r-1) * C(r, i) when 0 <= i <= min(n, r).
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    if i < 0 or i > r or i > n:
        return GradedPiece(r, n, i, ())
    elems = tuple(BasisElement(alpha, T)
                  for T in _subsets_colex(r, i)
                  for alpha in _compositions_desc(n - i, r))
    return GradedPiece(r, n, i, elems)


def dim_formula(r: int, n: int, i: int) -> int:
    if i < 0 or i > r or i > n:
        return 0
    if r == 0:
        return 1 if n == i else 0
    return comb(n - i + r - 1, r - 1) * comb(r, i)


def _merge_sign(T: tuple, j: int) -> int:
    """Sign of moving dx_j past dx_T into sorted position."""
    return -1 if sum(1 for t in T if t < j) % 2 else 1


class KoszulBlock(NamedTuple):
    """One multidegree summand of the total-degree-n complex.

    d and the Koszul contraction kappa preserve the weight alpha + 1_T of
    x^alpha dx_T, so the cells of weight beta (|beta| = n) span a
    subcomplex: the Koszul complex of the integers beta_j, j in the support
    of beta.  Its degree-i cells are x^(beta - 1_T) dx_T for the i-subsets T
    of the support, in colex order.  Blocks with equal ordered nonzero
    weights are the same complex; every per-block result is cached by them.
    """
    beta: tuple             # the weight, length r
    weights: tuple          # the nonzero beta_j, j increasing: the sharing key

    def d(self, i: int) -> IntMatrix:
        """The block d^i; the zero map outside 0 <= i <= len(weights)."""
        return koszul_d(self.weights, i)

    def kappa(self, i: int) -> IntMatrix:
        """The block kappa from degree i to i-1; the zero map outside
        0 <= i <= len(weights)."""
        s = len(self.weights)
        if 0 <= i <= s:
            return _koszul_contractions(s)[i]
        return IntMatrix.zeros(_ncells(s, i - 1), _ncells(s, i))

    def basis_index(self, i: int, c: int) -> int:
        """The index in basis(r, n, i) of the block's degree-i cell c."""
        support = [j for j, w in enumerate(self.beta, 1) if w]
        T = tuple(support[t - 1] for t in _subsets_colex(len(support), i)[c])
        alpha = tuple(w - (j in T) for j, w in enumerate(self.beta, 1))
        piece = basis(len(self.beta), sum(self.beta), i)
        return piece.elements.index(BasisElement(alpha, T))


def koszul_d(weights: tuple, i: int) -> IntMatrix:
    """d^i of the Koszul complex of the given integers; the zero map
    outside 0 <= i <= len(weights)."""
    s = len(weights)
    if 0 <= i <= s:
        return _koszul_differentials(weights)[i]
    return IntMatrix.zeros(_ncells(s, i + 1), _ncells(s, i))


def _ncells(s: int, i: int) -> int:
    """Number of degree-i cells of a block with s weights."""
    return comb(s, i) if 0 <= i <= s else 0


@lru_cache(maxsize=None)
def koszul_blocks(r: int, n: int) -> tuple:
    """The blocks of the total-degree-n complex, beta in lex decreasing order.

    Embedding every block's d^i at its cells and summing gives d on the
    whole (r, n, i) piece.  A block d depends only on the ordered nonzero
    weights: d sends dx_T to dx_(T + j) with coefficient beta_j times
    _merge_sign read in support-relative positions.  kappa sends x^alpha
    dx_T to the sum over positions k of (-1)^(k-1) x^(alpha + e_(t_k))
    dx_(T - t_k), which stays in the block with coefficient +-1, so the
    block kappa depends only on the size of the support.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    return tuple(KoszulBlock(beta, tuple(w for w in beta if w))
                 for beta in _compositions_desc(n, r))


def block_pairs(blocks: Sequence[KoszulBlock],
                multiples: Sequence[KoszulBlock], q: int):
    """The distinct block pairs (beta, q*beta) of total degrees n and q*n,
    and the distinct blocks of degree q*n that are no such multiple.

    Frobenius x -> x^p, dx -> p x^(p-1) dx sends the cell x^(beta - 1_T)
    dx_T to p^i x^(p beta - 1_T) dx_T, and the Cartier representative sends
    it to x^(p beta - 1_T) dx_T.  Block p*beta has the support and so the
    cells of beta, in the same order, and its differentials are p times
    those of beta.  In block coordinates Frobenius is therefore p^i times
    the identity from beta to p*beta and Cartier (composed k times, from
    beta to p^k*beta) is the identity.

    blocks and multiples are koszul_blocks(r, n) and koszul_blocks(r, q*n).
    Returns (pairs, others): pairs holds (b, c) for the first block b of
    each distinct weights and the block c of weight q * blocks[b].beta;
    others lists, increasing, the first block of each distinct weights
    among those with a weight not divisible by q, the blocks no pair hits.
    """
    where = {blk.beta: c for c, blk in enumerate(multiples)}
    return ([(b, where[tuple(q * x for x in blocks[b].beta)])
             for b in distinct_blocks(blocks)],
            [c for c in distinct_blocks(multiples)
             if any(w % q for w in multiples[c].weights)])


def distinct_blocks(blocks: Sequence[KoszulBlock]) -> list:
    """The index of the first block of each distinct weights: blocks with
    the same ordered nonzero weights are the same complex."""
    first = {}
    for b, blk in enumerate(blocks):
        first.setdefault(blk.weights, b)
    return list(first.values())


@lru_cache(maxsize=None)
def _koszul_differentials(weights: tuple) -> tuple:
    """d^0 .. d^s of the Koszul complex of the s given integers."""
    s = len(weights)
    subsets = [_subsets_colex(s, i) for i in range(s + 2)]
    diffs = []
    for i in range(s + 1):
        pos = {T: k for k, T in enumerate(subsets[i + 1])}
        rows = [[0] * len(subsets[i]) for _ in subsets[i + 1]]
        for c, T in enumerate(subsets[i]):
            for j in range(1, s + 1):
                if j not in T:
                    k = pos[tuple(sorted(T + (j,)))]
                    rows[k][c] = _merge_sign(T, j) * weights[j - 1]
        diffs.append(IntMatrix._raw(tuple(map(tuple, rows)),
                                    len(subsets[i])))
    return tuple(diffs)


@lru_cache(maxsize=None)
def _koszul_contractions(s: int) -> tuple:
    """kappa^0 .. kappa^s of the Koszul complex on s weights."""
    subsets = [_subsets_colex(s, i) for i in range(s + 1)]
    kappas = [IntMatrix.zeros(0, 1)]
    for i in range(1, s + 1):
        pos = {T: k for k, T in enumerate(subsets[i - 1])}
        rows = [[0] * len(subsets[i]) for _ in subsets[i - 1]]
        for c, T in enumerate(subsets[i]):
            for k in range(i):
                rows[pos[T[:k] + T[k + 1:]]][c] = -1 if k % 2 else 1
        kappas.append(IntMatrix._raw(tuple(map(tuple, rows)),
                                     len(subsets[i])))
    return tuple(kappas)

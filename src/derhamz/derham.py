"""Monomial bases of polynomial differential forms over Z, the
multidegree (Koszul) blocks of the complex with their own d and kappa, and
the exterior-power transport of a block onto its canonical block.

The graded piece of form degree i and total degree n in r variables has
basis x^alpha dx_T with |alpha| = n - i and T an i-subset of {1..r}; the
element x^alpha dx_{t1} ^ ... ^ dx_{ti} is stored as (alpha, T).

Basis order is fixed so matrices are reproducible across runs: primary key
T in colexicographic increasing order, secondary key alpha in lexicographic
decreasing order.  Golden files depend on this order.

A block of the complex is the Koszul complex of its ordered nonzero weights
w, whose d is the wedge with w.  For a unimodular A with A w = (g, 0, ...,
0), g = gcd(w), the exterior power Lambda(A) is a chain isomorphism onto
the Koszul complex of (g, 0, ..., 0) (Bruns and Herzog, Cohen-Macaulay
Rings, 1.6.21).  So the key (g, len w) fixes a block up to isomorphism,
and transport(w) gives Lambda^i(A) and Lambda^i(A^-1), certified once per
primitive vector w/g: they commute with d and are inverse to each other.
The closed-form page oracle in bockstein keeps the ordered weights as its
key and never reads a transport, so it checks every transport it meets.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, gcd
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


@lru_cache(maxsize=None)
def _subsets_colex(r: int, i: int) -> tuple:
    """i-subsets of {1..r} in colexicographic increasing order."""
    return tuple(sorted(combinations(range(1, r + 1), i),
                        key=lambda T: T[::-1]))


class GradedPiece:
    """The basis of the (r, n, i) graded piece, an immutable record that
    iterates over its elements; a tuple of its four fields would give a
    len() and an unpacking that disagree with that iteration."""

    __slots__ = ("_values",)

    def __init__(self, r: int, n: int, i: int, elements: tuple):
        self._values = (r, n, i, elements)

    r = property(lambda self: self._values[0])
    n = property(lambda self: self._values[1])
    i = property(lambda self: self._values[2])
    elements = property(lambda self: self._values[3])
    dim = property(lambda self: len(self.elements))

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return type(other) is GradedPiece and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return "GradedPiece(r=%r, n=%r, i=%r, elements=%r)" % self._values


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
    weights are the same complex, and blocks with the same key (gcd and
    number of those weights) are isomorphic complexes (transport).
    """
    beta: tuple             # the weight, length r
    weights: tuple          # the nonzero beta_j, j increasing

    @property
    def key(self) -> tuple:
        """(gcd, length) of the weights: the sharing key of the block."""
        return block_key(self.weights)

    @property
    def transport(self) -> "Transport":
        return transport(self.weights)

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


def block_key(weights: tuple) -> tuple:
    """(gcd, length) of the weights: blocks of one key are isomorphic
    complexes, each a transport of the canonical block of the key."""
    return gcd(*weights), len(weights)


def canonical_weights(key: tuple) -> tuple:
    """The weights (g, 0, ..., 0) of length s of the canonical block of
    the key (g, s); () for the key (0, 0) of the empty weights."""
    g, s = key
    return (g,) + (0,) * (s - 1) if s else ()


class Transport(NamedTuple):
    """The chain isomorphism Lambda(A) from the Koszul block of ordered
    weights w onto the canonical block of its key, for a unimodular A with
    A w = (gcd w, 0, ..., 0).

    forward[i] = Lambda^i(A) and backward[i] = Lambda^i(A^-1) act on the
    degree-i cells.  d is the wedge with the weight vector, so Lambda(A)
    carries it to the wedge with A w: forward[i+1] d_w = d_Aw forward[i].
    """
    forward: tuple
    backward: tuple


def transport(weights: tuple) -> Transport:
    """The certified transport of the block of the ordered weights onto
    its canonical block.  It is computed once per primitive vector w/gcd(w),
    so w and every multiple q*w (a Frobenius or Cartier pair) share it."""
    g = gcd(*weights)
    return _exterior_transport(tuple(w // g for w in weights) if g else ())


@lru_cache(maxsize=None)
def _exterior_transport(primitive: tuple) -> Transport:
    """Lambda(A) and Lambda(A^-1) for A with A u = e_1, u primitive,
    certified: Lambda^i(A) Lambda^i(A^-1) = I in every degree, and
    Lambda(A) commutes with d from the block of u to the block of e_1
    (then also from w = g u to g e_1, both d being linear in the weights).
    """
    s = len(primitive)
    A, A_inv = _reduction(primitive)
    t = Transport(_exterior_powers(A), _exterior_powers(A_inv))
    unit = canonical_weights((1, s))
    for i in range(s + 1):
        if not (t.forward[i] @ t.backward[i]).is_identity():
            raise RuntimeError(f"transport of {primitive} is not invertible "
                               f"in degree {i}")
    for i in range(s):
        if (t.forward[i + 1] @ koszul_d(primitive, i)
                != koszul_d(unit, i) @ t.forward[i]):
            raise RuntimeError(f"transport of {primitive} does not commute "
                               f"with d in degree {i}")
    return t


def _reduction(u: tuple):
    """Columns of a unimodular A with A u = e_1, and of A^-1, for a
    primitive u: Euclid on the entries of u by row operations, which act
    on A^-1 as the inverse column operations."""
    s = len(u)
    v = list(u)
    A = [[int(a == b) for b in range(s)] for a in range(s)]       # rows
    A_inv = [[int(a == b) for b in range(s)] for a in range(s)]   # rows

    def add(target, source, q):
        # row target += q * row source; column source of A^-1 -= q * target
        v[target] += q * v[source]
        A[target] = [a + q * b for a, b in zip(A[target], A[source])]
        for row in A_inv:
            row[source] -= q * row[target]

    while True:
        live = [k for k in range(s) if v[k]]
        if len(live) <= 1:
            break
        k0 = min(live, key=lambda k: (abs(v[k]), k))
        for k in live:
            if k != k0:
                add(k, k0, -(v[k] // v[k0]))
    if s:
        k0 = live[0]
        v[0], v[k0] = v[k0], v[0]
        A[0], A[k0] = A[k0], A[0]
        for row in A_inv:
            row[0], row[k0] = row[k0], row[0]
        if v[0] < 0:
            A[0] = [-a for a in A[0]]
            for row in A_inv:
                row[0] = -row[0]
    return list(zip(*A)), list(zip(*A_inv))


def _exterior_powers(columns: list) -> tuple:
    """Lambda^0 .. Lambda^s of the s x s matrix with the given columns.

    Column T of Lambda^i is the wedge of the columns t in T, built from
    Lambda^(i-1): Lambda^i e_T = (A e_min T) ^ Lambda^(i-1) e_(T - min T),
    so no determinant is taken."""
    s = len(columns)
    powers = [IntMatrix._raw(((1,),), 1)]
    prev = [(1,)]
    for i in range(1, s + 1):
        wedges = _wedges(s, i - 1)
        where = {U: k for k, U in enumerate(_subsets_colex(s, i - 1))}
        upper = _subsets_colex(s, i)
        cols = []
        for T in upper:
            v, x = columns[T[0] - 1], prev[where[T[1:]]]
            col = [0] * len(upper)
            for xu, wedge in zip(x, wedges):
                if xu:
                    for j, k, sign in wedge:
                        if v[j]:
                            col[k] += sign * v[j] * xu
            cols.append(tuple(col))
        powers.append(IntMatrix._raw(tuple(zip(*cols)), len(upper)))
        prev = cols
    return tuple(powers)


@lru_cache(maxsize=None)
def _wedges(s: int, i: int) -> tuple:
    """For each i-subset U of {1..s}, colex order, the triples (j - 1, k,
    sign) with dx_j ^ dx_U = sign dx_T for j not in U, T = U + j being
    (i+1)-subset number k."""
    pos = {T: k for k, T in enumerate(_subsets_colex(s, i + 1))}
    return tuple(tuple((j - 1, pos[tuple(sorted(U + (j,)))], _merge_sign(U, j))
                       for j in range(1, s + 1) if j not in U)
                 for U in _subsets_colex(s, i))


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
    """d^0 .. d^s of the Koszul complex of the s given integers: d^i is the
    wedge with sum_j weights[j] dx_j from degree i to i + 1."""
    s = len(weights)
    diffs = []
    for i in range(s + 1):
        rows = [[0] * _ncells(s, i) for _ in range(_ncells(s, i + 1))]
        for c, wedge in enumerate(_wedges(s, i)):
            for j, k, sign in wedge:
                rows[k][c] = sign * weights[j]
        diffs.append(IntMatrix._raw(tuple(map(tuple, rows)), _ncells(s, i)))
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

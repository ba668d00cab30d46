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
w, whose d is the wedge with w; koszul_d builds one degree of it per call,
and no table keeps it.  For a unimodular A with A w = (g, 0, ..., 0), g =
gcd(w), the exterior power Lambda(A) is a chain isomorphism onto the
Koszul complex of (g, 0, ..., 0) (Bruns and Herzog, Cohen-Macaulay Rings,
1.6.21).  So the key (g, len w) fixes a block up to isomorphism, and
transport(w) gives Lambda^i(A) and Lambda^i(A^-1), certified once per
primitive vector w/g: they commute with d and are inverse to each other.
The closed-form page oracle in bockstein keeps the ordered weights as its
key and never reads a transport, so it checks every transport it meets.

The engine walks the distinct ordered weights (ordered_weights,
weight_pairs) and counts the blocks of each key (block_counts); it never
enumerates the blocks, and a witness names the first block (w, 0, ..., 0)
of its weights (first_block).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, gcd, isqrt
from typing import NamedTuple

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


def first_block(weights: tuple, r: int) -> tuple:
    """The weight (w, 0, ..., 0) of length r: the first block of the ordered
    weights w in lex-decreasing order, the one every witness names."""
    return weights + (0,) * (r - len(weights))


def basis_index(beta: tuple, i: int, c: int) -> int:
    """The index in basis(r, n, i) of the degree-i cell c of the block of
    weight beta: x^(beta - 1_T) dx_T, T the c-th i-subset of the support
    of beta in colex order."""
    support = [j for j, w in enumerate(beta, 1) if w]
    T = tuple(support[t - 1] for t in _subsets_colex(len(support), i)[c])
    alpha = tuple(w - (j in T) for j, w in enumerate(beta, 1))
    piece = basis(len(beta), sum(beta), i)
    return piece.elements.index(BasisElement(alpha, T))


def koszul_d(weights: tuple, i: int) -> IntMatrix:
    """d^i of the Koszul complex of the given integers, the wedge with
    sum_j weights[j] dx_j; the zero map outside 0 <= i <= len(weights).
    Built on every call: a caller that reads it twice holds it."""
    s = len(weights)
    ncols = _ncells(s, i)
    if not 0 <= i <= s:
        return IntMatrix.zeros(_ncells(s, i + 1), ncols)
    rows = [[0] * ncols for _ in range(_ncells(s, i + 1))]
    for c, wedge in enumerate(_wedges(s, i)):
        for j, k, sign in wedge:
            rows[k][c] = sign * weights[j]
    return IntMatrix._raw(tuple(map(tuple, rows)), ncols)


def koszul_kappa(s: int, i: int) -> IntMatrix:
    """kappa^i, from degree i to i-1, of the Koszul complex of any s
    integers; the zero map outside 0 <= i <= s."""
    if 0 <= i <= s:
        return _koszul_contractions(s)[i]
    return IntMatrix.zeros(_ncells(s, i - 1), _ncells(s, i))


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


def ordered_weights(r: int, n: int) -> list:
    """The distinct ordered nonzero weights w of the blocks of the
    total-degree-n complex, the compositions of n into at most r positive
    parts, in the lex-decreasing order of their first blocks (w, 0, ..., 0);
    no w is a prefix of another, so the order does not depend on r.

    The cells x^(beta - 1_T) dx_T of weight beta (|beta| = n, T a subset of
    the support, colex order) span a subcomplex, the Koszul complex of the
    nonzero beta_j: d sends dx_T to dx_(T + j) with coefficient beta_j times
    _merge_sign read in support-relative positions, and kappa has entries
    +-1.  So the block depends only on w, which stands for C(r, len(w))
    blocks, one per support.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    return sorted([tuple([a + 1 for a in alpha])
                   for s in range(min(r, n) + 1)
                   for alpha in _compositions_desc(n - s, s)], reverse=True)


def block_counts(r: int, n: int) -> dict:
    """The number of blocks of each key (g, s) of the total-degree-n
    complex, without enumerating them.

    A block of key (g, s) picks its support, C(r, s) ways, and positive
    weights summing to n with gcd g: g times a composition of m = n/g into
    s parts of gcd 1.  By Moebius inversion over the gcd there are
    sum over d | m of mu(d) C(m/d - 1, s - 1) of those.  Keys in increasing
    order; n = 0 gives the one empty block, key (0, 0).
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    if n == 0:
        return {(0, 0): 1}
    counts = {}
    divisors = [(d, _moebius(d)) for d in _divisors(n)]
    for g, _ in divisors:
        m = n // g
        inner = [(d, mu) for d, mu in divisors if mu and m % d == 0]
        for s in range(1, min(r, m) + 1):
            count = comb(r, s) * sum(mu * comb(m // d - 1, s - 1)
                                     for d, mu in inner)
            if count:
                counts[g, s] = count
    return counts


def _divisors(n: int) -> list:
    """The positive divisors of n > 0, increasing."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _moebius(d: int) -> int:
    """The Moebius function of d > 0, by trial division."""
    mu, q = 1, 2
    while q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            mu = -mu
        q += 1
    return -mu if d > 1 else mu


def weight_pairs(r: int, n: int, q: int) -> tuple:
    """The block pairs (w, q*w) of total degrees n and q*n, and the keys of
    the blocks of degree q*n that are no such multiple.

    Frobenius x -> x^p, dx -> p x^(p-1) dx sends the cell x^(beta - 1_T)
    dx_T to p^i x^(p beta - 1_T) dx_T, and the Cartier representative sends
    it to x^(p beta - 1_T) dx_T.  Block p*beta has the support and so the
    cells of beta, in the same order, and its differentials are p times
    those of beta.  In block coordinates Frobenius is therefore p^i times
    the identity from beta to p*beta and Cartier (composed k times, from
    beta to p^k*beta) is the identity.

    Returns (pairs, others): pairs holds (w, q*w) for w in
    ordered_weights(r, n), and others the keys (g, s) with q not dividing
    g, those of the blocks with an entry not divisible by q, which no pair
    hits; a check on them runs per key (first_blocks names a witness).
    """
    return ([(w, tuple([q * x for x in w])) for w in ordered_weights(r, n)],
            [key for key in block_counts(r, q * n) if key[0] % q])


def first_blocks(r: int, n: int, keys: list) -> list:
    """[(beta, key)] for the first block of total degree n, in the walk,
    whose key is among the given keys, or [] when there are none."""
    if not keys:
        return []
    w = next(w for w in ordered_weights(r, n) if block_key(w) in keys)
    return [(first_block(w, r), block_key(w))]


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

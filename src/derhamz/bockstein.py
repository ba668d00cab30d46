"""Bockstein exact couples of the de Rham complex and their derived pages.

The couple at a prime p is H --(xp)--> H --(reduce)--> H(mod p) --(del)-->,
generated by the short exact coefficient sequence for multiplication by p.
Deriving it repeatedly yields the spectral-sequence pages; a closed-form
lattice computation of the same pages serves as an independent oracle.
The couple, every derived couple and the oracle are direct sums over the
multidegree blocks of the complex: one summand per key, with the number of
its blocks (CoupleSum).  Where a block's own cells matter the engine walks
the distinct ordered weights (derham.weight_pairs); the closed-form oracle
enumerates the blocks itself.

Each level of a block's tower is computed once per key (gcd and number of
the block's weights), on the canonical block of the key (_block_level),
and shared by every block of that key and every total degree: the summand
of a block in a CoupleSum is that level itself.  Its groups, maps, pages
and page differentials are class data and need no transport; a cochain of
the block enters only through the block's certified transport, whose
forward map carries it to the canonical block's cochains.  That happens in
three places: the closed-form oracle (_block_oracle_failure), the witness
of a failing page identification (block_identification_failure) and the
Cartier classes (cohomology.cartier_iso).  The closed-form oracle keeps
the ordered weights as its key on purpose: it computes its pages without
a transport, so a wrong transport shows up as a disagreement with it.  The
page identification of a block pair runs once per pair of keys, on the
tower level of the target key (_identification).

Each page is an elementary abelian p-group per degree, stored as a mod-p
subquotient of the previous page (ExactCouple.stages), so the class of a
cochain on any page, and every comparison, is exact matrix algebra.

A couple is a value: what its groups, pages and the matrices of j and k
fix (the maps and their checks, d∘d = 0, exactness and the derived
content) is built once per distinct content and shared (_Content), so a
tower level equal to another level, of its own key or of another, is
neither rebuilt, re-certified nor derived again.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations
from math import gcd
from typing import NamedTuple, Optional, Sequence

from . import modp
from .abgroups import (
    FgAbGroup,
    Homomorphism,
    class_matrix,
    diagonal_matrix,
    express_through,
    is_exact_at,
    p_torsion,
)
from .cohomology import (
    BlockHomology,
    block_homology,
    block_modp_homology,
    modp_homology,
)
from .derham import (
    _compositions_desc,
    basis_index,
    block_counts,
    block_key,
    canonical_weights,
    first_block,
    first_blocks,
    koszul_d,
    transport,
    weight_pairs,
)
from .intlinalg import IntMatrix, lattice_solve, snf, unimodular_inverse
from .modp import check_prime, valuation


class ExactnessError(RuntimeError):
    """An exact couple failed its exactness certificate."""


class ExactCouple:
    """One stage of the Bockstein tower of one Koszul block at a prime p.

    weights label the block; the engine builds every tower level on the
    canonical block of its key (_block_level), so they are the canonical
    weights (g, 0, ..., 0).  A couple is a value: it is fixed by its
    content, the groups D^i, the page dims and the matrices of j and k (k
    raises the degree by one and lands in the zero group at the top).  The
    constructor looks the content up in _content, which derives the rest
    once per content key (p, D, dims, j, k), in one record shared by every
    couple of that content (_Content): E^i = (Z/p)^dim, i = p on each D^i,
    the three maps (each checked well defined there) and the page
    differentials (j k) mod p, certified to square to zero.  A couple keeps
    of its own only its weights, p, level, stages and parent: stages[i] is
    E^i as a mod-p subquotient, of the block cochains at level 1, of the
    parent's E^i (by the parent's differential) at later levels; parent
    points to the couple this one was derived from.
    """

    __slots__ = ("weights", "p", "level", "stages", "parent", "_content")

    def __init__(self, weights, p, level, D, stages, j_matrices, k_matrices,
                 parent=None):
        self.weights = weights
        self.p = p
        self.level = level
        self.stages = tuple(stages)
        self.parent = parent
        self._content = _content(p, tuple(D),
                                 tuple(st.dim for st in self.stages),
                                 tuple(j_matrices), tuple(k_matrices))

    D = property(lambda self: self._content.D)
    dims = property(lambda self: self._content.dims)
    imax = property(lambda self: self._content.imax)
    E = property(lambda self: self._content.E)
    i_maps = property(lambda self: self._content.i_maps)
    j_maps = property(lambda self: self._content.j_maps)
    k_maps = property(lambda self: self._content.k_maps)

    def e_dim(self, i: int) -> int:
        return self.dims[i] if 0 <= i <= self.imax else 0

    def d_matrix(self, i: int) -> IntMatrix:
        """The page differential j∘k: E^i -> E^(i+1), entries reduced mod p;
        the zero map outside 0 <= i < imax."""
        if not 0 <= i < self.imax:
            return IntMatrix.zeros(self.e_dim(i + 1), self.e_dim(i))
        return self._content.d[i]

    def express_cochain(self, i: int, z: Sequence[int]) -> Optional[tuple]:
        """Coordinates on E^i of the class of a mod-p cochain, through the
        tower of subquotients from level 1 up; None when the class does not
        survive to this page (or z is no cocycle)."""
        tower, c = [], self
        while c is not None:
            tower.append(c.stages[i])
            c = c.parent
        for stage in reversed(tower):
            z = stage.express(z)
            if z is None:
                return None
        return z

    def exactness_failures(self) -> list:
        """All broken exactness nodes, each with a witness element."""
        return list(self._content.failures())

    def check_exactness(self) -> None:
        failures = self.exactness_failures()
        if failures:
            label, i, witness = failures[0]
            raise ExactnessError(
                f"couple level {self.level} of weights {self.weights} at "
                f"p={self.p} fails {label} in degree {i}; witness {witness}")


class _Content:
    """What the content (p, D, dims, j, k) of a couple fixes, built once per
    content key by _content and shared by every couple of that content,
    whatever its block, level or stages.

    The constructor builds E, the maps and the page differentials and
    certifies d∘d = 0.  The exactness failures and the derived content
    (derive's stages, D', j' and k', or the verdict of its failed check)
    are computed when first asked for and kept, so that each runs once per
    content key.
    """

    __slots__ = ("p", "D", "dims", "imax", "E", "i_maps", "j_maps",
                 "k_maps", "d", "_failures", "_derived")

    def __init__(self, p, D, dims, j_matrices, k_matrices):
        self.p = p
        self.D = D
        self.dims = dims
        self.imax = len(D) - 1
        self.E = tuple(FgAbGroup((p,) * dim) for dim in dims)
        self.i_maps = tuple(Homomorphism(G, G, diagonal_matrix((p,) * G.ngens))
                            for G in D)
        self.j_maps = tuple(map(Homomorphism, D, self.E, j_matrices))
        self.k_maps = tuple(map(Homomorphism, self.E,
                                D[1:] + (FgAbGroup.zero(),), k_matrices))
        self.d = tuple((j.matrix @ k.matrix).mod(p)
                       for j, k in zip(self.j_maps[1:], self.k_maps))
        if any(not (d1 @ d0).mod(p).is_zero()
               for d0, d1 in zip(self.d, self.d[1:])):
            raise RuntimeError("page differential does not square to zero")
        self._failures = self._derived = None

    def failures(self) -> tuple:
        if self._failures is None:
            self._failures = self._find_failures()
        return self._failures

    def _find_failures(self) -> tuple:
        failures = []
        zero_E = FgAbGroup.zero()
        for i in range(self.imax + 1):
            if i >= 1:
                k_in = self.k_maps[i - 1]
            else:
                k_in = Homomorphism.zero(zero_E, self.D[0])
            for label, (f, g) in (
                ("ker i = im k", (k_in, self.i_maps[i])),
                ("ker j = im i", (self.i_maps[i], self.j_maps[i])),
                ("ker k = im j", (self.j_maps[i], self.k_maps[i])),
            ):
                ok, witness = is_exact_at(f, g)
                if not ok:
                    failures.append((label, i, witness))
        return tuple(failures)

    def derived(self) -> tuple:
        """derive's (stages, D', j', k') of an exact couple of this content;
        raises ExactnessError, on every call, when j' or k' fails its
        check."""
        if self._derived is None:
            try:
                self._derived = self._derive()
            except ExactnessError as exc:
                self._derived = str(exc)
        if isinstance(self._derived, str):
            raise ExactnessError(self._derived)
        return self._derived

    def _derive(self) -> tuple:
        p = self.p
        # E' = ker d / im d with d = j∘k, handled entirely mod p; the zero
        # maps into degree 0 and out of the top degree close the complex
        d = ((IntMatrix.zeros(self.dims[0], 0),) + self.d
             + (IntMatrix.zeros(0, self.dims[-1]),))
        stages = tuple(modp_homology(d_in, d_out, p)
                       for d_in, d_out in zip(d, d[1:]))

        j_matrices = []
        for D, j, stage in zip(self.D, self.j_maps, stages):
            # column t is j(e_t); the i-preimages of p e_t are e_t + ker i
            j_cols = j.matrix.columns()
            for t, m in p_torsion(D, p):
                coords = stage.express([m * v for v in j_cols[t]])
                if coords is None or any(v % p for v in coords):
                    raise ExactnessError(
                        "j' is not independent of the preimage choice")
            cols = []
            for j_e in j_cols:
                coords = stage.express(j_e)
                if coords is None:
                    raise ExactnessError("j' value does not survive to E'")
                cols.append(tuple(v % p for v in coords))
            j_matrices.append(IntMatrix._raw_columns(cols, stage.dim))

        k_matrices = []
        for k, stage in zip(self.k_maps, stages):
            # k' lands in im(i) = pG for the target G of k (0 at the top)
            G = k.target
            matrix, _ = class_matrix(
                partial(express_through, diagonal_matrix((p,) * G.ngens),
                        G.relations),
                k.matrix @ stage.rep_matrix(), G.ngens)
            if matrix is None:
                raise ExactnessError("k of a surviving class misses im(i)")
            k_matrices.append(matrix)

        D = tuple(FgAbGroup(e // gcd(e, p) for e in G.entries)
                  for G in self.D)
        return stages, D, tuple(j_matrices), tuple(k_matrices)


@lru_cache(maxsize=None)
def _content(p: int, D: tuple, dims: tuple, j_matrices: tuple,
             k_matrices: tuple) -> _Content:
    """The one record of a couple content.  The table grows like
    _block_level's, since every engine couple is a tower level of a key at
    p, and levels of equal content share one entry."""
    return _Content(p, D, dims, j_matrices, k_matrices)


class CoupleSum:
    """The couple of the total-degree-n complex as a direct sum of block
    couples.

    d, the Bockstein maps and every derived couple respect the
    multidegree, so the couple is the direct sum over the Koszul blocks of
    their own couples.  The blocks of a key (counts[key] of them,
    derham.block_counts) share one summand, the tower level of the key
    (summands[key], _block_level), onto which transport(w) carries the
    cochains of a block of ordered weights w.  The dims sum the summands'
    dims weighted by the counts; the groups, maps and page differentials
    are never assembled.  A direct sum is exact (and its maps well
    defined) exactly when every summand is, so those certificates run on
    the summands, once per key.
    """

    def __init__(self, r, n, p, level, counts, summands):
        self.r = r
        self.n = n
        self.p = p
        self.level = level
        self.imax = min(n, r)
        self.counts = dict(counts)
        self.summands = dict(summands)
        dims = [0] * (self.imax + 1)
        for key, count in self.counts.items():
            for i, dim in enumerate(self.summands[key].dims):
                dims[i] += count * dim
        self.dims = tuple(dims)


def initial_couple(r: int, n: int, p: int) -> CoupleSum:
    """The couple of the mod-p coefficient sequence in total degree n.

    D is integral cohomology with the multiplication-by-p map, E is mod-p
    cohomology with j the reduction mod p of integral cocycles and k the
    connecting map sending a class [z] to [(d z~)/p] for any integral
    cochain z~ reducing to z.  It is the first level of couples(r, n, p,
    ...); each summand's D^i is block_homology's H^i of its block's key,
    on the Smith-adapted generators of the canonical block of the key.
    """
    return couples(r, n, p, 1)[0]


def _block_couple(weights: tuple, p: int, H: Sequence[BlockHomology],
                  mp: Sequence) -> ExactCouple:
    """The level-1 couple of the Koszul block of the weights, in its
    cochain coordinates, from its H^i over Z (H[i], with generators, as in
    integral_cohomology) and over the p-element field (mp[i]): D^i is
    H[i].group, E^i is mp[i], j reduces the generators and k sends [z] to
    [(d z~)/p].
    """
    top = len(weights)
    j_matrices, k_matrices = [], []
    for i in range(top + 1):
        matrix, _ = class_matrix(mp[i].express, H[i].gens, mp[i].dim)
        if matrix is None:
            raise RuntimeError("integral cocycle failed to reduce mod p")
        j_matrices.append(matrix)
        orders = H[i + 1].group.entries if i < top else ()
        d = koszul_d(weights, i)
        cols = []
        for rep in mp[i].reps:
            dv = d.apply(rep)
            if any(v % p for v in dv):
                raise RuntimeError("d of a mod-p cocycle lift not divisible by p")
            coords = (lattice_solve(H[i + 1].gens, [v // p for v in dv])
                      if i < top else ())
            if coords is None:
                raise RuntimeError("(d z~)/p is not an integral cocycle")
            # reduced modulo the orders of the generators
            cols.append(tuple(v % d if d else v
                              for v, d in zip(coords, orders)))
        k_matrices.append(IntMatrix._raw_columns(cols, len(orders)))
    return ExactCouple(weights, p, 1, [h.group for h in H], mp, j_matrices,
                       k_matrices)


def derive(c: ExactCouple) -> ExactCouple:
    """The derived couple: D' = im(i), E' = ker(jk)/im(jk).

    The input couple must be exact (checked).  Its i is multiplication by
    p, so D' is pD, on the generators p e_t, of orders d / gcd(d, p) read
    off the entries.  j' sends p e_t to the class of j(e_t), e_t being one
    i-preimage; it does not depend on that choice because j of every
    generator of ker i must vanish in E' (checked).  k' is k on the
    surviving classes, written on pD.

    The certificate, the checks and D', E', j', k' depend on the content
    of c alone, so they are computed once per content and kept in its
    record (_Content); a level past which the tower is stationary finds
    its derived content already there.  Each failed check still raises on
    every call, the exactness certificate naming c's own level and
    weights.
    """
    c.check_exactness()
    stages, D, j_matrices, k_matrices = c._content.derived()
    return ExactCouple(c.weights, c.p, c.level + 1, D, stages, j_matrices,
                       k_matrices, parent=c)


def couples(r: int, n: int, p: int, upto: int) -> list:
    """The first `upto` couples (levels 1..upto) for (r, n, p), each the
    direct sum of the same level of the blocks' towers (_block_level)."""
    check_prime(p)
    if n < 1:
        raise ValueError("total degree must be >= 1")
    if upto < 1:
        raise ValueError("upto must be >= 1")
    counts = block_counts(r, n)
    # level by level, so each level finds the one below it cached
    return [CoupleSum(r, n, p, level, counts,
                      {key: _block_level(key, p, level) for key in counts})
            for level in range(1, upto + 1)]


@lru_cache(maxsize=None)
def _block_level(key: tuple, p: int, level: int) -> ExactCouple:
    """Level `level` of the Bockstein tower of the canonical block of the
    key at p.  Each level is certified once: d∘d = 0 when it is built,
    exactness when the next level is derived from it."""
    if level == 1:
        return _block_couple(canonical_weights(key), p, block_homology(key),
                             block_modp_homology(key, p))
    return derive(_block_level(key, p, level - 1))


class SpectralPage(NamedTuple):
    """Page k: per-degree dimensions over F_p."""
    r: int
    n: int
    p: int
    k: int
    dims: tuple

    @property
    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)


def pages(r: int, n: int, p: int, kmax: int | None = None) -> list:
    """Pages 1..kmax extracted from iterated derived couples.

    kmax defaults to nu_p(n) + 1; pages past nu_p(n) are computed honestly
    and must come out zero.
    """
    check_prime(p)
    if n < 1:
        raise ValueError("total degree must be >= 1")
    if kmax is None:
        kmax = valuation(n, p) + 1
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return [SpectralPage(r, n, p, c.level, c.dims)
            for c in couples(r, n, p, kmax)]


# -- closed-form oracle ------------------------------------------------------------
#
# Z_j = {x : dx in p^j C} is a direct sum over the weights, because d is
# block diagonal and p^j is a scalar; so is the page quotient and its d_k.
# The oracle therefore works on one Koszul block at a time, keyed by the
# block's ordered nonzero weights.  It evaluates d on the block's monomials
# itself, so that it stays independent of derham's block differentials.
#
# Over Z the block splits into elementary complexes Z --s--> Z and free
# classes: each degree has a basis P_i = [a | b | h] with d a_t = s_t b_t
# and d b = d h = 0 (_adapted_basis, certified once per ordered weights and
# shared by every p and every page).  On a piece Z a_t --s--> Z b_t with
# v = v_p(s_t), Z_j holds p^max(0, j-v) a_t and all of Z b_t.  At a_t the
# page is p^max(0, k-v) Z / p^(1 + max(0, k-1-v)) Z: Z/p when v >= k, else
# 0.  At b_t it is Z over p Z plus p^(1-k) d of p^max(0, k-1-v) a_t, that
# is Z / p^(max(v, k-1) + 1 - k) Z: Z/p when v >= k, else 0.  Each h gives
# Z/p.  So E_k keeps a_t and b_t exactly when p^k divides s_t, and every
# h, and d_k[a_t] = [d a_t / p^k] = (s_t / p^k) b_t, nonzero mod p only
# when v = k.


@lru_cache(maxsize=None)
def _oracle_cells(s: int) -> tuple:
    """Where d sends the cells of a block of s nonzero weights, once per s:
    per degree i = 0..s, the number of degree-(i+1) cells and, per
    degree-i cell T (the i-subsets of {1..s} in colex order), the terms
    (row, sign, j) of d on it: for each j not in T, the row of the cell
    T + j and the sign (-1)^(position of j in T + j)."""
    cells = [sorted(combinations(range(1, s + 1), i), key=lambda T: T[::-1])
             for i in range(s + 2)]
    pattern = []
    for i in range(s + 1):
        index = {T: c for c, T in enumerate(cells[i + 1])}
        terms = []
        for T in cells[i]:
            col = []
            for j in range(1, s + 1):
                if j not in T:
                    U = tuple(sorted(T + (j,)))
                    col.append((index[U], (-1) ** U.index(j), j))
            terms.append(tuple(col))
        pattern.append((len(cells[i + 1]), tuple(terms)))
    return tuple(pattern)


def _oracle_d(weights: tuple) -> tuple:
    """d^0 .. d^s on the block of the ordered nonzero weights w: degree-i
    cells x^(w - 1_T) dx_T, T an i-subset of {1..s} in colex order.

    d(x^a dx_T) = sum over j not in T of a_j x^(a - e_j) dx_j ^ dx_T, and
    dx_j ^ dx_T = (-1)^(position of j in T + j) dx_(T + j).  The cells,
    rows and signs depend only on s (_oracle_cells); a = w - 1_T gives
    a_j = w_j for every j not in T.
    """
    ds = []
    for nrows, terms in _oracle_cells(len(weights)):
        cols = []
        for col_terms in terms:
            col = [0] * nrows
            for row, sign, j in col_terms:
                col[row] += sign * weights[j - 1]
            cols.append(col)
        ds.append(IntMatrix.from_columns(cols, nrows))
    for i in range(len(weights)):
        if not (ds[i + 1] @ ds[i]).is_zero():
            raise AssertionError(f"d∘d != 0 on the block of weights "
                                 f"{weights}")
    return tuple(ds)


@lru_cache(maxsize=None)
def _adapted_basis(weights: tuple) -> tuple:
    """A basis of each degree of the block of the ordered weights in which
    d is a sum of elementary complexes, as (P_i, s_i) for i = 0..s: the
    columns of P_i are a_t (t < len(s_i)), then b_t (t < len(s_(i-1))),
    then h, with d a_t = s_i[t] b_t of degree i+1 and d b = d h = 0.

    Built from the top degree down: in degree i >= 1, U M V = S is a Smith
    form of d^(i-1) written as M on the basis of ker d^i, the last columns
    of the V of the degree above (all of C^s at the top).  The first
    len(s_(i-1)) columns of V are the a of degree i-1 and the rest span
    ker d^(i-1); the kernel basis times U^-1 gives b and h.  Certified
    here: U M V = S, S diagonal, U and V unimodular (through
    unimodular_inverse, which also gives the inverses), and, with
    P^-1 = diag(I, U) V^-1, P_(i+1)^-1 d^i P_i the elementary matrix and
    P_i^-1 P_i = I for i >= 1 (P_0 = V).  A failed certificate raises
    RuntimeError.
    """
    d = _oracle_d(weights)
    top = len(weights)
    # the V and V^-1 of the degree above and the number of its a columns
    V = Vinv = IntMatrix.identity(d[top].ncols)
    rank = 0
    P, Pinv, scales = [None] * (top + 1), [None] * (top + 1), [()] * (top + 1)
    for i in range(top, 0, -1):
        where = f"d^{i - 1} on the block of weights {weights}"
        cols = V.columns()
        kernel = IntMatrix._raw_columns(cols[rank:], V.nrows)
        coords = IntMatrix._raw(Vinv._rows[rank:], Vinv.ncols)
        M = coords @ d[i - 1]
        S, U, W = snf(M)
        if U @ M @ W != S:
            raise RuntimeError(f"Smith form does not reduce {where}")
        if any(a for t in range(S.nrows)
               for u, a in enumerate(S.row(t)) if u != t):
            raise RuntimeError(f"Smith form of {where} is not diagonal")
        try:
            Uinv = unimodular_inverse(U)
            Winv = unimodular_inverse(W)
        except ValueError:
            raise RuntimeError(f"Smith transforms of {where} are not "
                               f"unimodular") from None
        P[i] = IntMatrix._raw_columns(cols[:rank] + (kernel @ Uinv).columns(),
                                      V.nrows)
        Pinv[i] = IntMatrix._raw(Vinv._rows[:rank] + (U @ coords)._rows,
                                 V.nrows)
        scales[i - 1] = tuple(a for a in (S[t, t] for t in range(min(S.shape)))
                              if a)
        V, Vinv, rank = W, Winv, len(scales[i - 1])
    P[0] = V
    for i in range(top):
        # a_t of degree i goes to s_t times column len(s_(i+1)) + t
        rows = [[0] * d[i].ncols for _ in range(d[i].nrows)]
        for t, s in enumerate(scales[i]):
            rows[len(scales[i + 1]) + t][t] = s
        elementary = IntMatrix._raw(tuple(map(tuple, rows)), d[i].ncols)
        if Pinv[i + 1] @ d[i] @ P[i] != elementary:
            raise RuntimeError(f"P^-1 d^{i} P is not elementary on the block "
                               f"of weights {weights}")
        # the inverses unimodular_inverse returned are inverses
        if not (Pinv[i + 1] @ P[i + 1]).is_identity():
            raise RuntimeError(f"P^-1 P is not the identity in degree {i + 1} "
                               f"on the block of weights {weights}")
    return tuple(zip(P, scales))


@lru_cache(maxsize=None)
def _closed_form_block(weights: tuple, p: int, k: int) -> tuple:
    """Page k of one block: (dims, gens, diffs) with gens[i] the integral
    block cochains whose classes mod p form the basis of E_k^i, the kept
    columns of the adapted basis (a_t, then b_t, for p^k | s_t, then every
    h), and diffs[i] the matrix of d_k[x] = [dx / p^k] from degree i to
    i+1, which sends a_t to (s_t / p^k) b_t mod p."""
    q = p ** k
    basis = _adapted_basis(weights)
    kept = [[t for t, s in enumerate(scales) if s % q == 0]
            for _, scales in basis]
    dims, gens = [], []
    for i, (P, scales) in enumerate(basis):
        cols = P.columns()
        # the b_t follow the a_t, and the h follow the b_t
        kept_b, nb = (kept[i - 1], len(basis[i - 1][1])) if i else ((), 0)
        picked = ([cols[t] for t in kept[i]]
                  + [cols[len(scales) + t] for t in kept_b]
                  + cols[len(scales) + nb:])
        gens.append(IntMatrix._raw_columns(picked, P.nrows))
        dims.append(len(picked))
    diffs = []
    for i, (_, scales) in enumerate(basis[:-1]):
        cols = []
        for j, t in enumerate(kept[i]):
            col = [0] * dims[i + 1]
            col[len(kept[i + 1]) + j] = scales[t] // q % p
            cols.append(tuple(col))
        cols += [(0,) * dims[i + 1]] * (dims[i] - len(kept[i]))
        diffs.append(IntMatrix._raw_columns(cols, dims[i + 1]))
    diffs.append(IntMatrix.zeros(0, dims[-1]))
    return tuple(dims), tuple(gens), tuple(diffs)


def closed_form_page(r: int, n: int, p: int, k: int) -> SpectralPage:
    """Independent page computation from integer lattices.

    E_k^i = Z_k^i / (p Z_{k-1}^i + p^(1-k) d Z_{k-1}^(i-1)) with
    d_k[x] = [dx / p^k], on each Koszul block (_closed_form_block), and the
    page dims are the sums over the blocks, enumerated here one per
    weight beta, so that the oracle shares neither the engine's walk nor
    its block counts.  A block's page is read off its adapted basis [a | b
    | h] (d a_t = s_t b_t, d b = d h = 0; one certified Smith form per
    degree, _adapted_basis): it keeps a_t and b_t when p^k divides s_t, and
    every h.  Must agree degreewise, compatibly with d_k, with
    pages(...)[k-1].
    """
    check_prime(p)
    if r < 0 or n < 1 or k < 1:
        raise ValueError("need r >= 0, n >= 1 and k >= 1")
    dims = [0] * (min(n, r) + 1)
    for beta in _compositions_desc(n, r):
        weights = tuple(w for w in beta if w)
        for i, dim in enumerate(_closed_form_block(weights, p, k)[0]):
            dims[i] += dim
    return SpectralPage(r, n, p, k, tuple(dims))


def compare_with_closed_form(r: int, n: int, p: int,
                             kmax: int | None = None) -> list:
    """Check derived-couple pages against the closed-form oracle.

    For each page and each distinct block the canonical map sends a
    closed-form generator to the class of its cochain representative, moved
    by the block's transport, on the block's summand of the couple (the
    tower level of its key); the check demands equal dimensions,
    bijectivity, and conjugation of the differentials.  Returns one dict
    per page with an "ok" flag and a witness on failure (with the block
    weight beta when a single block fails).
    """
    if kmax is None:
        kmax = valuation(n, p) + 1
    chain = couples(r, n, p, kmax)
    results = []
    for k in range(1, kmax + 1):
        couple = chain[k - 1]
        cf = closed_form_page(r, n, p, k)
        report = {"k": k, "ok": True, "dims_derived": couple.dims,
                  "dims_closed_form": cf.dims}
        if couple.dims != cf.dims:
            report.update(ok=False, reason="dimension mismatch")
        else:
            failure = _block_oracle_failure(couple, k)
            if failure is not None:
                report.update(ok=False, **failure)
        results.append(report)
    return results


def _block_oracle_failure(couple: CoupleSum, k: int) -> Optional[dict]:
    """The first failure of the comparison on the blocks, or None.

    The oracle enumerates the blocks itself and checks each distinct
    ordered weight vector once, on its first block, against the summand of
    its key (a missing one fails on dimensions): the closed-form
    representatives, in the block's cochains, are moved by forward[i] of
    the block's transport onto the canonical block of the summand.  The oracle keeps
    the ordered weights as its key, while the engine computes once per
    (gcd, length) key, so every transport the pages use is checked here.
    Failures to conjugate the differentials come last, after every failure
    of dimensions, survival or bijectivity on some block.
    """
    conjugation = None
    seen = set()
    for beta in _compositions_desc(couple.n, couple.r):
        weights = tuple(w for w in beta if w)
        if weights in seen:
            continue
        seen.add(weights)
        beta = list(beta)
        summand = couple.summands.get(block_key(weights))
        dims, gens, diffs = _closed_form_block(weights, couple.p, k)
        if summand is None or dims != summand.dims:
            return {"reason": "dimension mismatch", "beta": beta}
        if not any(dims):
            # a zero page compares nothing, so it needs no transport
            continue
        failure = _page_isomorphism_failure(
            summand, [move @ gen for move, gen in
                      zip(transport(weights).forward, gens)],
            diffs.__getitem__)
        if failure is None:
            continue
        check, i, detail = failure
        if check == "survives":
            return {"reason": "class does not survive", "degree": i,
                    "generator": detail, "beta": beta}
        if check == "bijective":
            return {"reason": "comparison map not bijective", "degree": i,
                    "beta": beta}
        lhs, rhs = detail
        conjugation = conjugation or {
            "reason": "differentials not conjugate", "degree": i,
            "lhs": lhs.to_lists(), "rhs": rhs.to_lists(), "beta": beta}
    return conjugation


def _page_isomorphism_failure(couple: ExactCouple, sources: Sequence[IntMatrix],
                              source_d) -> Optional[tuple]:
    """Check that sending each column of sources[i] to its class on E^i of
    the couple is an isomorphism of complexes, source_d(i) being the source
    differential.

    Returns None on success, else the first failure as (check, degree,
    detail): ("survives", i, column index), ("bijective", i, class matrix)
    or ("conjugates", i, (lhs, rhs)).
    """
    p = couple.p
    phis = []
    for i, cochains in enumerate(sources):
        phi, failed = class_matrix(partial(couple.express_cochain, i),
                                   cochains, couple.e_dim(i))
        if phi is None:
            return "survives", i, failed
        if modp.rank(phi, p) != cochains.ncols:
            return "bijective", i, phi
        phis.append(phi)
    for i in range(couple.imax):
        lhs = (phis[i + 1] @ source_d(i)).mod(p)
        rhs = (couple.d_matrix(i) @ phis[i]).mod(p)
        if lhs != rhs:
            return "conjugates", i, (lhs, rhs)
    return None


# -- page identification (Cartier composite) ------------------------------------


def block_identification_failure(couple: CoupleSum, q: int) -> Optional[dict]:
    """The witness of the first failure of the page identification on the
    blocks, or None.

    Each distinct ordered weights w of degree n/q is paired with its
    multiple q*w of degree n (derham.weight_pairs).  Both blocks of a pair
    share their transport (checked per pair), so the identification is
    checked once per key pair, on the canonical tower level
    (_identification); only a failing pair is checked again, on its unit
    cochains moved by forward[i] of its transport, for a witness in its
    own cells.  The witness carries the weight of the first block of q*w,
    (q*w, 0, ..., 0), and, for a class that does not survive, the basis
    index of its cell in degree n.  Failures to conjugate the differentials
    come last, after every failure of a cocycle check or of bijectivity in
    some degree (a class that does not survive, a class matrix of low
    rank, a nonzero page on a block that is no q-multiple).
    """
    pairs, others = weight_pairs(couple.r, couple.n // q, q)
    conjugation = None
    for weights, multiple in pairs:
        beta = first_block(multiple, couple.r)
        move = transport(multiple)
        if transport(weights) != move:
            return {"check": "shares transport", "beta": list(beta)}
        key = block_key(multiple)
        verdict = _identification(block_key(weights), key, couple.p,
                                  couple.level)
        if verdict is None or verdict[0] == "conjugates" and conjugation:
            continue
        if verdict[0] == "cocycle":
            return {"check": "cocycle", "degree": verdict[1],
                    "beta": list(beta)}
        failure = _page_isomorphism_failure(
            couple.summands[key], move.forward, partial(koszul_d, weights))
        if failure is None or failure[:2] != verdict:
            raise RuntimeError(f"block {list(beta)} and its key pair "
                               f"disagree on the page identification")
        check, i, detail = failure
        witness = {"degree": i, "beta": list(beta)}
        if check == "survives":
            return {"check": "class survives", **witness,
                    "cell": basis_index(beta, i, detail)}
        if check == "bijective":
            return {"check": "bijective", **witness,
                    "matrix": detail.to_lists()}
        lhs, rhs = detail
        conjugation = {"check": "conjugates d", **witness,
                       "lhs": lhs.to_lists(), "rhs": rhs.to_lists()}
    nonzero = [key for key in others if any(couple.summands[key].dims)]
    for beta, key in first_blocks(couple.r, couple.n, nonzero):
        return {"check": "bijective", "beta": list(beta),
                "page": list(couple.summands[key].dims)}
    return conjugation


@lru_cache(maxsize=None)
def _identification(source_key: tuple, key: tuple, p: int,
                    level: int) -> Optional[tuple]:
    """The first failure of the page identification on the canonical pair
    of the keys, as (check, degree), or None: the unit cochains of the
    canonical block of key, which the Cartier composite sends the cells of
    the canonical block of source_key to, are mod-p cocycles ("cocycle"),
    and sending them to their classes on page `level` of its tower is an
    isomorphism of complexes ("survives", "bijective", "conjugates").

    A block gamma of source_key and its multiple q*gamma of key share
    their transport Lambda(A), which conjugates both block differentials
    into the canonical ones and the unit cochains of q*gamma into
    invertible combinations of the canonical unit cochains.  So the pair
    fails exactly when the canonical pair does, in the same check and
    degree.
    """
    weights = canonical_weights(key)
    ds = [koszul_d(weights, i) for i in range(key[1] + 1)]
    for i, d in enumerate(ds):
        if not d.mod(p).is_zero():
            return "cocycle", i
    failure = _page_isomorphism_failure(
        _block_level(key, p, level), [IntMatrix.identity(d.ncols) for d in ds],
        partial(koszul_d, canonical_weights(source_key)))
    return None if failure is None else failure[:2]

"""Bockstein exact couples of the de Rham complex and their derived pages.

The couple at a prime p is H --(xp)--> H --(reduce)--> H(mod p) --(del)-->,
generated by the short exact coefficient sequence for multiplication by p.
Deriving it repeatedly yields the spectral-sequence pages; a closed-form
lattice computation of the same pages serves as an independent oracle.
The couple, every derived couple and the oracle are direct sums over the
multidegree blocks of the complex, and are computed block by block
(CoupleSum).

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
    preimage_basis,
    quotient,
)
from .cohomology import (
    BlockHomology,
    block_homology,
    block_modp_homology,
    modp_homology,
)
from .derham import (
    block_pairs,
    canonical_weights,
    koszul_blocks,
    koszul_d,
)
from .intlinalg import IntMatrix, lattice_solve
from .modp import check_prime, valuation


class ExactnessError(RuntimeError):
    """An exact couple failed its exactness certificate."""


class ExactCouple:
    """One stage of the Bockstein tower of one Koszul block at a prime p.

    weights label the block; the engine builds every tower level on the
    canonical block of its key (_block_level), so they are the canonical
    weights (g, 0, ..., 0).  A couple is fixed by its groups D^i, its pages
    stages[i] and the matrices of j and k (k raises the degree by one and
    lands in the zero group at the top).  The constructor derives the rest
    once: E^i = (Z/p)^dim, i = p on each D^i, the three maps (each checked
    well defined here) and the page differentials (j k) mod p, certified to
    square to zero.  stages[i] is E^i as a mod-p subquotient: of the block
    cochains at level 1, of the parent's E^i (by the parent's differential)
    at later levels; parent points to the couple this one was derived from.
    """

    def __init__(self, weights, p, level, D, stages, j_matrices, k_matrices,
                 parent=None):
        self.weights = weights
        self.p = p
        self.level = level
        self.D = tuple(D)
        self.stages = tuple(stages)
        self.parent = parent
        self.imax = len(self.D) - 1
        self.dims = tuple(st.dim for st in self.stages)
        self.E = tuple(FgAbGroup((p,) * dim) for dim in self.dims)
        self.i_maps = tuple(Homomorphism(G, G, diagonal_matrix((p,) * G.ngens))
                            for G in self.D)
        self.j_maps = tuple(map(Homomorphism, self.D, self.E, j_matrices))
        self.k_maps = tuple(map(Homomorphism, self.E,
                                self.D[1:] + (FgAbGroup.zero(),), k_matrices))
        self._d = tuple((j.matrix @ k.matrix).mod(p)
                        for j, k in zip(self.j_maps[1:], self.k_maps))
        if any(not (d1 @ d0).mod(p).is_zero()
               for d0, d1 in zip(self._d, self._d[1:])):
            raise RuntimeError("page differential does not square to zero")

    def e_dim(self, i: int) -> int:
        return self.dims[i] if 0 <= i <= self.imax else 0

    def d_matrix(self, i: int) -> IntMatrix:
        """The page differential j∘k: E^i -> E^(i+1), entries reduced mod p;
        the zero map outside 0 <= i < imax."""
        if not 0 <= i < self.imax:
            return IntMatrix.zeros(self.e_dim(i + 1), self.e_dim(i))
        return self._d[i]

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
        return failures

    def check_exactness(self) -> None:
        failures = self.exactness_failures()
        if failures:
            label, i, witness = failures[0]
            raise ExactnessError(
                f"couple level {self.level} of weights {self.weights} at "
                f"p={self.p} fails {label} in degree {i}; witness {witness}")


class CoupleSum:
    """The couple of the total-degree-n complex as a direct sum of block
    couples.

    d, the Bockstein maps and every derived couple respect the
    multidegree, so the couple is the direct sum over the Koszul blocks
    (derham.koszul_blocks) of their own couples: summands[b] is the tower
    level of the key of blocks[b] (_block_level; blocks of one key share
    one object), and blocks[b].transport carries the block's cochains to
    that level's.  Its groups, maps and page differentials are those of
    the summands and are never assembled.  A direct sum is exact (and its
    maps well defined) exactly when every summand is, so those
    certificates run on the summands, once per key.
    """

    def __init__(self, r, n, p, level, blocks, summands):
        self.r = r
        self.n = n
        self.p = p
        self.level = level
        self.imax = min(n, r)
        self.blocks = tuple(blocks)
        self.summands = tuple(summands)
        dims = [0] * (self.imax + 1)
        for summand in self.summands:
            for i, dim in enumerate(summand.dims):
                dims[i] += dim
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
        cols = []
        for rep in mp[i].reps:
            dv = koszul_d(weights, i).apply(rep)
            if any(v % p for v in dv):
                raise RuntimeError("d of a mod-p cocycle lift not divisible by p")
            coords = (lattice_solve(H[i + 1].gens, [v // p for v in dv])
                      if i < top else ())
            if coords is None:
                raise RuntimeError("(d z~)/p is not an integral cocycle")
            # reduced modulo the orders of the generators
            cols.append([v % d if d else v for v, d in zip(coords, orders)])
        k_matrices.append(IntMatrix.from_columns(cols, len(orders)))
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
    """
    c.check_exactness()
    p = c.p
    # E' = ker d / im d with d = j∘k, handled entirely mod p
    stages = [modp_homology(c.d_matrix(i - 1), c.d_matrix(i), p)
              for i in range(c.imax + 1)]

    j_matrices = []
    for D, j, stage in zip(c.D, c.j_maps, stages):
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
            cols.append([v % p for v in coords])
        j_matrices.append(IntMatrix.from_columns(cols, stage.dim))

    k_matrices = []
    for k, stage in zip(c.k_maps, stages):
        # k' lands in im(i) = pG for the target G of k (0 at the top)
        G = k.target
        matrix, _ = class_matrix(
            partial(express_through, diagonal_matrix((p,) * G.ngens),
                    G.relations),
            k.matrix @ stage.rep_matrix(), G.ngens)
        if matrix is None:
            raise ExactnessError("k of a surviving class misses im(i)")
        k_matrices.append(matrix)

    return ExactCouple(c.weights, p, c.level + 1,
                       [FgAbGroup(d // gcd(d, p) for d in D.entries)
                        for D in c.D], stages,
                       j_matrices, k_matrices, parent=c)


def couples(r: int, n: int, p: int, upto: int) -> list:
    """The first `upto` couples (levels 1..upto) for (r, n, p), each the
    direct sum of the same level of the blocks' towers (_block_level)."""
    check_prime(p)
    if n < 1:
        raise ValueError("total degree must be >= 1")
    if upto < 1:
        raise ValueError("upto must be >= 1")
    blocks = koszul_blocks(r, n)
    # level by level, so each level finds the one below it cached
    return [CoupleSum(r, n, p, level, blocks,
                      [_block_level(blk.key, p, level) for blk in blocks])
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


def _weights(blk) -> tuple:
    return tuple(w for w in blk.beta if w)


@lru_cache(maxsize=None)
def _oracle_d(weights: tuple) -> tuple:
    """d^0 .. d^s on the block of the ordered nonzero weights w: degree-i
    cells x^(w - 1_T) dx_T, T an i-subset of {1..s} in colex order.

    d(x^a dx_T) = sum over j not in T of a_j x^(a - e_j) dx_j ^ dx_T, and
    dx_j ^ dx_T = (-1)^(position of j in T + j) dx_(T + j).
    """
    s = len(weights)
    cells = [sorted(combinations(range(1, s + 1), i), key=lambda T: T[::-1])
             for i in range(s + 2)]
    ds = []
    for i in range(s + 1):
        index = {T: c for c, T in enumerate(cells[i + 1])}
        cols = []
        for T in cells[i]:
            a = [w - (j in T) for j, w in enumerate(weights, 1)]
            col = [0] * len(cells[i + 1])
            for j in range(1, s + 1):
                if j not in T:
                    U = tuple(sorted(T + (j,)))
                    col[index[U]] += (-1) ** U.index(j) * a[j - 1]
            cols.append(col)
        ds.append(IntMatrix.from_columns(cols, len(cells[i + 1])))
    for i in range(s):
        if not (ds[i + 1] @ ds[i]).is_zero():
            raise AssertionError(f"d∘d != 0 on the block of weights "
                                 f"{weights}")
    return tuple(ds)


@lru_cache(maxsize=None)
def _z_basis(weights: tuple, p: int, j: int, i: int) -> IntMatrix:
    """Basis of Z_j = {x in degree i of the block : dx in p^j * (degree
    i+1)}."""
    d = _oracle_d(weights)[i]
    if j == 0:
        return IntMatrix.identity(d.ncols)
    return preimage_basis(d, (p ** j) * IntMatrix.identity(d.nrows))


def _closed_form_degree(weights: tuple, p: int, k: int, i: int):
    """Minimal presentation data of Z_k / (p Z_{k-1} + p^(1-k) d Z_{k-1})
    in degree i of the block."""
    N = _z_basis(weights, p, k, i)
    N_prev = _z_basis(weights, p, k - 1, i)
    den_cols = [tuple(p * v for v in col) for col in N_prev.columns()]
    if i >= 1:
        d = _oracle_d(weights)[i - 1]
        scale = p ** (k - 1)
        for col in _z_basis(weights, p, k - 1, i - 1).columns():
            dv = d.apply(col)
            if any(v % scale for v in dv):
                raise RuntimeError("denominator column is not divisible")
            den_cols.append(tuple(v // scale for v in dv))
    relations, _ = class_matrix(partial(lattice_solve, N),
                                IntMatrix.from_columns(den_cols, N.nrows),
                                N.ncols)
    if relations is None:
        raise RuntimeError("denominator does not lie in the numerator")
    G, U, Uinv = quotient(relations)
    diag = G.entries
    if any(d not in (1, p) for d in diag):
        raise RuntimeError(
            f"closed-form page not elementary abelian at degree {i}: {diag}")
    kept = tuple(idx for idx, d in enumerate(diag) if d == p)
    return N, U, Uinv, kept


@lru_cache(maxsize=None)
def _closed_form_block(weights: tuple, p: int, k: int) -> tuple:
    """Page k of one block: (dims, reps, diffs) with reps[i] the mod-p
    block cochains of the generators of E_k^i and diffs[i] the matrix of
    d_k[x] = [dx / p^k] from degree i to i+1."""
    d = _oracle_d(weights)
    top = len(weights)
    data = [_closed_form_degree(weights, p, k, i) for i in range(top + 1)]
    dims = tuple(len(kept) for (_, _, _, kept) in data)
    scale = p ** k
    gens = [[N.apply(Uinv.col(idx)) for idx in kept]
            for (N, _, Uinv, kept) in data]
    reps = tuple(IntMatrix.from_columns([[v % p for v in x] for x in xs],
                                        d[i].ncols)
                 for i, xs in enumerate(gens))
    diffs = []
    for i in range(top):
        N_next, U_next, _, kept_next = data[i + 1]
        cols = []
        for x in gens[i]:
            dv = d[i].apply(x)
            if any(v % scale for v in dv):
                raise RuntimeError("d of a Z_k element not divisible by p^k")
            y = lattice_solve(N_next, tuple(v // scale for v in dv))
            if y is None:
                raise RuntimeError("d_k image left the numerator lattice")
            full = U_next.apply(y)
            cols.append([full[t] % p for t in kept_next])
        diffs.append(IntMatrix.from_columns(cols, dims[i + 1]))
    diffs.append(IntMatrix.zeros(0, dims[top]))
    return dims, reps, tuple(diffs)


def closed_form_page(r: int, n: int, p: int, k: int) -> SpectralPage:
    """Independent page computation from integer lattices.

    E_k^i = Z_k^i / (p Z_{k-1}^i + p^(1-k) d Z_{k-1}^(i-1)) with
    d_k[x] = [dx / p^k]; Z lattices come from Hermite forms of [d | -p^k I]
    on each Koszul block (_closed_form_block), and the page dims are the
    sums over the blocks.  Must agree degreewise, compatibly with d_k, with
    pages(...)[k-1].
    """
    check_prime(p)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    dims = [0] * (min(n, r) + 1)
    for blk in koszul_blocks(r, n):
        for i, dim in enumerate(_closed_form_block(_weights(blk), p, k)[0]):
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

    Each distinct ordered weight vector is checked once, against the
    summand of its first block: the closed-form representatives, in the
    block's cochains, are moved by forward[i] of the block's transport onto
    the canonical block of the summand.  The oracle keeps the ordered
    weights as its key, while the engine computes once per (gcd, length)
    key, so every transport the pages use is checked here.
    Failures to conjugate the differentials come last, after every failure
    of dimensions, survival or bijectivity on some block.
    """
    conjugation = None
    seen = set()
    for blk, summand in zip(couple.blocks, couple.summands):
        weights = _weights(blk)
        if weights in seen:
            continue
        seen.add(weights)
        beta = list(blk.beta)
        dims, reps, diffs = _closed_form_block(weights, couple.p, k)
        if dims != summand.dims:
            return {"reason": "dimension mismatch", "beta": beta}
        if not any(dims):
            # a zero page compares nothing, so it needs no transport
            continue
        failure = _page_isomorphism_failure(
            summand, [move @ rep for move, rep in
                      zip(blk.transport.forward, reps)], diffs.__getitem__)
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


def block_identification_failure(couple: CoupleSum, sources: Sequence,
                                 q: int) -> Optional[dict]:
    """The witness of the first failure of the page identification on the
    blocks, or None.

    sources are the blocks of degree n/q; each distinct one is paired with
    its block q*gamma of couple.  Both blocks of a pair share their
    transport (checked per pair), so the identification is checked once
    per key pair, on the canonical tower level (_identification); only a
    failing pair is checked again, on its unit cochains moved by forward[i]
    of its transport, for a witness in its own cells.  The witness carries
    the block weight and, for a class that does not survive, the basis
    index of its cell in degree n.  Failures to conjugate the differentials
    come last, after every failure of a cocycle check or of bijectivity in
    some degree (a class that does not survive, a class matrix of low rank,
    a nonzero page on a block that is no q-multiple).
    """
    pairs, others = block_pairs(sources, couple.blocks, q)
    conjugation = None
    for b, c in pairs:
        src, blk = sources[b], couple.blocks[c]
        if src.transport != blk.transport:
            return {"check": "shares transport", "beta": list(blk.beta)}
        verdict = _identification(src.key, blk.key, couple.p, couple.level)
        if verdict is None or verdict[0] == "conjugates" and conjugation:
            continue
        if verdict[0] == "cocycle":
            return {"check": "cocycle", "degree": verdict[1],
                    "beta": list(blk.beta)}
        failure = _page_isomorphism_failure(
            couple.summands[c], blk.transport.forward, src.d)
        if failure is None or failure[:2] != verdict:
            raise RuntimeError(f"block {list(blk.beta)} and its key pair "
                               f"disagree on the page identification")
        check, i, detail = failure
        witness = {"degree": i, "beta": list(blk.beta)}
        if check == "survives":
            return {"check": "class survives", **witness,
                    "cell": blk.basis_index(i, detail)}
        if check == "bijective":
            return {"check": "bijective", **witness,
                    "matrix": detail.to_lists()}
        lhs, rhs = detail
        conjugation = {"check": "conjugates d", **witness,
                       "lhs": lhs.to_lists(), "rhs": rhs.to_lists()}
    for c in others:
        if any(couple.summands[c].dims):
            return {"check": "bijective", "beta": list(couple.blocks[c].beta),
                    "page": list(couple.summands[c].dims)}
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
    for i in range(key[1] + 1):
        if not koszul_d(weights, i).mod(p).is_zero():
            return "cocycle", i
    failure = _page_isomorphism_failure(
        _block_level(key, p, level),
        [IntMatrix.identity(koszul_d(weights, i).ncols)
         for i in range(key[1] + 1)],
        partial(koszul_d, canonical_weights(source_key)))
    return None if failure is None else failure[:2]

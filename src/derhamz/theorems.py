"""Machine-checked verification of the structure theorems, over sweeps.

Each verifier turns one statement into exact matrix and group equalities
and returns a replayable report; a failing report always carries a witness
(parameters plus the offending vector or matrix) sufficient to reproduce
the failure in isolation.

Every statement walks the distinct ordered weights w of the blocks
(derham.ordered_weights), never the blocks themselves; a witness names the
first block (w, 0, ..., 0) of its weights.  A statement about a block pair
(w, p*w) is computed once per pair of keys, on the canonical blocks
(_frobenius, _cartier_classes, ...): the two blocks share their transport,
which each ordered pair checks before it reads the key pair's result.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple, Optional

from . import bockstein
from .abgroups import (
    FgAbGroup,
    Homomorphism,
    class_matrix,
    corestrict,
    graded_piece_dim,
    induced_map,
    is_isomorphic,
    primary_inclusion,
    primary_part,
    subgroup_pk,
)
from .cohomology import (
    block_homology,
    cartier_iso,
    cocycle_dim,
    integral_cohomology,
    modp_cohomology,
)
from .derham import (
    block_key,
    canonical_weights,
    dim_formula,
    first_block,
    first_blocks,
    koszul_d,
    koszul_kappa,
    ordered_weights,
    transport,
    weight_pairs,
)
from .intlinalg import IntMatrix
from .modp import check_prime, primes_dividing, primes_up_to, valuation

STATEMENTS = ("annihilation", "cartier", "couple_morphism", "frobenius_iso",
              "page_identification", "filtration", "example_deg4")


class VerificationReport(NamedTuple("VerificationReport", [
        ("statement", str), ("params", tuple), ("status", str),
        ("checks", tuple), ("witness", Optional[dict])])):
    """params and checks are ordered (name, value) and (name, passed)
    pairs, status is "pass" or "fail", and a failing report needs a
    witness."""

    __slots__ = ()

    def __new__(cls, statement, params, status, checks, witness=None):
        if status == "fail" and witness is None:
            raise ValueError("failing report without a witness")
        return super().__new__(cls, statement, params, status, checks, witness)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        doc = self._asdict()
        doc["params"] = dict(self.params)
        doc["checks"] = [{"name": name, "passed": passed}
                         for name, passed in self.checks]
        if self.witness is None:
            del doc["witness"]
        return doc


class _Checks:
    """Accumulates named checks and the first failure witness."""

    def __init__(self):
        self.items = []
        self.witness = None

    def add(self, name: str, passed: bool, witness: dict | None = None):
        self.items.append((name, bool(passed)))
        if not passed and self.witness is None:
            self.witness = witness if witness is not None else {"check": name}
        return passed

    def add_all(self, name: str, witnesses) -> bool:
        """One check run on many blocks: it passes when no block gives a
        failure witness, and keeps the first one."""
        witnesses = list(witnesses)
        return self.add(name, not witnesses,
                        witnesses[0] if witnesses else None)

    def report(self, statement: str, params) -> VerificationReport:
        status = "pass" if all(p for _, p in self.items) else "fail"
        return VerificationReport(statement, tuple(params), status,
                                  tuple(self.items),
                                  self.witness if status == "fail" else None)


def verify_annihilation(r: int, n: int) -> VerificationReport:
    """Total degree n kills cohomology: the Euler identity d k + k d = n
    holds in every degree, and every H^i is finite with n H^i = 0.

    d and kappa respect the weight, so the Euler identity is checked on
    each distinct ordered weights w (derham.ordered_weights), with the
    block's own d and kappa, through the Clifford relations
    (_uncertified_degrees): kappa and the d of each
    unit weight vector anticommute to the identity, once per (length,
    degree), and the block's d is the weighted sum of the unit d, so
    kappa d + d kappa is |w| times the identity.  Only a degree where that
    certificate fails multiplies out kappa d + d kappa (_euler_witness).
    H^i is the direct sum of the blocks' H^i, so n kills its generators
    when it kills those of each distinct key's H^i."""
    if r < 0 or n < 0:
        raise ValueError("need r >= 0 and n >= 0")
    checks = _Checks()
    top = min(n, r)
    walk = ordered_weights(r, n)
    uncertified = [(weights, _uncertified_degrees(weights))
                   for weights in walk]
    for i in range(top + 1):
        witnesses = (_euler_witness(weights, r, i, degrees[i])
                     for weights, degrees in uncertified if i in degrees)
        checks.add_all(f"euler identity degree {i}",
                       (witness for witness in witnesses if witness))
    H = integral_cohomology(r, n)
    if n == 0:
        checks.add("degree 0 gives Z",
                   H.group(0).free_rank == 1 and not H.group(0).invariant_factors,
                   {"group": H.group(0).describe()})
        return checks.report("annihilation", (("r", r), ("n", n)))
    keys = {block_key(weights) for weights in walk}
    for i in range(top + 1):
        G = H.group(i)
        checks.add(f"H^{i} finite", G.free_rank == 0,
                   {"degree": i, "free_rank": G.free_rank})
        checks.add(f"n * H^{i} = 0",
                   all(n % d == 0 for d in G.invariant_factors),
                   {"degree": i, "factors": list(G.invariant_factors)})
        groups = [block_homology(key)[i].group for key in keys
                  if i <= key[1]]
        killed = all(
            B.element_is_zero([n if t == j else 0 for t in range(B.ngens)])
            for B in groups for j in range(B.ngens))
        checks.add(f"n kills the generators of H^{i}", killed, {"degree": i})
    return checks.report("annihilation", (("r", r), ("n", n)))


@lru_cache(maxsize=None)
def _clifford_units(s: int, i: int) -> tuple:
    """The Clifford relations of the unit weight vectors e_j of length s in
    degree i, and the unit differentials: (holds, terms), holds whether
    kappa D_j + D_j kappa is the identity for every D_j = d of e_j, terms
    the nonzero entries (j, row, column, value) of every D_j^i."""
    units = [tuple(int(t == j) for t in range(s)) for j in range(s)]
    holds = all((koszul_kappa(s, i + 1) @ koszul_d(e, i)
                 + koszul_d(e, i - 1) @ koszul_kappa(s, i)).is_identity()
                for e in units)
    terms = tuple((j, k, c, v) for j, e in enumerate(units)
                  for k, row in enumerate(koszul_d(e, i).to_lists())
                  for c, v in enumerate(row) if v)
    return holds, terms


def _uncertified_degrees(weights: tuple) -> dict:
    """The degrees of the block of the ordered weights w where the Clifford
    certificate of the Euler identity fails, each mapped to whether d_w is
    the weighted sum of the unit d there.

    d is linear in the weights and kappa does not depend on them, so where
    d_w^i and d_w^(i-1) are the sums of w_j D_j^i and w_j D_j^(i-1) and
    the unit relations kappa D_j + D_j kappa = 1 hold in degree i,
    kappa d_w + d_w kappa = sum_j w_j = |w| in degree i.  Each sum is
    checked entrywise: a linear combination, not a product."""
    s = len(weights)
    uncertified = {}
    summed_below = True      # d^-1 is the zero map for every weights
    for i in range(s + 1):
        holds, terms = _clifford_units(s, i)
        d = koszul_d(weights, i)
        rows = [[0] * d.ncols for _ in range(d.nrows)]
        for j, k, c, v in terms:
            rows[k][c] += weights[j] * v
        summed = rows == d.to_lists()
        if not (holds and summed and summed_below):
            uncertified[i] = summed and summed_below
        summed_below = summed
    return uncertified


def _euler_witness(weights: tuple, r: int, i: int,
                   linear: bool) -> Optional[dict]:
    """The witness of the Euler identity in degree i on the block of the
    ordered weights w in r variables, whose Clifford certificate fails
    there: kappa d + d kappa multiplied out, when it is not |w| times the
    identity (|w| is the total degree); else, when the block d is no
    weighted sum of the unit d (linear is False), that failure; else
    None."""
    s = len(weights)
    euler = (koszul_kappa(s, i + 1) @ koszul_d(weights, i)
             + koszul_d(weights, i - 1) @ koszul_kappa(s, i))
    beta = first_block(weights, r)
    if not euler.is_identity(sum(weights)):
        return _at(i, beta, matrix=euler.to_lists())
    if not linear:
        return _at(i, beta, check="d is the weighted sum of the unit d")
    return None


def verify_cartier(r: int, n: int, p: int) -> VerificationReport:
    """The inverse Cartier map is bijective in every degree; mod-p cohomology
    vanishes when p does not divide the total degree.  Bijectivity is
    certified per block pair (cohomology.cartier_iso)."""
    check_prime(p)
    checks = _Checks()
    top = min(n, r)
    for i in range(top + 2):
        try:
            cartier_iso(r, n, i, p)
            checks.add(f"cartier bijective degree {i}", True)
        except RuntimeError as exc:
            checks.add(f"cartier bijective degree {i}", False,
                       {"degree": i, "error": str(exc)})
    if n >= 1 and n % p:
        dims = modp_cohomology(r, n, p).dims
        checks.add("mod-p cohomology vanishes (p does not divide n)",
                   all(d == 0 for d in dims), {"dims": list(dims)})
    return checks.report("cartier", (("r", r), ("n", n), ("p", p)))


def _keyed_pairs(r: int, n: int, p: int):
    """derham.weight_pairs(r, n, p), each pair (w, p*w) as (beta, key of w,
    key of p*w, shared): beta is the first block of w, which its witnesses
    name, and shared its one check of its own, that the two blocks share
    their transport (the same primitive weight vector).  Read on the
    canonical blocks of the two keys, the cell map of the pair is then
    forward[i] (of p*w) times the identity times backward[i] (of w), the
    identity that derham.transport certified once.  So every result of the
    pair is the result of its key pair, computed once per key pair on the
    canonical blocks.
    """
    pairs, others = weight_pairs(r, n, p)
    return ([(first_block(w, r), block_key(w), block_key(multiple),
              transport(w) == transport(multiple)) for w, multiple in pairs],
            others)


def _on_pair(i: int, beta: tuple, shared: bool, result: tuple):
    """A key-pair result (value, failure detail) read on the pair of block
    beta in degree i: (value, None), or (None, witness at beta), with a
    matrix of the cached detail written out anew for each witness.  A pair
    that does not share its transport fails with that as its error."""
    value, failure = result if shared else (None, {
        "error": "the block and its multiple do not share their transport"})
    if failure is None:
        return value, None
    return None, _at(i, beta, **{
        name: detail.to_lists() if isinstance(detail, IntMatrix) else detail
        for name, detail in failure.items()})


@lru_cache(maxsize=None)
def _frobenius(src_key: tuple, tgt_key: tuple, p: int, i: int,
               literal: bool) -> tuple:
    """The map H^i(src) -> H^i(tgt) of the canonical blocks of a key pair
    ((g, s), (p*g, s)) induced by scale times the identity on cells
    (derham.weight_pairs).

    The literal Frobenius F_* has scale p^i, and its images are checked to
    be cocycles.  The vertical map p * (divided Frobenius) has scale p: the
    divided Frobenius (the Cartier representative, F without its p^i
    factor) sends cocycles to cocycles but is only well defined on
    cohomology after one multiplication by p.  In degree 1 the two
    coincide.

    Returns (map, None), or (None, {"error": ...}) when induced_map fails
    (an image is no cocycle, or has no class).
    """
    h_src = block_homology(src_key)[i]
    h_tgt = block_homology(tgt_key)[i]
    cells = (p ** i if literal else p) * IntMatrix.identity(h_src.gens.nrows)
    d_out = koszul_d(canonical_weights(tgt_key), i) if literal else None
    try:
        return induced_map(cells, h_src, h_tgt, tgt_d_out=d_out), None
    except (ValueError, RuntimeError) as exc:
        return None, {"error": str(exc)}


@lru_cache(maxsize=None)
def _frobenius_into(src_key: tuple, tgt_key: tuple, p: int, i: int,
                    literal: bool) -> tuple:
    """_frobenius corestricted to pH^i of the target block, the D^i of its
    derived couple: (map, None), or (None, failure detail) when the map
    fails or does not land there."""
    f, failure = _frobenius(src_key, tgt_key, p, i, literal)
    if f is None:
        return None, failure
    cor = corestrict(f, *subgroup_pk(f.target, p, 1))
    if cor is None:
        return None, {"matrix": f.matrix}
    return cor, None


@lru_cache(maxsize=None)
def _cartier_classes(src_key: tuple, tgt_key: tuple, p: int,
                     i: int) -> tuple:
    """The E-side map E_1^i -> E_2^i of the couple morphism on the
    canonical blocks of a key pair: the Cartier representative is the
    identity on block cells, so it sends the level-1 representatives of
    src to their classes on the level-2 page of tgt.  Returns (map, None),
    or (None, {"generator": j}) for the first representative j whose class
    does not survive to E_2."""
    C = bockstein._block_level(src_key, p, 1)
    S = bockstein._block_level(tgt_key, p, 2)
    matrix, failed = class_matrix(partial(S.express_cochain, i),
                                  C.stages[i].rep_matrix(), S.e_dim(i))
    if matrix is None:
        return None, {"generator": failed}
    return Homomorphism(C.E[i], S.E[i], matrix), None


@lru_cache(maxsize=None)
def _squares(src_key: tuple, tgt_key: tuple, p: int, i: int) -> tuple:
    """The squares with i, j and k of the couple morphism that do not
    commute in degree i on the canonical blocks of a key pair, and whether
    its E-side map is bijective there.  Needs the vertical maps of degrees
    i and i + 1 and the E-side map of degree i to exist."""
    C = bockstein._block_level(src_key, p, 1)
    S = bockstein._block_level(tgt_key, p, 2)
    d = _frobenius_into(src_key, tgt_key, p, i, False)[0]
    e = _cartier_classes(src_key, tgt_key, p, i)[0]
    # a block and its p-multiple have the same top degree, where k lands in
    # the zero group on both sides
    d_next = (_frobenius_into(src_key, tgt_key, p, i + 1, False)[0]
              if i < C.imax else
              Homomorphism.zero(FgAbGroup.zero(), FgAbGroup.zero()))
    broken = tuple(square for square, holds in (
        ("i", d @ C.i_maps[i] == S.i_maps[i] @ d),
        ("j", e @ C.j_maps[i] == S.j_maps[i] @ d),
        ("k", d_next @ C.k_maps[i] == S.k_maps[i] @ e)) if not holds)
    return broken, e.is_isomorphism()


def _at(i: int, beta: tuple, **detail) -> dict:
    """A witness in degree i on the block of weight beta, carrying it."""
    return {"degree": i, "beta": list(beta), **detail}


def verify_couple_morphism(r: int, n: int, p: int) -> VerificationReport:
    """Frobenius-induced morphism from the Bockstein couple of degree n to
    the derived couple of degree p*n.

    Checks: F_* images are divisible by p; the vertical map p * (divided
    Frobenius), which equals F_* in degree 1, makes all three squares
    commute; and the E-side map induced by the Cartier representative is
    bijective.  (The literal F_* carries an extra p^(i-1) in degree i, so
    it cannot itself close the j and k squares outside degree 1.)

    Both couples are direct sums of block couples and the morphism sends
    block beta to block p*beta, so every check runs on each distinct block
    pair, aggregated per degree: the pair checks that its blocks share
    their transport, and reads every map, square and bijectivity test of
    its key pair, computed once per key pair on the canonical tower levels
    (_frobenius_into, _cartier_classes, _squares).  Bijectivity also needs
    the derived couple of every other block of degree p*n to have a zero
    E."""
    check_prime(p)
    if n < 1:
        raise ValueError("need n >= 1")
    checks = _Checks()
    top = min(n, r)
    pairs, others = _keyed_pairs(r, n, p)

    complete = True          # every pair has its vertical and E-side maps
    for i in range(top + 1):
        # per pair: (block, F_* into pH, its failure witness, and the same
        # two for the vertical map g)
        row = [(beta, *_on_pair(i, beta, shared, _frobenius_into(
                    src, tgt, p, i, True)),
                *_on_pair(i, beta, shared, _frobenius_into(
                    src, tgt, p, i, False)))
               for beta, src, tgt, shared in pairs if i <= src[1]]
        divisible = checks.add_all(
            f"F_* image divisible by p, degree {i}",
            (miss for _, _, miss, _, _ in row if miss))
        lands = checks.add_all(
            f"vertical map lands in pH, degree {i}",
            (miss for *_, miss in row if miss))
        if i == 1 and divisible and lands:
            checks.add_all("vertical map equals F_* in degree 1",
                           (_at(i, beta) for beta, cor_f, _, cor, _ in row
                            if cor_f != cor))
        complete &= lands

    for i in range(top + 1):
        lost = []
        for beta, src, tgt, shared in pairs:
            if i <= src[1]:
                _, miss = _on_pair(i, beta, shared, _cartier_classes(
                    src, tgt, p, i))
                if miss:
                    lost.append(miss)
        complete &= checks.add_all(
            f"cartier image survives to E_2, degree {i}", lost)

    if not complete:
        return checks.report("couple_morphism",
                             (("r", r), ("n", n), ("p", p)))
    for i in range(top + 1):
        broken = {"i": [], "j": [], "k": []}
        bijective = []
        for beta, src, tgt, _ in pairs:
            if i > src[1]:
                continue
            failed, iso = _squares(src, tgt, p, i)
            for square in failed:
                broken[square].append(_at(i, beta, square=square))
            if not iso:
                e = _cartier_classes(src, tgt, p, i)[0]
                bijective.append(_at(i, beta, matrix=e.matrix.to_lists()))
        for square, failures in broken.items():
            checks.add_all(f"square with {square} commutes, degree {i}",
                           failures)
        checks.add_all(f"E_1 -> E_2 bijective, degree {i}", bijective + [
            _at(i, beta, dims=bockstein._block_level(key, p, 2).e_dim(i))
            for beta, key in first_blocks(r, p * n, [
                key for key in others
                if bockstein._block_level(key, p, 2).e_dim(i)])])
    return checks.report("couple_morphism", (("r", r), ("n", n), ("p", p)))


@lru_cache(maxsize=None)
def _restriction(src_key: tuple, tgt_key: tuple, p: int, i: int) -> tuple:
    """The vertical map of a key pair restricted to the p-primary part PA
    of H^i of the source and corestricted to the p-primary part PpB of
    pH^i of the target, on the canonical blocks: (PA, PpB, g, h,
    bijective), g the restriction, h its corestriction (None when g does
    not land in PpB) and bijective whether h is an isomorphism; None when
    the vertical map fails."""
    f = _frobenius(src_key, tgt_key, p, i, False)[0]
    if f is None:
        return None
    PA, inclA = primary_inclusion(f.source, p)
    pB, incl_pB = subgroup_pk(f.target, p, 1)
    PpB, incl2 = primary_inclusion(pB, p)
    g = f @ inclA
    h = corestrict(g, PpB, incl_pB @ incl2)
    return PA, PpB, g, h, h is not None and h.is_isomorphism()


@lru_cache(maxsize=None)
def _unhit(key: tuple, p: int, i: int) -> FgAbGroup:
    """The p-primary part of p * H^i of the canonical block of the key."""
    return primary_part(subgroup_pk(block_homology(key)[i].group, p, 1)[0],
                        p)


def verify_frobenius_iso(r: int, n: int, p: int) -> VerificationReport:
    """The Frobenius vertical map restricts to an isomorphism from the
    p-primary part of H^i in degree n onto the p-primary part of p * H^i
    in degree p*n.

    The vertical map is the couple-morphism normalization p * (divided
    Frobenius); it equals the literal F_* in degree 1, which is checked.
    (The literal F_* carries p^i on i-forms and is the zero map already on
    H^2 in small cases, so it cannot restrict to this isomorphism outside
    degree 1.)

    The p-primary part of a direct sum is the sum of the p-primary parts,
    so the map is checked on each distinct block pair (beta, p*beta): the
    pair checks that its blocks share their transport and reads the
    restriction of its key pair, computed once per key pair on the
    canonical blocks (_restriction).  Every other block of degree p*n
    must have a zero p-primary part of p * H^i (_unhit, once per key)."""
    check_prime(p)
    if n < 1:
        raise ValueError("need n >= 1")
    checks = _Checks()
    pairs, others = _keyed_pairs(r, n, p)
    for i in range(min(n, r) + 1):
        row = []             # (block, keys, vertical map, restriction)
        broken = []          # witnesses of vertical maps that fail
        for beta, src, tgt, shared in pairs:
            if i > src[1]:
                continue
            f, witness = _on_pair(i, beta, shared, _frobenius(
                src, tgt, p, i, False))
            if f is None:
                broken.append(witness)
                continue
            row.append((beta, (src, tgt), f, _restriction(src, tgt, p, i)))
        if i == 1:
            literal = [(beta, f, *_on_pair(i, beta, True, _frobenius(
                           *keys, p, i, True)))
                       for beta, keys, f, _ in row]
            checks.add_all("vertical map equals F_* in degree 1", (
                witness or _at(i, beta)
                for beta, f, lit, witness in literal if lit != f))
        if not checks.add_all(
                f"image lands in p-primary of pH, degree {i}", broken + [
                    _at(i, beta, matrix=g.matrix.to_lists())
                    for beta, _, _, (_, _, g, h, _) in row if h is None]):
            continue
        checks.add_all(f"restricted map bijective, degree {i}", [
            _at(i, beta, source=PA.describe(), target=PpB.describe(),
                matrix=h.matrix.to_lists())
            for beta, _, _, (PA, PpB, _, h, bijective) in row
            if not bijective] + [
            _at(i, beta, target=_unhit(key, p, i).describe())
            for beta, key in first_blocks(r, p * n, [
                key for key in others
                if i <= key[1] and not _unhit(key, p, i).is_trivial])])
    return checks.report("frobenius_iso", (("r", r), ("n", n), ("p", p)))


def verify_page_identification(r: int, n: int, p: int,
                               k: int) -> VerificationReport:
    """Identify page k with the mod-p de Rham complex of total degree n/p^k.

    The explicit map composes k Cartier cochain representatives.  In block
    coordinates it is the identity from block gamma of degree m = n/p^k to
    block p^k*gamma of degree n (derham.weight_pairs), so it is checked on
    each distinct block pair (bockstein.block_identification_failure),
    which shares its transport and reads the check of its key pair, run
    once per key pair on the canonical tower level: its columns are mod-p
    cocycles, and it is an isomorphism of complexes, bijective per degree
    and conjugating the block d into d_k.  Every other block of degree n
    has a weight not divisible by p^k, and its page k must be zero.  At
    k = nu_p(n) the next page must vanish.
    """
    check_prime(p)
    nu = valuation(n, p)
    if not 1 <= k <= nu:
        raise ValueError(f"need 1 <= k <= nu_p(n) = {nu}")
    m = n // p ** k
    # at k = nu one call builds page k and the page beyond it
    chain = bockstein.couples(r, n, p, k + (k == nu))
    couple = chain[k - 1]
    checks = _Checks()
    source = tuple(dim_formula(r, m, i) for i in range(couple.imax + 1))
    agree = checks.add("dimensions agree", source == couple.dims,
                       {"check": "dimensions", "source": list(source),
                        "page": list(couple.dims)})
    witness = bockstein.block_identification_failure(
        couple, p ** k) if agree else None
    degreewise = agree and (witness is None
                            or witness["check"] == "conjugates d")
    checks.add("cartier composite is an isomorphism per degree", degreewise,
               witness)
    if (degreewise and checks.add("conjugates the differential",
                                  witness is None, witness) and k == nu):
        nxt = chain[k].dims
        checks.add("page beyond nu vanishes", not any(nxt),
                   {"check": "vanishing", "dims": list(nxt)})
    return checks.report(
        "page_identification",
        (("r", r), ("n", n), ("p", p), ("k", k)))


def verify_filtration(r: int, n: int) -> VerificationReport:
    """The p-adic filtration of H^i has graded dimensions equal to the
    cocycle dimensions of the degree n/p^k complexes, vanishing outside
    0 < k <= nu_p(n) and i > 0; the groups rebuilt from those dimensions
    must be isomorphic to the computed cohomology."""
    if n < 1:
        raise ValueError("need n >= 1")
    checks = _Checks()
    H = integral_cohomology(r, n)
    top = min(n, r)
    for i in range(top + 1):
        G = H.group(i)
        rebuilt_per_prime = []
        rebuild_ok = True
        for p in primes_dividing(n):
            nu = valuation(n, p)
            predicted = {}
            for k in range(1, nu + 2):
                lhs = graded_piece_dim(G, p, k)
                if i > 0 and k <= nu:
                    rhs = cocycle_dim(r, n // p ** k, i, p)
                else:
                    rhs = 0
                predicted[k] = rhs
                checks.add(
                    f"graded dim = cocycle dim (i={i}, p={p}, k={k})",
                    lhs == rhs,
                    {"degree": i, "p": p, "k": k, "graded": lhs,
                     "cocycles": rhs})
            # rebuild from the predicted dimensions, so this check carries
            # the theorem's content instead of echoing the computed group
            factors = []
            for k in range(1, nu + 1):
                count = predicted[k] - predicted.get(k + 1, 0)
                if count < 0:
                    rebuild_ok = False
                    break
                factors.extend([p ** k] * count)
            if not rebuild_ok:
                break
            rebuilt_per_prime.append(FgAbGroup(factors))
        if rebuild_ok:
            rebuilt = FgAbGroup.zero().direct_sum(*rebuilt_per_prime)
            rebuild_ok = is_isomorphic(rebuilt, G)
            rebuilt_desc = rebuilt.describe()
        else:
            rebuilt_desc = "(inconsistent predicted dimensions)"
        checks.add(
            f"reconstruction matches H^{i}", rebuild_ok,
            {"degree": i, "reconstructed": rebuilt_desc,
             "computed": G.describe()})
    return checks.report("filtration", (("r", r), ("n", n)))


def verify_example_deg4(r: int) -> VerificationReport:
    """Golden structure of total degree 4: H^1 is (Z/4)^r + (Z/2)^C(r,2),
    H^2 is (Z/2)^C(r,2), and nothing else survives."""
    if r < 1:
        raise ValueError("need r >= 1")
    checks = _Checks()
    H = integral_cohomology(r, 4)
    half = r * (r - 1) // 2
    expected1 = FgAbGroup([4] * r + [2] * half)
    expected2 = FgAbGroup([2] * half)
    checks.add("H^1 matches", is_isomorphic(H.group(1), expected1),
               {"computed": H.group(1).describe(),
                "expected": expected1.describe()})
    checks.add("H^2 matches", is_isomorphic(H.group(2), expected2),
               {"computed": H.group(2).describe(),
                "expected": expected2.describe()})
    for i in (0,) + tuple(range(3, min(4, r) + 1)):
        checks.add(f"H^{i} trivial", H.group(i).is_trivial,
                   {"degree": i, "group": H.group(i).describe()})
    if r >= 2:
        checks.add("H^2 has the exterior-square mod 2 dimension",
                   len(H.group(2).invariant_factors) == half
                   and graded_piece_dim(H.group(2), 2, 1) == half,
                   {"half": half})
    return checks.report("example_deg4", (("r", r),))


def sweep(rmax: int, nmax: int, statements=STATEMENTS) -> list:
    """Every verification of the given statements over r <= rmax,
    n <= nmax; Frobenius and couple statements are bounded by p * n <= nmax.
    Reports come back in a fixed order sorted by statement and parameters;
    failures are data, not exceptions.  Only the given statements'
    verifiers run."""
    reports = [globals()[f"verify_{statement}"](*args)
               for statement, args in _sweep_cases(rmax, nmax)
               if statement in statements]
    reports.sort(key=lambda rep: (rep.statement, rep.params))
    return reports


def _sweep_cases(rmax: int, nmax: int):
    """(statement, arguments) of every check of a sweep."""
    for r in range(1, rmax + 1):
        for n in range(1, nmax + 1):
            yield "annihilation", (r, n)
            for p in primes_up_to(nmax // n):
                yield "cartier", (r, n, p)
                yield "couple_morphism", (r, n, p)
                yield "frobenius_iso", (r, n, p)
            for p in primes_dividing(n):
                for k in range(1, valuation(n, p) + 1):
                    yield "page_identification", (r, n, p, k)
            yield "filtration", (r, n)
        if nmax >= 4:
            yield "example_deg4", (r,)

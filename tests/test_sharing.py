"""Per-block results are computed once per key, the (gcd, length) of the
block's ordered nonzero weights.

Every block computation runs on the canonical block of its key, cached by
the key (and the prime), across all (r, n) and all statements; a block of
ordered weights reaches it through its transport, certified once per
primitive weight vector.  The counting tests run in child interpreters, so
the caches start cold: each block result is computed once, and the results
do not depend on which (r, n) computed them first.  A hypothesis test
checks that a transported block is the block built directly on its own d.
A couple holds the tower level of each key itself, with no per-block
copy, and the closed-form oracle, which never reads a transport, catches
a transport whose two directions are swapped; it computes one adapted
basis per ordered block (one Smith form per positive degree), shared by
all its pages, and no integer quotient or lattice solve.

The statement checks on a block pair (beta, q*beta) are computed once per
key pair, on the canonical blocks, since both blocks share their
transport: a child counts the computations, and a hypothesis test checks
that the key-pair results are the pair's results in its own ordered
coordinates (dense_oracle.ordered_*).

A couple is a value: its record (the maps, d∘d = 0, the exactness
certificate and the derived content) is built once per distinct content
(p, D, dims, j, k), so a child counts each content certified exact and
derived once, a stationary level reads the record of the level below, and
mod-p homology is shared by blocks whose d agree mod p.  A hypothesis test
checks every shared tower level against the unshared reference
(dense_oracle.unshared_tower).
"""

import json
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from derhamz import bockstein, derham, theorems
from derhamz.abgroups import class_matrix, homology_at
from derhamz.bockstein import (
    _block_level,
    compare_with_closed_form,
    couples,
    derive,
)
from derhamz.cohomology import block_homology, block_modp_homology
from derhamz.derham import block_key, koszul_d, transport
from derhamz.intlinalg import hnf, hstack, lattice_solve
from derhamz.modp import rank, valuation

from dense_oracle import (
    direct_couple,
    koszul_blocks,
    ordered_cartier_classes,
    ordered_frobenius,
    ordered_identification,
    unshared_tower,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

COUNT_CALLS = """
import json
from collections import Counter
from derhamz import bockstein, cohomology, theorems
from derhamz.derham import (block_key, canonical_weights, koszul_d,
                            ordered_weights)

calls = {"homology_at": Counter(), "derive": Counter(),
         "modp_homology": Counter()}

def counting(name, key):
    fn = getattr(module[name], name)
    def wrapper(*args):
        calls[name][key(*args)] += 1
        return fn(*args)
    setattr(module[name], name, wrapper)

module = {"homology_at": cohomology, "derive": bockstein,
          "modp_homology": cohomology}
# the cohomology binding: homology_at on block differentials
counting("homology_at", lambda d_in, d_out: (d_in, d_out))
counting("derive", lambda c: (c.weights, c.p, c.level))
# the cohomology binding: modp_homology on block differentials (derive
# calls it through its own binding, on page differentials)
counting("modp_homology", lambda d_in, d_out, p: (d_in, d_out, p))
theorems.sweep(3, 8)
keys = {block_key(w) for r in range(1, 4) for n in range(1, 9)
        for w in ordered_weights(r, n)}
canonical_d = {koszul_d(canonical_weights(key), i)
               for key in keys for i in range(key[1] + 1)}
print(json.dumps({
    "most_repeated": {name: max(c.values()) for name, c in calls.items()},
    "homology_calls": sum(calls["homology_at"].values()),
    "key_degrees": sum(s + 1 for _, s in keys),
    "off_key": [str(d_out) for d_out in
                [d for _, d in calls["homology_at"]]
                + [d for _, d, _ in calls["modp_homology"]]
                if d_out not in canonical_d],
    "ordered_derives": [str(w) for w, _, _ in calls["derive"]
                        if w != canonical_weights(block_key(w))],
}))
"""

PAGE_COUNTS = """
import contextlib
import io
import json
from collections import Counter
from derhamz import bockstein, cli
from derhamz.derham import block_key, ordered_weights

calls = Counter()
for name in ("_block_couple", "derive"):
    def wrapper(*args, _fn=getattr(bockstein, name), _name=name):
        calls[_name] += 1
        return _fn(*args)
    setattr(bockstein, name, wrapper)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["pages", "-r", "3", "-n", "12", "-p", "2"]) == 0
print(json.dumps({"calls": calls,
                  "keys": len({block_key(w) for w in ordered_weights(3, 12)}),
                  "ordered": len(ordered_weights(3, 12))}))
"""

CONTENT_COUNTS = """
import contextlib
import io
import json
from collections import Counter
from derhamz import bockstein, cli, theorems

calls = {"derive": 0, "certified": Counter(), "derived": Counter()}
real_derive = bockstein.derive

def derive(c):
    calls["derive"] += 1
    return real_derive(c)

bockstein.derive = derive
# the record's own computations, counted per record
for name, label in (("_find_failures", "certified"), ("_derive", "derived")):
    def counted(record, _fn=getattr(bockstein._Content, name), _label=label):
        calls[_label][id(record)] += 1
        return _fn(record)
    setattr(bockstein._Content, name, counted)
RUN
print(json.dumps({"derive": calls["derive"],
                  "certified": sorted(calls["certified"].values()),
                  "derived": sorted(calls["derived"].values()),
                  "same_records": calls["certified"].keys()
                                  == calls["derived"].keys()}))
"""

PAIR_COUNTS = """
import json
from collections import Counter
from derhamz import bockstein, theorems
from derhamz.derham import block_key, canonical_weights, ordered_weights
from derhamz.modp import primes_dividing, primes_up_to, valuation

calls = {"frobenius": Counter(), "cartier": Counter(),
         "identification": Counter()}

def counting(module, name, label, key):
    fn = getattr(module, name)
    def wrapper(*args, **kwargs):
        calls[label][key(*args, **kwargs)] += 1
        return fn(*args, **kwargs)
    setattr(module, name, wrapper)

# the theorems bindings: induced_map builds the Frobenius block maps and
# class_matrix the E-side class matrices; _page_isomorphism_failure runs
# the page identification on a tower level.  The arguments of induced_map
# do not tell key tuples apart (every H^0 is zero), so it counts by the
# identity of its source and target groups
counting(theorems, "induced_map", "frobenius",
         lambda cells, src, tgt, tgt_d_out=None: (id(src), id(tgt), cells,
                                                  tgt_d_out))
counting(theorems, "class_matrix", "cartier",
         lambda express, cols, dim: (express.func.__self__.weights,
                                     express.func.__self__.p,
                                     express.func.__self__.level,
                                     express.args, cols))
counting(bockstein, "_page_isomorphism_failure", "identification",
         lambda couple, sources, source_d: (couple.weights, couple.p,
                                            couple.level, source_d.args))
theorems.sweep(3, 8)

# the key tuples of the sweep's block pairs
frobenius, cartier, identification = set(), set(), set()
for r in range(1, 4):
    for n in range(1, 9):
        for p in primes_up_to(8 // n):
            for w in ordered_weights(r, n):
                src, tgt = block_key(w), block_key(tuple(p * x for x in w))
                for i in range(len(w) + 1):
                    cartier.add((src, tgt, p, i))
                    frobenius |= {(src, tgt, p, i, literal)
                                  for literal in (True, False)}
        for p in primes_dividing(n):
            for k in range(1, valuation(n, p) + 1):
                identification |= {
                    (block_key(w), block_key(tuple(p ** k * x for x in w)),
                     p, k)
                    for w in ordered_weights(r, n // p ** k)}
canonical = lambda w: w == canonical_weights(block_key(w))
print(json.dumps({
    "most_repeated": {name: max(c.values()) for name, c in calls.items()},
    "computed": {name: sum(c.values()) for name, c in calls.items()},
    "key_tuples": {"frobenius": len(frobenius), "cartier": len(cartier),
                   "identification": len(identification)},
    "ordered": [str(key) for key in calls["cartier"]
                if not canonical(key[0])]
               + [str(key) for key in calls["identification"]
                  if not canonical(key[0]) or not canonical(key[3][0])],
}))
"""

WALK_COUNTS = """
import json
from collections import Counter
from functools import lru_cache
from derhamz import cohomology, theorems
from derhamz.derham import ordered_weights
from derhamz.modp import primes_up_to

calls = {"units": Counter(), "verdicts": Counter(), "cartier": Counter(),
         "multiplied_out": Counter()}

def counted(label, fn):
    def wrapper(*args):
        calls[label][repr(args)] += 1
        return fn(*args)
    return wrapper

# each cached computation behind a fresh cache that counts its misses, bound
# under every name its callers read it by
units = lru_cache(maxsize=None)(
    counted("units", theorems._clifford_units.__wrapped__))
theorems._clifford_units = units
theorems._uncertified_degrees = lru_cache(maxsize=None)(
    counted("verdicts", theorems._uncertified_degrees.__wrapped__))
cartier = lru_cache(maxsize=None)(
    counted("cartier", cohomology._cartier_classes.__wrapped__))
cohomology._cartier_classes = cartier
witness = theorems._euler_witness

def multiplied_out(weights, r, i, linear):
    calls["multiplied_out"][repr((weights, i))] += 1
    return witness(weights, r, i, linear)

theorems._euler_witness = multiplied_out
reports = theorems.sweep(3, 8)

# what the sweep needs: (s, i) of its blocks, the ordered weights of the
# annihilation statement and (weights, i, p) of the Cartier statement
lengths, walked, cartier_keys = set(), set(), set()
for r in range(1, 4):
    for n in range(1, 9):
        walked |= set(ordered_weights(r, n))
        lengths |= {len(w) for w in walked}
        for p in primes_up_to(8 // n):
            cartier_keys |= {(w, i, p) for w in ordered_weights(r, n)
                             for i in range(len(w) + 1)}
print(json.dumps({
    "most_repeated": {name: max(c.values(), default=0)
                      for name, c in calls.items()},
    "computed": {name: sorted(c) for name, c in calls.items()},
    "needed": {"units": sorted(repr((s, i)) for s in lengths
                               for i in range(s + 1)),
               "verdicts": sorted(repr((w,)) for w in walked),
               "cartier": sorted(map(repr, cartier_keys))},
    "annihilation_passes": all(rep.ok for rep in reports
                               if rep.statement == "annihilation"),
}))
"""

ORACLE_COUNTS = """
import json
from collections import Counter
from functools import lru_cache
from derhamz import abgroups, bockstein, cohomology, derham, intlinalg
from derhamz.derham import ordered_weights, transport
from derhamz.intlinalg import IntMatrix

# the engine's tower and the blocks' transports first, so that every call
# counted below is the oracle's
bockstein.couples(3, 8, 2, 4)
for w in ordered_weights(3, 8):
    transport(w)

adapted, snf_calls, hermite_inputs, solves = Counter(), [], [], Counter()

def counted(weights):
    adapted[repr(weights)] += 1
    return adapted_basis(weights)

def counted_snf(M):
    snf_calls.append(M.shape)
    return snf(M)

def recorded(M):
    hermite_inputs.append(M)
    return hnf_cached(M)

def tallied(name, real):
    def call(*args):
        solves[name] += 1
        return real(*args)
    return call

# a fresh cache that counts its misses, and the snf, Hermite kernel,
# quotient and lattice_solve the oracle could reach, each rebound under
# every name its callers read
adapted_basis = bockstein._adapted_basis.__wrapped__
bockstein._adapted_basis = lru_cache(maxsize=None)(counted)
snf = bockstein.snf
bockstein.snf = counted_snf
hnf_cached = intlinalg._hnf_cached
intlinalg._hnf_cached = recorded
for name in ("quotient", "lattice_solve"):
    for module in (abgroups, bockstein, cohomology, derham, intlinalg):
        if hasattr(module, name):
            setattr(module, name, tallied(name, getattr(module, name)))
reports = bockstein.compare_with_closed_form(3, 8, 2)

weights = set(ordered_weights(3, 8))
oracle_d = {bockstein._oracle_d(w)[i] for w in weights
            for i in range(len(w) + 1)}

def scaled_identity(M, m):
    q = M[0, 0]
    return q > 1 and all(M[a, b] == (q if a == b else 0)
                         for a in range(m) for b in range(m))

def d_next_to_scaled_identity(M):
    m, left = M.nrows, M.ncols - M.nrows
    if not 0 < m < M.ncols:
        return False
    rows = M.to_lists()
    return (IntMatrix([row[:left] for row in rows], left) in oracle_d
            and scaled_identity(IntMatrix([row[left:] for row in rows], m),
                                m))

print(json.dumps({
    "ok": all(rep["ok"] for rep in reports),
    "pages": len(reports),
    "most_repeated": max(adapted.values()),
    "computed": sorted(adapted),
    "needed": sorted(map(repr, weights)),
    "snf_calls": len(snf_calls),
    "positive_degrees": sum(map(len, weights)),
    "solves": solves,
    "hermite_of_d_and_scaled_identity": sum(map(d_next_to_scaled_identity,
                                                hermite_inputs)),
}))
"""

SWEEP = """
import json
from derhamz.bockstein import couples, pages
from derhamz.theorems import sweep
if {warm}:
    sweep(1, 8)
    couples(3, 8, 2, 4)
    pages(2, 8, 2)
print(json.dumps([rep.to_json_dict() for rep in sweep(3, 8)]))
"""


def _child(code: str) -> str:
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         timeout=120,
                         env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert run.returncode == 0, run.stderr.decode()[-800:]
    return run.stdout.decode()


def test_each_block_result_is_computed_once():
    # homology_at once per key (g, s) and degree, derive once per
    # (g, s, p, level), block mod-p homology once per (g, s, p), each on
    # the canonical block of the key
    counts = json.loads(_child(COUNT_CALLS))
    assert counts["most_repeated"] == {"homology_at": 1, "derive": 1,
                                       "modp_homology": 1}, counts
    assert counts["homology_calls"] == counts["key_degrees"], counts
    assert counts["off_key"] == [] and counts["ordered_derives"] == [], counts


def test_pages_builds_each_tower_level_once_per_key():
    # pages -r 3 -n 12 -p 2 derives up to page nu + 1 = 3: one level-1
    # couple and two derivations per key, not per ordered weights
    counts = json.loads(_child(PAGE_COUNTS))
    assert counts["keys"] == 10 and counts["ordered"] == 67, counts
    assert counts["calls"] == {"_block_couple": 10, "derive": 20}, counts


@pytest.mark.parametrize("run, calls, contents", [
    ("with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert cli.main(['pages', '-r', '3', '-n', '12', '-p', '2']) == 0",
     20, 11),
    ("bockstein.pages(4, 16, 2)", 44, 14),
    ("bockstein.pages(4, 16, 2, 3)", 22, 12),
    ("theorems.sweep(3, 8)", 36, 23),
], ids=["cli pages (3,12,2)", "pages(4,16,2)", "pages(4,16,2,3)",
        "sweep(3,8)"])
def test_each_couple_content_is_certified_and_derived_once(run, calls,
                                                           contents):
    # derive runs once per (key, p, level), but its certificate, its
    # checks and the derived content once per distinct content: the levels
    # past v_p(g) + 1 of a key of gcd g repeat a content (from level 1 when
    # p does not divide g), and keys share contents, e.g. (8, 2) at level
    # 2 and (4, 2) at level 1 at p = 2
    counts = json.loads(_child(CONTENT_COUNTS.replace("RUN", run)))
    assert counts["derive"] == calls, counts
    assert counts["certified"] == counts["derived"] == [1] * contents, counts
    assert counts["same_records"], counts


def test_a_stationary_level_reads_the_record_below():
    # key (1, 3) at p = 2: D = (0, Z/1, (Z/1)^2, Z/1) and zero pages, so
    # levels 2 and 3 have the content of level 1 and read its record
    first = _block_level((1, 3), 2, 1)
    assert [G.entries for G in first.D] == [(), (1,), (1, 1), (1,)]
    assert first.dims == (0, 0, 0, 0)
    for level in (2, 3):
        couple = _block_level((1, 3), 2, level)
        assert couple.level == level and couple.parent.level == level - 1
        assert couple.i_maps is first.i_maps, level


def test_blocks_equal_mod_p_share_their_modp_homology():
    # the canonical d of (2, 2), (4, 2) and (6, 2) vanish mod 2
    for key in ((4, 2), (6, 2)):
        for i in range(3):
            assert (block_modp_homology(key, 2)[i]
                    is block_modp_homology((2, 2), 2)[i]), (key, i)
    assert block_modp_homology((3, 2), 2)[1] is not \
        block_modp_homology((2, 2), 2)[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.sampled_from([2, 3, 5]))
def test_a_shared_tower_is_the_unshared_tower(g, s, p):
    # levels 1..4 of the tower of the key against the reference that
    # builds, certifies and derives every level afresh: the same groups,
    # pages, maps, page differentials and exactness verdicts, and the same
    # class of every unit cochain of the canonical block
    key = (g, s)
    reference = unshared_tower(key, p, 4)
    cells = [stage.dim_cochain for stage in reference[0].stages]
    for level, ref in enumerate(reference, 1):
        couple = _block_level(key, p, level)
        assert [G.entries for G in couple.D] == [G.entries for G in ref.D]
        assert couple.dims == ref.dims, level
        for i in range(ref.imax + 1):
            assert couple.j_maps[i].matrix == ref.j_maps[i].matrix, (level, i)
            assert couple.k_maps[i].matrix == ref.k_maps[i].matrix, (level, i)
        for i in range(-1, ref.imax + 1):
            assert couple.d_matrix(i) == ref.d_matrix(i), (level, i)
        assert couple.exactness_failures() == ref.exactness_failures()
        for i, n in enumerate(cells):
            for c in range(n):
                unit = tuple(int(t == c) for t in range(n))
                assert (couple.express_cochain(i, unit)
                        == ref.express_cochain(i, unit)), (level, i, c)


def test_each_block_pair_check_is_computed_once_per_key_pair():
    # over sweep(3, 8): the Frobenius block maps, the E-side class matrices
    # of the couple morphism and the page identifications are computed
    # once per key tuple (source key, target key, p, degree or level), each
    # on the canonical blocks, not once per ordered block pair
    counts = json.loads(_child(PAIR_COUNTS))
    assert counts["most_repeated"] == {"frobenius": 1, "cartier": 1,
                                       "identification": 1}, counts
    assert counts["computed"] == counts["key_tuples"], counts
    assert counts["ordered"] == [], counts


def test_the_statement_walk_pays_per_key_and_per_sweep():
    # over sweep(3, 8): the Clifford relations of the unit weights once per
    # (length, degree), the Euler verdict of each ordered weights once
    # whatever (r, n), kappa d + d kappa never multiplied out on a passing
    # sweep, and the Cartier class matrix of each ordered weights once per
    # (weights, degree, p) whatever r
    counts = json.loads(_child(WALK_COUNTS))
    assert counts["annihilation_passes"], counts
    assert counts["most_repeated"] == {"units": 1, "verdicts": 1,
                                       "cartier": 1,
                                       "multiplied_out": 0}, counts
    computed = counts["computed"]
    del computed["multiplied_out"]
    assert computed == counts["needed"], counts


def test_the_oracle_pays_one_smith_form_per_ordered_block_and_degree():
    # over compare_with_closed_form(3, 8, 2), pages 1..4: one certified
    # adapted basis per distinct ordered weights, whatever the page, built
    # from one snf per positive degree; no quotient, no lattice_solve and
    # no Hermite form of [d | p^j I]
    counts = json.loads(_child(ORACLE_COUNTS))
    assert counts["ok"] and counts["pages"] == 4, counts
    assert counts["most_repeated"] == 1, counts
    assert counts["computed"] == counts["needed"], counts
    assert counts["snf_calls"] == counts["positive_degrees"], counts
    assert counts["solves"] == {}, counts
    assert counts["hermite_of_d_and_scaled_identity"] == 0, counts


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.sampled_from([2, 3, 5]), st.integers(1, 2))
def test_a_block_pair_has_the_results_of_its_key_pair(weights, p, k):
    # the key-pair results against the ordered pair's own computation
    # through both transports: equal Frobenius map matrices (literal and
    # vertical) and E-side class matrices for (w, p*w), and the same page
    # identification verdict for (w, p^k w)
    weights = tuple(weights)
    keys = block_key(weights), block_key(tuple(p * w for w in weights)), p
    for i in range(len(weights) + 1):
        for literal in (True, False):
            f, failure = theorems._frobenius(*keys, i, literal)
            assert failure is None
            assert f.matrix == ordered_frobenius(weights, p, i,
                                                 literal).matrix, (i, literal)
        e, failure = theorems._cartier_classes(*keys, i)
        assert failure is None
        assert e.matrix == ordered_cartier_classes(weights, p, i), i
    multiple = block_key(tuple(p ** k * w for w in weights))
    assert (bockstein._identification(keys[0], multiple, p, k)
            == ordered_identification(weights, p, k))


def test_a_couple_holds_one_tower_level_per_key():
    # the summand of every block is the tower level of its key itself, not
    # a copy per ordered weights: at (4, 16) 11 keys at each level, each
    # with the number of its blocks
    counts = Counter(blk.key for blk in koszul_blocks(4, 16))
    assert len(counts) == 11
    for level, couple in enumerate(couples(4, 16, 2, 5), 1):
        assert couple.counts == counts
        assert couple.summands.keys() == counts.keys()
        for key, summand in couple.summands.items():
            assert summand is _block_level(key, 2, level), (key, level)


def test_the_oracle_catches_a_swapped_transport():
    # the closed-form oracle computes its pages without a transport, so a
    # transport that hands out Lambda(A^-1) as Lambda(A) (still inverse to
    # each other, but no longer a chain map onto the canonical block) makes
    # it disagree with the engine's pages on page 1, at (2, 6, 3) and at
    # (2, 8, 2)
    exterior = derham._exterior_transport

    def swapped(primitive):
        t = exterior(primitive)
        return t._replace(forward=t.backward, backward=t.forward)

    exterior.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(derham, "_exterior_transport", swapped)
        reports = [compare_with_closed_form(*rnp)
                   for rnp in ((2, 6, 3), (2, 8, 2))]
    exterior.cache_clear()
    for pages in reports:
        assert pages[0]["k"] == 1 and not pages[0]["ok"], pages


def test_results_do_not_depend_on_call_order():
    # a sharing key that is too coarse would hand one (r, n) the cached
    # block results of another
    cold = _child(SWEEP.format(warm=False))
    warm = _child(SWEEP.format(warm=True))
    assert cold == warm
    assert json.loads(cold)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.sampled_from([2, 3, 5]))
def test_a_transported_block_is_the_direct_block(weights, p):
    # the groups of the key's canonical block, moved to the block of the
    # ordered weights, against homology_at on the block's own d: the same
    # entries, and generators that span the same lattice modulo the
    # coboundaries, each killed by its order; then the tower of the direct
    # block (exact at every level) against the tower of the key: the same
    # page dims, and the direct level-1 pages, moved by the transport, map
    # isomorphically onto the key's classes
    weights = tuple(weights)
    t = transport(weights)
    key = block_key(weights)
    H = block_homology(key)
    for i in range(len(weights) + 1):
        d_in, d_out = koszul_d(weights, i - 1), koszul_d(weights, i)
        G, gens = homology_at(d_in, d_out)
        moved = t.backward[i] @ H[i].gens
        assert H[i].group.entries == G.entries
        assert (d_out @ moved).is_zero()
        assert hnf(hstack(moved, d_in))[0] == hnf(hstack(gens, d_in))[0]
        for col, order in zip(moved.columns(), G.entries):
            assert lattice_solve(d_in, [order * v for v in col]) is not None
    direct = direct_couple(weights, p)
    for i in range(direct.imax + 1):
        phi, _ = class_matrix(partial(_block_level(key, p, 1).express_cochain,
                                      i),
                              t.forward[i] @ direct.stages[i].rep_matrix(),
                              direct.e_dim(i))
        assert phi is not None and rank(phi, p) == direct.e_dim(i)
    for level in range(1, min(valuation(w, p) for w in weights) + 3):
        if level > 1:
            direct = derive(direct)
        direct.check_exactness()
        assert _block_level(key, p, level).dims == direct.dims, level

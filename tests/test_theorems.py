"""Verification harness: every statement on worked examples, plus the
documented failure set of the filtration statement."""

import json
from types import SimpleNamespace

import pytest

from derhamz import bockstein, cohomology, derham, theorems
from derhamz.abgroups import (
    FgAbGroup,
    Homomorphism,
    graded_piece_dim,
    homology_at,
    induced_map,
)
from derhamz.bockstein import couples
from derhamz.cli import main
from derhamz.cohomology import (
    ModpDegree,
    block_modp_homology,
    cocycle_dim,
    integral_cohomology,
)
from derhamz.derham import dim_formula
from derhamz.intlinalg import IntMatrix
from derhamz.modp import MAX_PRIME, primes_dividing, valuation
from derhamz.theorems import (
    VerificationReport,
    sweep,
    verify_annihilation,
    verify_cartier,
    verify_couple_morphism,
    verify_example_deg4,
    verify_filtration,
    verify_frobenius_iso,
    verify_page_identification,
)

from dense_oracle import (
    block_cells,
    complex_z,
    euler_checks,
    frobenius_matrix,
    koszul_blocks,
)


def cocycle_form_defect(r, m, i, p):
    """dim Z^i mod p in degree m minus the graded piece it stands for in the
    cocycle form of the filtration statement: sum_{j>i} (-1)^(j-i-1) dim H^j
    mod p of degree m, which Cartier makes the alternating sum of the form
    dimensions of degree m/p when p | m, and zero otherwise."""
    if m % p:
        return 0
    return sum((-1) ** (j - i - 1) * dim_formula(r, m // p, j)
               for j in range(i + 1, r + 1))


class TestAnnihilation:
    def test_spec_examples(self):
        assert verify_annihilation(3, 6).ok
        for n in range(1, 13):
            rep = verify_annihilation(1, n)
            assert rep.ok
        assert verify_annihilation(2, 0).ok

    def test_report_shape(self):
        rep = verify_annihilation(2, 4)
        assert rep.statement == "annihilation"
        assert rep.params == (("r", 2), ("n", 4))
        assert all(passed for _, passed in rep.checks)


@pytest.fixture
def cold_units():
    """Clears the unit Clifford relations before and after the test, so that
    a fault injected into kappa or into a unit d is read and does not
    outlive the test."""
    theorems._clifford_units.cache_clear()
    yield
    theorems._clifford_units.cache_clear()


def _replace(matrices: tuple, i: int, edit) -> tuple:
    """The matrices with the i-th one replaced by edit applied to its rows."""
    rows = matrices[i].to_lists()
    edit(rows)
    return matrices[:i] + (IntMatrix(rows),) + matrices[i + 1:]


def _flip(row, col):
    def edit(rows):
        assert rows[row][col]
        rows[row][col] = -rows[row][col]
    return edit


def _set_row(values):
    def edit(rows):
        rows[0] = list(values)
    return edit


class TestEulerCertificate:
    """The Euler identity is certified through the Clifford relations of the
    unit weights and the linearity of d in the weights; only a degree
    where the certificate fails multiplies out kappa d + d kappa, so every
    report must still be the multiplied-out one (dense_oracle.euler_checks)
    and every fault of the certificate's own data must fail the report."""

    @pytest.mark.parametrize("s, i, edit", [
        (2, 1, _flip(0, 1)),           # kappa^1 on two weights: (1, -1)
        (3, 2, _flip(1, 2)),
        (4, 3, _flip(0, 0)),
        # (2, 0) everywhere: the unit relations fail, yet kappa d + d kappa
        # is still 2 w_1 = |w| in degree 0 on the blocks of weights (a, a)
        (2, 1, _set_row((2, 0))),
    ])
    def test_a_wrong_kappa_gives_the_multiplied_out_reports(
            self, monkeypatch, cold_units, s, i, edit):
        contractions = derham._koszul_contractions
        monkeypatch.setattr(
            derham, "_koszul_contractions",
            lambda length: (_replace(contractions(length), i, edit)
                            if length == s else contractions(length)))
        failed = 0
        for r in range(1, 5):
            for n in range(1, 9):
                rep = verify_annihilation(r, n)
                checks, witness = euler_checks(r, n)
                assert rep.checks[:len(checks)] == tuple(checks), (r, n)
                if witness is not None:
                    assert rep.witness == witness, (r, n)
                    failed += 1
        assert failed
        assert not theorems._clifford_units(s, i - 1)[0]

    def test_a_wrong_unit_differential_fails_the_report(self, monkeypatch,
                                                        cold_units):
        # one entry of d^1 of the unit weights (0, 1, 0): every block of
        # three weights still multiplies out to |w|, but its d is no longer
        # the weighted sum of the unit d in degree 1, read in degrees 1 and 2
        differentials = derham._koszul_differentials

        def wrong(weights):
            ds = differentials(weights)
            if weights != (0, 1, 0):
                return ds
            return _replace(ds, 1, lambda rows: rows[0].__setitem__(0, 0))

        monkeypatch.setattr(derham, "_koszul_differentials", wrong)
        rep = verify_annihilation(3, 5)
        assert all(passed for _, passed in euler_checks(3, 5)[0])
        assert [name for name, passed in rep.checks if not passed] == [
            "euler identity degree 1", "euler identity degree 2"]
        assert rep.witness == {"degree": 1, "beta": [3, 1, 1],
                               "check": "d is the weighted sum of the unit d"}

    def test_a_wrong_block_differential_fails_the_report(self, monkeypatch,
                                                         cold_units):
        # one entry of d^0 of the block of weights (2, 1): 3 instead of 2
        differentials = derham._koszul_differentials

        def wrong(weights):
            ds = differentials(weights)
            if weights != (2, 1):
                return ds
            return _replace(ds, 0, lambda rows: rows[0].__setitem__(0, 3))

        assert verify_annihilation(2, 3).ok
        monkeypatch.setattr(derham, "_koszul_differentials", wrong)
        rep = verify_annihilation(2, 3)
        checks, witness = euler_checks(2, 3)
        assert not rep.ok and rep.checks[:len(checks)] == tuple(checks)
        assert rep.witness == witness == {"degree": 0, "beta": [2, 1],
                                          "matrix": [[4]]}


class TestCartier:
    def test_examples(self):
        assert verify_cartier(2, 2, 2).ok
        assert verify_cartier(2, 3, 2).ok   # includes the vanishing check
        assert verify_cartier(1, 1, 3).ok


class TestCoupleMorphism:
    def test_spec_examples(self):
        assert verify_couple_morphism(1, 2, 2).ok
        assert verify_couple_morphism(2, 2, 2).ok
        assert verify_couple_morphism(1, 3, 2).ok  # p does not divide n

    def test_deeper_target(self):
        assert verify_couple_morphism(2, 4, 2).ok


class TestFrobeniusIso:
    def test_golden_instance(self):
        rep = verify_frobenius_iso(1, 2, 2)
        assert rep.ok
        # Z/2 maps onto the 2-primary part of 2 * (Z/4), itself Z/2
        A = integral_cohomology(1, 2).group(1)
        B = integral_cohomology(1, 4).group(1)
        assert A.invariant_factors == (2,)
        assert B.invariant_factors == (4,)

    def test_both_sides_zero(self):
        assert verify_frobenius_iso(1, 3, 2).ok

    def test_odd_prime(self):
        assert verify_frobenius_iso(2, 2, 3).ok

    def test_literal_frobenius_vanishes_on_two_forms(self):
        # the un-normalized chain map multiplies 2-form classes by p^2 and
        # is already the zero map H^2(deg 4) -> H^2(deg 8) at p = 2, so the
        # primary-part isomorphism needs the normalized vertical map
        cpx4, cpx8 = complex_z(2, 4), complex_z(2, 8)
        f = induced_map(frobenius_matrix(2, 4, 2, 2),
                        homology_at(cpx4.d(1), cpx4.d(2)),
                        homology_at(cpx8.d(1), cpx8.d(2)),
                        tgt_d_out=cpx8.d(2))
        assert not f.source.is_trivial and not f.target.is_trivial
        assert f == Homomorphism.zero(f.source, f.target)
        assert verify_frobenius_iso(2, 4, 2).ok


class TestFiltration:
    def test_rank_two_degree_four(self):
        rep = verify_filtration(2, 4)
        assert rep.ok
        H = integral_cohomology(2, 4)
        assert graded_piece_dim(H.group(1), 2, 1) == 3
        assert graded_piece_dim(H.group(1), 2, 2) == 2
        assert graded_piece_dim(H.group(2), 2, 1) == 1
        assert graded_piece_dim(H.group(2), 2, 2) == 0

    def test_two_primes(self):
        assert verify_filtration(2, 6).ok

    def test_known_failure_set(self):
        # the cocycle form of the filtration statement is falsified exactly
        # where the slice n/p^k has higher mod-p cohomology, that is where
        # the defect formula is nonzero; the graded piece is ker(del), a
        # proper subspace of the cocycles there
        failing, predicted = set(), set()
        for r in (1, 2, 3):
            for n in range(1, 13):
                if not verify_filtration(r, n).ok:
                    failing.add((r, n))
                if any(cocycle_form_defect(r, n // p ** k, i, p)
                       for p in primes_dividing(n)
                       for k in range(1, valuation(n, p) + 1)
                       for i in range(1, min(n, r) + 1)):
                    predicted.add((r, n))
        assert failing == predicted == {(2, 8), (3, 8), (2, 12), (3, 12)}

    def test_cocycle_form_defect_is_higher_slice_cohomology(self):
        # criterion 8b explained exactly: with m = n/p^k, dim Z^i(m) mod p
        # minus the graded piece is sum_{j>i} (-1)^(j-i-1) dim H^j(m) mod p,
        # and Cartier makes that the alternating sum of the form dimensions
        # of degree m/p when p | m, zero otherwise
        cases, defects = 0, 0
        for r, nmax in ((1, 24), (2, 24), (3, 24), (4, 24)):
            for n in range(1, nmax + 1):
                H = integral_cohomology(r, n)
                for p in primes_dividing(n):
                    if p > MAX_PRIME:
                        continue
                    for k in range(1, valuation(n, p) + 1):
                        m = n // p ** k
                        for i in range(1, min(n, r) + 1):
                            defect = (cocycle_dim(r, m, i, p)
                                      - graded_piece_dim(H.group(i), p, k))
                            assert defect == cocycle_form_defect(
                                r, m, i, p), (r, n, p, k, i)
                            cases += 1
                            defects += defect != 0
        assert (cases, defects) == (416, 37)

    def test_failures_carry_witnesses(self):
        rep = verify_filtration(2, 8)
        assert not rep.ok
        assert rep.witness is not None
        assert rep.witness["graded"] == 5 and rep.witness["cocycles"] == 6

    def test_corrected_alternating_sum_formula(self):
        # dim p^(k-1)H^i/p^k H^i = sum_{j>=i} (-1)^(j-i) dim of the degree
        # n/p^k slice; this corrected closed form holds on the whole sweep
        for r in (1, 2, 3):
            for n in range(1, 13):
                H = integral_cohomology(r, n)
                for p in primes_dividing(n):
                    for k in range(1, valuation(n, p) + 1):
                        m = n // p ** k
                        for i in range(1, min(n, r) + 1):
                            predicted = sum(
                                (-1) ** (j - i) * dim_formula(r, m, j)
                                for j in range(i, min(m, r) + 1))
                            assert predicted == graded_piece_dim(
                                H.group(i), p, k), (r, n, p, k, i)


class TestPageIdentificationReport:
    def test_wrapped_report(self):
        rep = verify_page_identification(2, 4, 2, 1)
        assert rep.ok
        assert rep.statement == "page_identification"
        assert rep.params == (("r", 2), ("n", 4), ("p", 2), ("k", 1))
        assert [name for name, _ in rep.checks] == [
            "dimensions agree",
            "cartier composite is an isomorphism per degree",
            "conjugates the differential"]

    def test_block_failures(self, monkeypatch):
        # a failure to conjugate d fails only the last check; any other
        # block failure fails the per-degree check and skips the last one
        for check, names in (
                ("conjugates d", [("dimensions agree", True), (
                    "cartier composite is an isomorphism per degree", True),
                    ("conjugates the differential", False)]),
                ("bijective", [("dimensions agree", True), (
                    "cartier composite is an isomorphism per degree",
                    False)])):
            witness = {"check": check, "degree": 0, "beta": [4, 0]}
            monkeypatch.setattr(theorems.bockstein,
                                "block_identification_failure",
                                lambda *args: witness)
            rep = verify_page_identification(2, 4, 2, 1)
            assert list(rep.checks) == names and rep.witness == witness

    def test_class_that_does_not_survive_names_its_cell(self, monkeypatch,
                                                         cold_key_pairs):
        # one class of the key's canonical level-1 page that it cannot
        # express: the image of a cell of block (2, 2, 0) under the block's
        # transport; the key pair fails, and the witness, read on the
        # block's own summand, is that cell's index in the basis of degree 4
        (blk,) = [blk for blk in koszul_blocks(3, 4) if blk.beta == (2, 2, 0)]
        page = block_modp_homology(blk.key, 2)[1]
        unit = tuple(int(t == 1) for t in range(blk.d(1).ncols))
        lost = tuple(v % 2 for v in blk.transport.forward[1].apply(unit))
        express = ModpDegree.express
        monkeypatch.setattr(
            ModpDegree, "express",
            lambda self, z: None if self is page and tuple(
                v % 2 for v in z) == lost else express(self, z))
        rep = verify_page_identification(3, 4, 2, 1)
        assert ("cartier composite is an isomorphism per degree",
                False) in rep.checks
        assert rep.witness == {"check": "class survives", "degree": 1,
                               "beta": [2, 2, 0],
                               "cell": block_cells(blk, 1)[1]}


@pytest.fixture
def cold_key_pairs():
    """Clears the key-pair caches of the statement checks before and after
    the test, so that a fault injected into a key-pair computation is
    reached and does not outlive the test; calling it clears them again."""
    def clear():
        for cache in (theorems._frobenius, theorems._frobenius_into,
                      theorems._cartier_classes, theorems._squares,
                      theorems._restriction, theorems._unhit,
                      bockstein._identification):
            cache.cache_clear()
    clear()
    yield clear
    clear()


class TestBrokenBlockPairing:
    @pytest.mark.parametrize("error", [
        ValueError("image of a generator is not a cocycle"),
        RuntimeError("cocycle image could not be expressed in target "
                     "generators")])
    def test_failures_are_data(self, monkeypatch, capsys, cold_key_pairs,
                               error):
        # a key pair whose induced map cannot be built fails the check of
        # its degree that already exists on each of its block pairs, with
        # the error as witness
        def broken(*args, **kwargs):
            raise error

        passing = {name for statement in ("couple_morphism", "frobenius_iso")
                   for name, _ in getattr(theorems, f"verify_{statement}")(
                       1, 2, 2).checks}
        monkeypatch.setattr(theorems, "induced_map", broken)
        cold_key_pairs()
        for statement, check in (
                ("couple_morphism", "F_* image divisible by p, degree 0"),
                ("frobenius_iso",
                 "image lands in p-primary of pH, degree 0")):
            rep = getattr(theorems, f"verify_{statement}")(1, 2, 2)
            assert not rep.ok and (check, False) in rep.checks
            assert {name for name, _ in rep.checks} <= passing
            assert rep.witness == {"degree": 0, "beta": [2],
                                   "error": str(error)}
            code = main(["verify", "--statement", statement,
                         "-r", "1", "-n", "2"])
            out, err = capsys.readouterr()
            assert code == 1 and "Traceback" not in err
            assert json.loads(out)["results"]["failed"] >= 1


# Reports of failing statements with one fault injected, recorded before the
# statements walked ordered weights instead of enumerating blocks: the first
# failure and the beta of its witness must stay the ones found then.
IDENTIFICATION_WITNESSES = json.loads("""
{
 "page_identification [3, 8, 2, 1]": {
  "checks": [
   {"name": "dimensions agree", "passed": true},
   {"name": "cartier composite is an isomorphism per degree", "passed": false}
  ],
  "params": {"k": 1, "n": 8, "p": 2, "r": 3},
  "statement": "page_identification",
  "status": "fail",
  "witness": {"beta": [4, 4, 0], "check": "cocycle", "degree": 1}
 },
 "page_identification [3, 8, 2, 2]": {
  "checks": [
   {"name": "dimensions agree", "passed": true},
   {"name": "cartier composite is an isomorphism per degree", "passed": false}
  ],
  "params": {"k": 2, "n": 8, "p": 2, "r": 3},
  "statement": "page_identification",
  "status": "fail",
  "witness": {"beta": [4, 4, 0], "check": "cocycle", "degree": 1}
 },
 "page_identification [4, 12, 2, 1]": {
  "checks": [
   {"name": "dimensions agree", "passed": true},
   {"name": "cartier composite is an isomorphism per degree", "passed": false}
  ],
  "params": {"k": 1, "n": 12, "p": 2, "r": 4},
  "statement": "page_identification",
  "status": "fail",
  "witness": {"beta": [8, 4, 0, 0], "check": "cocycle", "degree": 1}
 },
 "page_identification [4, 12, 2, 2]": {
  "checks": [
   {"name": "dimensions agree", "passed": true},
   {"name": "cartier composite is an isomorphism per degree", "passed": false}
  ],
  "params": {"k": 2, "n": 12, "p": 2, "r": 4},
  "statement": "page_identification",
  "status": "fail",
  "witness": {"beta": [8, 4, 0, 0], "check": "cocycle", "degree": 1}
 }
}""")

TRANSPORT_WITNESSES = json.loads("""
{
 "couple_morphism [3, 4, 2]": {
  "checks": [
   {"name": "F_* image divisible by p, degree 0", "passed": false},
   {"name": "vertical map lands in pH, degree 0", "passed": false},
   {"name": "F_* image divisible by p, degree 1", "passed": false},
   {"name": "vertical map lands in pH, degree 1", "passed": false},
   {"name": "F_* image divisible by p, degree 2", "passed": false},
   {"name": "vertical map lands in pH, degree 2", "passed": false},
   {"name": "F_* image divisible by p, degree 3", "passed": true},
   {"name": "vertical map lands in pH, degree 3", "passed": true},
   {"name": "cartier image survives to E_2, degree 0", "passed": false},
   {"name": "cartier image survives to E_2, degree 1", "passed": false},
   {"name": "cartier image survives to E_2, degree 2", "passed": false},
   {"name": "cartier image survives to E_2, degree 3", "passed": true}
  ],
  "params": {"n": 4, "p": 2, "r": 3},
  "statement": "couple_morphism",
  "status": "fail",
  "witness": {"beta": [2, 2, 0], "degree": 0,
   "error": "the block and its multiple do not share their transport"}
 },
 "frobenius_iso [3, 4, 2]": {
  "checks": [
   {"name": "image lands in p-primary of pH, degree 0", "passed": false},
   {"name": "vertical map equals F_* in degree 1", "passed": true},
   {"name": "image lands in p-primary of pH, degree 1", "passed": false},
   {"name": "image lands in p-primary of pH, degree 2", "passed": false},
   {"name": "image lands in p-primary of pH, degree 3", "passed": true},
   {"name": "restricted map bijective, degree 3", "passed": true}
  ],
  "params": {"n": 4, "p": 2, "r": 3},
  "statement": "frobenius_iso",
  "status": "fail",
  "witness": {"beta": [2, 2, 0], "degree": 0,
   "error": "the block and its multiple do not share their transport"}
 },
 "page_identification [3, 8, 2, 1]": {
  "checks": [
   {"name": "dimensions agree", "passed": true},
   {"name": "cartier composite is an isomorphism per degree", "passed": false}
  ],
  "params": {"k": 1, "n": 8, "p": 2, "r": 3},
  "statement": "page_identification",
  "status": "fail",
  "witness": {"beta": [4, 4, 0], "check": "shares transport"}
 }
}""")

OTHER_WITNESSES = json.loads("""
{
 "frobenius_iso [3, 2, 2]": {
  "checks": [
   {"name": "image lands in p-primary of pH, degree 0", "passed": true},
   {"name": "restricted map bijective, degree 0", "passed": false},
   {"name": "vertical map equals F_* in degree 1", "passed": true},
   {"name": "image lands in p-primary of pH, degree 1", "passed": true},
   {"name": "restricted map bijective, degree 1", "passed": false},
   {"name": "image lands in p-primary of pH, degree 2", "passed": true},
   {"name": "restricted map bijective, degree 2", "passed": false}
  ],
  "params": {"n": 2, "p": 2, "r": 3},
  "statement": "frobenius_iso",
  "status": "fail",
  "witness": {"beta": [3, 1, 0], "degree": 0, "target": "Z/2"}
 },
 "identification": {"beta": [3, 1, 0], "check": "bijective",
                    "page": [0, 1, 0]}
}""")

CARTIER_OTHER_ERROR = (
    'mod-p H^1 of block (3, 1, 0) at (r=3, n=2, i=1, p=2) is '
    'nonzero, though p does not divide its weight')


def _replay(call: str) -> dict:
    """The report of a call written "frobenius_iso [3, 4, 2]"."""
    statement, args = call.split(" ", 1)
    return getattr(theorems, f"verify_{statement}")(
        *json.loads(args)).to_json_dict()


class TestWitnessOrder:
    def test_a_faulted_key_pair_names_the_first_block(self, monkeypatch):
        # the key pairs (4g, 2) fail their cocycle check: the first pair
        # (w, q*w) in the walk with such a target names (q*w, 0, ..., 0)
        identification = bockstein._identification

        def faulty(source_key, key, p, level):
            if key[1] == 2 and key[0] % 4 == 0:
                return "cocycle", 1
            return identification(source_key, key, p, level)

        monkeypatch.setattr(bockstein, "_identification", faulty)
        for call, report in IDENTIFICATION_WITNESSES.items():
            assert _replay(call) == report, call

    def test_a_pair_that_does_not_share_its_transport(self, monkeypatch):
        # the block of weights (4, 4) gets Lambda(A^-1) as Lambda(A), so
        # its pair with (2, 2) no longer shares a transport
        real = derham.transport

        def faulty(weights):
            t = real(weights)
            if weights == (4, 4):
                return t._replace(forward=t.backward, backward=t.forward)
            return t

        for module in (derham, bockstein, theorems):
            monkeypatch.setattr(module, "transport", faulty)
        for call, report in TRANSPORT_WITNESSES.items():
            assert _replay(call) == report, call

    def test_other_blocks_name_their_first_block(self, monkeypatch):
        # the blocks that are no p-multiple are checked per key; a failing
        # key (1, 2) is named by its first block of degree 4, (3, 1, 0)
        unhit = theorems._unhit
        monkeypatch.setattr(theorems, "_unhit", lambda key, p, i: FgAbGroup(
            (2,)) if key == (1, 2) else unhit(key, p, i))
        assert (_replay("frobenius_iso [3, 2, 2]")
                == OTHER_WITNESSES["frobenius_iso [3, 2, 2]"])
        couple = couples(3, 4, 2, 1)[0]
        couple.summands[1, 2] = SimpleNamespace(dims=(0, 1, 0))
        assert (bockstein.block_identification_failure(couple, 2)
                == OTHER_WITNESSES["identification"])

    def test_cartier_names_the_first_other_block(self, monkeypatch):
        # key (1, 2) claims a nonzero mod-2 H^1; its first block of degree
        # 4 in three variables is (3, 1, 0)
        real = cohomology.block_modp_homology

        def faulty(key, p):
            degrees = real(key, p)
            if key == (1, 2):
                return degrees[:1] + (SimpleNamespace(dim=1),) + degrees[2:]
            return degrees

        monkeypatch.setattr(cohomology, "block_modp_homology", faulty)
        with pytest.raises(RuntimeError) as error:
            cohomology.cartier_iso(3, 2, 1, 2)
        assert str(error.value) == CARTIER_OTHER_ERROR


class TestExampleDeg4:
    def test_all_ranks(self):
        for r in (1, 2, 3):
            assert verify_example_deg4(r).ok


class TestSweep:
    def test_small_sweep_passes(self):
        reports = sweep(1, 6)
        assert reports and all(rep.ok for rep in reports)

    def test_deterministic_order(self):
        a = [(rep.statement, rep.params) for rep in sweep(2, 4)]
        b = [(rep.statement, rep.params) for rep in sweep(2, 4)]
        assert a == b == sorted(a)

    def test_covers_all_statements(self):
        names = {rep.statement for rep in sweep(2, 4)}
        assert names == {"annihilation", "cartier", "couple_morphism",
                         "frobenius_iso", "page_identification",
                         "filtration", "example_deg4"}

    def test_failures_are_data(self):
        reports = sweep(2, 8)
        bad = [rep for rep in reports if not rep.ok]
        assert {tuple(rep.params) for rep in bad} == {
            (("r", 2), ("n", 8))}
        assert all(rep.statement == "filtration" for rep in bad)
        assert all(rep.witness is not None for rep in bad)


class TestReportInvariant:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            VerificationReport("annihilation", (("r", 1),), "fail",
                               (("x", False),), None)

"""Verification harness: every statement on worked examples, plus the
documented failure set of the filtration statement."""

import json

import pytest

from derhamz import bockstein, theorems
from derhamz.abgroups import (
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

from dense_oracle import block_cells, complex_z, frobenius_matrix


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
        couple = couples(3, 4, 2, 1)[0]
        c = [blk.beta for blk in couple.blocks].index((2, 2, 0))
        blk = couple.blocks[c]
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

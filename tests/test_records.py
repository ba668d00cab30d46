"""The result records behave as immutable values: equal fields give equal
records with equal hashes, no field can be set, and repr names every field.

GradedPiece also iterates over its basis elements and has .dim, and a
failing VerificationReport needs a witness (tests/test_theorems.py)."""

import pytest

from derhamz import (
    FgAbGroup,
    GradedPiece,
    SpectralPage,
    VerificationReport,
    basis,
    integral_cohomology,
)
from derhamz.cohomology import (
    CohomologyResult,
    HDegree,
    ModpCohomologyResult,
    modp_cohomology,
)

FIELDS = {
    GradedPiece: ("r", "n", "i", "elements"),
    HDegree: ("i", "group"),
    CohomologyResult: ("r", "n", "degrees"),
    ModpCohomologyResult: ("r", "n", "p", "dims"),
    SpectralPage: ("r", "n", "p", "k", "dims"),
    VerificationReport: ("statement", "params", "status", "checks",
                         "witness"),
}


def _records():
    """One record of each kind, as the package builds it, plus a failing
    report, whose witness is an unhashable dict."""
    return [
        basis(2, 2, 1),
        HDegree(1, FgAbGroup([0, 2])),
        integral_cohomology(2, 4),
        modp_cohomology(2, 4, 2),
        SpectralPage(2, 4, 2, 1, (1, 2, 1)),
        VerificationReport("annihilation", (("r", 1), ("n", 2)), "pass",
                           (("euler", True),)),
        VerificationReport("filtration", (("r", 2),), "fail",
                           (("dims", False),), {"i": 1}),
    ]


def _fields(rec) -> dict:
    return {name: getattr(rec, name) for name in FIELDS[type(rec)]}


@pytest.mark.parametrize("rec", _records(), ids=lambda rec: type(rec).__name__)
class TestRecordSemantics:
    def test_equal_fields_equal_records(self, rec):
        twin = type(rec)(**_fields(rec))
        assert twin is not rec
        assert twin == rec and not twin != rec
        try:
            hash(tuple(_fields(rec).values()))
        except TypeError:
            return
        assert hash(twin) == hash(rec)

    def test_a_changed_field_is_unequal(self, rec):
        fields = _fields(rec)
        name = FIELDS[type(rec)][0]
        fields[name] = "other"
        assert type(rec)(**fields) != rec

    def test_fields_cannot_be_set(self, rec):
        for name in FIELDS[type(rec)]:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))

    def test_repr_names_every_field(self, rec):
        inner = ", ".join(f"{name}={value!r}"
                          for name, value in _fields(rec).items())
        assert repr(rec) == f"{type(rec).__name__}({inner})"


class TestGradedPiece:
    def test_iterates_over_its_elements(self):
        piece = basis(2, 2, 1)
        assert list(piece) == list(piece.elements)
        assert [e.T for e in piece] == [(1,), (1,), (2,), (2,)]
        assert piece.dim == len(piece.elements) == 4

    def test_unpacking_agrees_with_iteration(self):
        first, *rest = basis(2, 2, 1)
        assert (first, *rest) == basis(2, 2, 1).elements
        (only,) = basis(1, 4, 1)
        assert only == basis(1, 4, 1).elements[0]

    def test_the_zero_piece(self):
        piece = basis(2, 4, 3)
        assert piece.dim == 0 and list(piece) == []
        assert piece == GradedPiece(2, 4, 3, ())


def test_report_witness_defaults_to_none():
    rep = VerificationReport("annihilation", (), "pass", ())
    assert rep.witness is None and rep.ok
    assert rep.to_json_dict() == {"statement": "annihilation", "params": {},
                                  "status": "pass", "checks": []}

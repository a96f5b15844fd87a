"""The value records of ``src/kwall`` are immutable and compare by value.

Each is a ``typing.NamedTuple``, or a subclass of one where the record
validates (``ChartCase``), derives fields (``Constraint``) or caches
(``SurfaceModel``)."""

from fractions import Fraction as F

import pytest

from kwall import volume
from kwall.atlas import bundled_atlas
from kwall.exactnum import QuadraticPoly
from kwall.pairs import ChartCase, Monomial, parse_curve
from kwall.stability import Constraint, WallCandidate, WallRecord, threshold, toric_constraints
from kwall.surface import builtin_surface


def _records():
    """One instance of every record type, by name."""
    atlas = bundled_atlas()
    curve = parse_curve("x^3*z^3+x*y^5", "f1")
    con = toric_constraints(curve)[0]
    candidate = WallCandidate(F(2, 7), "f1", curve, None, None, None, "single")
    model = builtin_surface("index3m")
    table = model.pairing_table(model.anticanonical, model.cone_class("F1"))
    sweep = volume._Sweep(model.name, table, F(8), F(4, 3), F(-5))
    return {
        "WallAtlas": atlas,
        "WallBranch": atlas.branches[0],
        "QuadraticPoly": QuadraticPoly(F(1), F(0), F(-1)),
        "ChartCase": ChartCase("f1", "case2-yv", 2, 1),
        "Monomial": curve.monomials[0],
        "CurvePair": curve,
        "Constraint": con,
        "BetaReport": con.report(F(1, 10)),
        "StabilityThreshold": threshold(curve),
        "WallCandidate": candidate,
        "WallRecord": WallRecord(candidate, False, "reason"),
        "ZariskiDecomposition": model.zariski_decompose(model.anticanonical),
        "ConeRecord": model._cone_record,
        "PairingTable": table,
        "SurfaceModel": model,
        "SProfile": volume.volume_profile(model),
        "_Sweep": sweep,
        "_Segment": volume._segment(sweep, [], F(0)),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_record_rejects_assignment(name):
    rec = _records()[name]
    assert type(rec).__name__ == name
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None


@pytest.mark.parametrize("make", [
    lambda: ChartCase("blp114", "case3p", 1, 4),
    lambda: Monomial(2, 1, "generic-nonzero"),
    lambda: parse_curve("z^3+z^2*x^4", "blp114"),
])
def test_equality_and_hash_by_value(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


def test_records_differ_by_value():
    assert ChartCase("f1", "case2-yv", 2, 1) != ChartCase("f1", "case2-yv", 1, 2)
    assert Monomial(2, 1) != Monomial(2, 1, "generic-nonzero")
    assert parse_curve("x^4*z*y", "f1") != parse_curve("x^4*z*y+x^3*y^3", "f1")


def test_constraint_holds_rational_s0_as_fraction():
    con = Constraint("v", F(2), F(1), F(1, 3))
    assert type(con.s0) is F and con.s0 == F(1, 3)
    assert (con.u, con.v) == (F(5, 3), F(-1, 3))


def test_constraint_computes_u_and_v_once():
    """Every read returns the value computed when the constraint was built."""
    con = Constraint("v", F(5), F(12), F(91, 24))
    assert con.u is con.u and con.v is con.v
    assert (con.u, con.v) == (F(29, 24), F(-53, 12))

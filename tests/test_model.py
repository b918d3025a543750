"""The package's immutable records (:class:`unrolledsl2.qscalar.Record`):
value equality within one class, a hash that agrees with it, no assignment,
and the ``Name(field=value, ...)`` repr, for every record class."""

import json
import pathlib

import pytest

from unrolledsl2.diagram import compile_diagram
from unrolledsl2.invariant import LinkingData, SurgeryPresentation, ZResult
from unrolledsl2.model import (
    Braid,
    Cap,
    Coupon,
    Cup,
    Id,
    SlicedDiagram,
    Strand,
    parse_diagram,
    parse_surgery,
)
from unrolledsl2.qscalar import Record, RootParams
from unrolledsl2.selftest import CheckResult
from unrolledsl2.tqftdim import GradedDimension, GraphEdge, TrivalentGraph

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "fixtures"
UP, DOWN = Strand("K", True), Strand("K", False)


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _theta(ctx: RootParams, g2: float = 0.45) -> TrivalentGraph:
    edges = (GraphEdge("a", "x", "y", 0.3), GraphEdge("b", "x", "y", g2),
             GraphEdge("c", "x", "y", -0.3 - g2))
    return TrivalentGraph(ctx, edges)


def _surgery(defect: int = 0) -> SurgeryPresentation:
    return parse_surgery({**_fixture("s1xs2.json"), "defect": defect}, RootParams(5))


# per record class: a builder whose every call gives an equal, distinct
# record, and a record that differs from those in one field (None for Id,
# which has no field)
RECORDS = {
    "Strand": (lambda: Strand("K", True), DOWN),
    "Id": (Id, None),
    "Braid": (lambda: Braid(0, 1), Braid(0, -1)),
    "Cup": (lambda: Cup(1, "K"), Cup(1, "K", "coevprime")),
    "Cap": (lambda: Cap(0), Cap(0, "ev")),
    "Coupon": (lambda: Coupon(0, [UP], [UP]), Coupon(0, [UP], [DOWN])),
    "SlicedDiagram": (lambda: SlicedDiagram([Cup(0, "K"), Cap(0)]),
                      SlicedDiagram([Cup(0, "K"), Cap(0)], [UP])),
    "GraphEdge": (lambda: GraphEdge("e", "x", "y", 0.3), GraphEdge("e", "x", "y", 0.3, 1.0)),
    "TrivalentGraph": (lambda: _theta(RootParams(5)), _theta(RootParams(5), 0.55)),
    "GradedDimension": (lambda: GradedDimension({1: 2, 0: 3}, "plain"),
                        GradedDimension({1: 2, 0: 3}, "super")),
    "RootParams": (lambda: RootParams(5), RootParams(5, tol=1e-7)),
    "SurgeryPresentation": (_surgery, _surgery(defect=1)),
    "LinkingData": (lambda: LinkingData(((1,),), 1, 0, 0), LinkingData(((-1,),), 0, 1, 0)),
    "ZResult": (lambda: ZResult(1j, 1j, 2.0, 3.0, 1, 1, 0, 1, 0, 0),
                ZResult(1j, 1j, 2.0, 3.0, 1, 1, 0, 1, 0, 1)),
    "CheckResult": (lambda: CheckResult("c", True), CheckResult("c", False, "why")),
}
# records with a dict field: equal ones compare equal, but none hashes
UNHASHABLE = {"GradedDimension", "SurgeryPresentation"}


def test_every_record_class_is_covered():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    build, other = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    if other is not None:
        assert type(other) is type(a) and a != other and not a == other


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name][0]()
    for field in (*type(record)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == RECORDS[name][0]()


def test_records_of_two_classes_never_compare_equal():
    braid, cap = Braid(0, 1), Cap(0, 1)
    assert braid != cap and cap != braid
    assert braid not in {cap: 1} and cap not in {braid: 1}
    assert braid != (0, 1) and Id() != ()


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")
                                           if "diagram" in _fixture(p.name)))
def test_two_parses_of_a_fixture_diagram_are_equal_and_hash_equal(fixture):
    doc = _fixture(fixture)["diagram"]
    a, b = parse_diagram(doc), parse_diagram(doc)
    assert a is not b and a == b
    if Coupon not in map(type, a.slices):  # a document's coupon matrix is a list
        assert hash(a) == hash(b)
    assert compile_diagram(a) is compile_diagram(b)


def test_repr_lists_the_fields_and_hides_coupon_matrices():
    assert repr(Braid(0, 1)) == "Braid(position=0, sign=1)"
    assert repr(Id()) == "Id()"
    assert repr(Coupon(1, [UP], (DOWN,), [[2.0]])) == (
        "Coupon(position=1, inputs=(Strand(component='K', up=True),), "
        "outputs=(Strand(component='K', up=False),))")
    # the derived incidence table is not a field
    assert repr(_theta(RootParams(5))) == (
        "TrivalentGraph(ctx=RootParams(r=5, tol=1e-09), edges=("
        "GraphEdge(name='a', tail='x', head='y', grading=0.3, color=None), "
        "GraphEdge(name='b', tail='x', head='y', grading=0.45, color=None), "
        "GraphEdge(name='c', tail='x', head='y', grading=-0.75, color=None)), "
        "vertex_order=('x', 'y'))")


def test_a_coupon_holding_a_list_matrix_is_unhashable():
    coupon = Coupon(0, [UP], [UP], [[1.0]])
    assert coupon == Coupon(0, [UP], [UP], [[1.0]]) != Coupon(0, [UP], [UP], [[2.0]])
    with pytest.raises(TypeError):
        hash(coupon)


def test_cached_properties_stay_out_of_equality_and_hash():
    ctx = RootParams(5)
    graph = _theta(ctx)
    assert graph.genus == 2 and "genus" in vars(graph)
    assert graph == _theta(ctx) and hash(graph) == hash(_theta(ctx))
    sp = _surgery()
    assert sp.compiled is not None and "compiled" in vars(sp)
    assert sp == _surgery()


def test_root_params_default_tol_reads_from_the_class():
    assert RootParams.tol == RootParams(5).tol == 1e-9
    assert RootParams(5, 1e-7).tol == 1e-7 and RootParams.tol == 1e-9

"""The contract of the package's value types: equality, immutability,
keyword construction and fresh mutable state. It holds whatever the types
are built from, so it names every field by hand."""

from fractions import Fraction

import pytest

from recolorwalk import (
    Coloring,
    DegreePartition,
    EliminationTrace,
    Graph,
    RecoloringSequence,
    RecolorStats,
    SpecialISParams,
    parse_graph,
)
from recolorwalk.engine import RecoloringStep
from recolorwalk.layering import EmbeddedOrdering

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
COLORING = Coloring((1, 2, 1), 3)


def test_graphs_that_differ_only_in_edge_order_are_equal():
    a = parse_graph("3 2\n0 1\n1 2\n")
    b = parse_graph("3 2\n1 2\n0 1\n")
    assert (a.us, a.vs) != (b.us, b.vs)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = parse_graph("3 2\n0 1\n0 2\n")
    assert a != other and not a == other


@pytest.mark.parametrize("value,names", [
    (P3, ("n", "adjacency", "m", "us", "vs")),
    (COLORING, ("colors", "k")),
    (RecoloringSequence(COLORING, (1,), (3,)), ("initial", "vertices", "new_colors")),
    (DegreePartition(1, ((0, 2), (1,))), ("s", "layers")),
    (SpecialISParams(2, Fraction(1, 2)), ("d", "epsilon")),
], ids=["Graph", "Coloring", "RecoloringSequence", "DegreePartition", "SpecialISParams"])
def test_fields_cannot_be_assigned(value, names):
    for name in names:
        old = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, old)
        assert getattr(value, name) is old


def test_keyword_construction_matches_positional():
    cases = [
        (Graph(n=3, adjacency=P3.adjacency, m=2, us=P3.us, vs=P3.vs), P3),
        (Coloring(colors=(1, 2, 1), k=3), COLORING),
        (RecoloringSequence(initial=COLORING, vertices=(1,), new_colors=(3,)),
         RecoloringSequence(COLORING, (1,), (3,))),
        (RecoloringStep(vertex=1, new_color=3), RecoloringStep(1, 3)),
        (RecolorStats(per_vertex=(0, 1, 0), total=1, max_per_vertex=1),
         RecolorStats((0, 1, 0), 1, 1)),
        (SpecialISParams(d=2, epsilon=Fraction(1, 2)), SpecialISParams(2, Fraction(1, 2))),
        (DegreePartition(s=1, layers=((0, 2), (1,))), DegreePartition(1, ((0, 2), (1,)))),
        (EmbeddedOrdering(order=(0, 2, 1), layer_of=(0, 1, 0)),
         EmbeddedOrdering((0, 2, 1), (0, 1, 0))),
    ]
    for by_keyword, by_position in cases:
        assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
    assert Graph(n=3, adjacency=P3.adjacency, m=2, us=P3.us, vs=P3.vs).us == (0, 1)
    assert DegreePartition(s=1, layers=((0, 2), (1,))).t == 2
    assert RecoloringSequence(COLORING, (1,), (3,)).steps == (RecoloringStep(1, 3),)
    assert EliminationTrace(claims=[(0,)]) == EliminationTrace([(0,)]) != EliminationTrace()


def test_special_is_params_stores_an_exact_fraction():
    params = SpecialISParams(3, "1/2")
    assert params.epsilon == Fraction(1, 2) and type(params.epsilon) is Fraction
    assert params == SpecialISParams(3, Fraction(1, 2))


def test_traces_do_not_share_claims():
    a, b = EliminationTrace(), EliminationTrace()
    a.claims.append((0, 1))
    assert a.claims == [(0, 1)] and b.claims == []

import math
import random
from fractions import Fraction

import pytest

from recolorwalk import (
    DegreePartition,
    SizeGuaranteeViolated,
    SpecialISParams,
    build_degree_partition,
    degree_partition_from_degeneracy,
    degeneracy_ordering,
    partition_round_bound,
    serialize_partition,
    validate_partition,
)
from recolorwalk.layering import embedded_ordering

import families
from families import enumerate_special_is

HALF = Fraction(1, 2)


def later_layer_degree(g, p, v):
    """Neighbors of v in layers strictly after v's layer."""
    layer_of = embedded_ordering(p).layer_of
    return sum(1 for w in g.adjacency[v] if layer_of[w] > layer_of[v])


class TestParams:
    def test_validation(self):
        for d, epsilon, message in [
            (0, HALF, "d must be a positive integer"),
            (2, Fraction(0), "epsilon must satisfy 0 < epsilon < d"),
            (2, Fraction(2), "epsilon must satisfy 0 < epsilon < d"),
        ]:
            with pytest.raises(ValueError) as info:
                SpecialISParams(d, epsilon)
            assert type(info.value) is ValueError and str(info.value) == message

    def test_threshold_is_exact_ceiling(self):
        params = SpecialISParams(2, HALF)
        assert params.threshold(4) == 1   # ceil(1/2)
        assert params.threshold(8) == 1   # ceil(1)
        assert params.threshold(9) == 2   # ceil(9/8)
        assert SpecialISParams(1, HALF).threshold(5) == 3  # ceil(5/2)


class TestSpecialIndependentSet:
    # The first peeling round: greedy low-degree independent set of the
    # whole graph.
    def test_single_vertex(self):
        got = build_degree_partition(families.empty_graph(1),
                                     SpecialISParams(1, HALF)).layers[0]
        assert got == (0,)

    def test_path_on_four_vertices(self):
        p4 = families.path_graph(4)
        got = build_degree_partition(p4, SpecialISParams(2, HALF)).layers[0]
        assert got == (0, 3)
        # oracle cross-check: greedy output is a 1-independent set of the
        # guaranteed size
        assert got in enumerate_special_is(p4, 2)
        assert len(got) >= SpecialISParams(2, HALF).threshold(4)

    def test_two_edge_matching(self):
        got = build_degree_partition(families.two_edge_matching(),
                                     SpecialISParams(2, HALF)).layers[0]
        assert got == (0, 2)

    def test_dense_graph_fails_loudly(self):
        with pytest.raises(SizeGuaranteeViolated) as info:
            build_degree_partition(families.complete_graph(4), SpecialISParams(2, HALF))
        assert info.value.achieved == 0
        assert info.value.threshold == 1

    def test_greedy_within_enumerated_sets(self):
        rng = random.Random(11)
        params = SpecialISParams(2, HALF)
        for _ in range(50):
            g = families.random_forest(rng, rng.randint(1, 12))
            got = build_degree_partition(g, params).layers[0]
            all_sets = enumerate_special_is(g, 2)
            assert got in all_sets
            assert max(len(s) for s in all_sets) >= len(got)
            assert len(got) >= params.threshold(g.n)


class TestBuildPartition:
    def test_path_on_four_vertices(self):
        p4 = families.path_graph(4)
        p = build_degree_partition(p4, SpecialISParams(2, HALF))
        assert p.layers == ((0, 3), (1,), (2,))
        assert p.s == 1
        assert validate_partition(p4, p) is None

    def test_two_edge_matching(self):
        g = families.two_edge_matching()
        p = build_degree_partition(g, SpecialISParams(2, HALF))
        assert p.layers == ((0, 2), (1, 3))
        assert p.s == 1 and p.t == 2

    def test_edgeless(self):
        p = build_degree_partition(families.empty_graph(5), SpecialISParams(1, HALF))
        assert p.layers == ((0, 1, 2, 3, 4),)
        assert p.s == 0 and p.t == 1

    def test_star(self):
        p = build_degree_partition(families.star_graph(3), SpecialISParams(2, HALF))
        assert p.layers == ((1, 2, 3), (0,))

    def test_k4_violates_guarantee(self):
        with pytest.raises(SizeGuaranteeViolated) as info:
            build_degree_partition(families.complete_graph(4), SpecialISParams(2, HALF))
        assert info.value.round_index == 1

    def test_round_sizes_and_layer_count_bound(self):
        rng = random.Random(5150)
        for _ in range(60):
            if rng.random() < 0.5:
                g = families.random_forest(rng, rng.randint(1, 60))
                params = SpecialISParams(2, HALF)
            else:
                g = families.random_tree(rng, rng.randint(2, 60))
                params = SpecialISParams(3, HALF)
            p = build_degree_partition(g, params)
            assert validate_partition(g, p) is None
            remaining = g.n
            for layer in p.layers:
                assert len(layer) >= params.threshold(remaining)
                remaining -= len(layer)
            assert p.t <= partition_round_bound(g.n, params)
            shrink = 1 - float(params.epsilon) / params.d ** 2
            formula = math.ceil(math.log(g.n) / math.log(1 / shrink)) + 1 if g.n > 1 else 1
            assert p.t <= formula


def peel_scan(g, params):
    """Reference: the peeling `build_degree_partition` replaced, which
    recounts every candidate's residual degree in every round."""
    active = set(range(g.n))
    layers = []
    while active:
        layer = []
        blocked = set()
        for v in sorted(active):
            if v in blocked:
                continue
            residual_degree = sum(1 for w in g.adjacency[v] if w in active)
            if residual_degree <= params.d - 1:
                layer.append(v)
                blocked.update(g.adjacency[v])
        need = params.threshold(len(active))
        if len(layer) < need:
            raise SizeGuaranteeViolated(len(layer), need, len(active), len(layers) + 1)
        layers.append(tuple(layer))
        active.difference_update(layer)
    return DegreePartition(s=params.d - 1, layers=tuple(layers))


def peel_outcome(peel, g, params):
    """The partition, or the fields of the SizeGuaranteeViolated raised."""
    try:
        return peel(g, params)
    except SizeGuaranteeViolated as exc:
        return exc.achieved, exc.threshold, exc.residual_size, exc.round_index, str(exc)


class TestRunningResidualDegrees:
    # Peeling with running residual counts must build the layers, and raise
    # the errors, of the per-round rescan.
    PARAMS = [SpecialISParams(d, eps) for d in (1, 2, 3, 4)
              for eps in (Fraction(1, 4), HALF, Fraction(3, 4))]

    def test_agrees_with_the_rescan_on_the_families(self):
        rng = random.Random(2024)
        cases = [families.petersen_graph(), families.two_edge_matching(),
                 families.star_graph(6), families.cycle_graph(9), families.empty_graph(4)]
        cases += [families.path_graph(n) for n in (1, 2, 5, 40)]
        cases += [families.random_tree(rng, rng.randint(2, 300)) for _ in range(20)]
        cases += [families.random_forest(rng, rng.randint(1, 200)) for _ in range(20)]
        cases += [families.random_unicyclic(rng, rng.randint(3, 200)) for _ in range(20)]
        cases += [families.random_theta(rng, rng.randint(5, 200)) for _ in range(20)]
        built = 0
        for g in cases:
            for params in self.PARAMS:
                got = peel_outcome(build_degree_partition, g, params)
                assert got == peel_outcome(peel_scan, g, params)
                built += isinstance(got, DegreePartition)
        assert built > len(cases) * len(self.PARAMS) // 2

    def test_same_violation_on_graphs_denser_than_d_minus_epsilon(self):
        rng = random.Random(77)
        cases = [families.complete_graph(n) for n in range(2, 9)]
        cases += [families.random_graph(rng, rng.randint(6, 60), rng.uniform(0.2, 0.9))
                  for _ in range(40)]
        raised = 0
        for g in cases:
            for params in self.PARAMS:
                got = peel_outcome(build_degree_partition, g, params)
                assert got == peel_outcome(peel_scan, g, params)
                raised += not isinstance(got, DegreePartition)
        assert raised > len(cases) * len(self.PARAMS) // 2


class TestDegeneracyFallback:
    def test_path(self):
        p3 = families.path_graph(3)
        p = degree_partition_from_degeneracy(p3)
        assert p.s == 1 and p.t == 3
        assert all(len(layer) == 1 for layer in p.layers)
        assert validate_partition(p3, p) is None

    def test_complete_graph(self):
        k4 = families.complete_graph(4)
        p = degree_partition_from_degeneracy(k4)
        assert p.s == 3 and p.t == 4
        assert validate_partition(k4, p) is None

    def test_random_graphs_always_validate(self):
        rng = random.Random(31337)
        for _ in range(200):
            g = families.random_graph(rng, rng.randint(1, 12), rng.random())
            p = degree_partition_from_degeneracy(g)
            assert validate_partition(g, p) is None
            assert p.s == degeneracy_ordering(g)[1]
            assert max(later_layer_degree(g, p, v) for v in range(g.n)) <= p.s


class TestValidate:
    def test_not_independent(self):
        p3 = families.path_graph(3)
        report = validate_partition(p3, DegreePartition(1, ((0, 1), (2,))))
        assert report is not None and "not independent" in report

    def test_uncovered_vertex(self):
        p3 = families.path_graph(3)
        report = validate_partition(p3, DegreePartition(1, ((0,), (2,))))
        assert report == "vertex 1 uncovered"

    def test_duplicated_vertex(self):
        p3 = families.path_graph(3)
        report = validate_partition(p3, DegreePartition(1, ((0, 2), (1,), (2,))))
        assert report is not None and "appears in layers" in report

    def test_residual_degree_too_high(self):
        star = families.star_graph(3)
        report = validate_partition(star, DegreePartition(1, ((0,), (1,), (2,), (3,))))
        assert report is not None and "degree 3 > s=1" in report

    def test_empty_layer(self):
        p3 = families.path_graph(3)
        report = validate_partition(p3, DegreePartition(1, ((0, 2), (), (1,))))
        assert report is not None and "empty" in report

    def test_out_of_range_vertex(self):
        p3 = families.path_graph(3)
        report = validate_partition(p3, DegreePartition(1, ((0, 2), (1, 3))))
        assert report == "layer 2 contains out-of-range vertex 3"


class TestEmbeddedOrdering:
    def test_concatenation(self):
        p = DegreePartition(1, ((0, 2), (1, 3)))
        ord_ = embedded_ordering(p)
        assert ord_.order == (0, 2, 1, 3)
        assert ord_.layer_of == (0, 1, 0, 1)

    def test_single_layer(self):
        p = DegreePartition(0, ((0, 1, 2),))
        assert embedded_ordering(p).order == (0, 1, 2)

    def test_determinism_and_invariants(self):
        rng = random.Random(404)
        for _ in range(40):
            g = families.random_forest(rng, rng.randint(1, 20))
            p = build_degree_partition(g, SpecialISParams(2, HALF))
            ord_a = embedded_ordering(p)
            assert ord_a == embedded_ordering(p)
            # positions never decrease in layer
            layers_in_order = [ord_a.layer_of[v] for v in ord_a.order]
            assert layers_in_order == sorted(layers_in_order)
            # no neighbor in the same layer, at most s in strictly later ones
            layer_of = ord_a.layer_of
            for v in range(g.n):
                assert all(layer_of[w] != layer_of[v] for w in g.adjacency[v])
                later = sum(1 for w in g.adjacency[v] if layer_of[w] > layer_of[v])
                assert later <= p.s


class TestLaterLayerDegree:
    def test_matching_layers(self):
        g = families.two_edge_matching()
        p = DegreePartition(1, ((0, 2), (1, 3)))
        assert later_layer_degree(g, p, 0) == 1
        assert later_layer_degree(g, p, 1) == 0

    def test_isolated_vertex(self):
        g = families.empty_graph(3)
        p = DegreePartition(0, ((0, 1, 2),))
        assert later_layer_degree(g, p, 1) == 0

    def test_last_layer_singleton(self):
        p4 = families.path_graph(4)
        p = build_degree_partition(p4, SpecialISParams(2, HALF))
        last = p.layers[-1][0]
        assert later_layer_degree(p4, p, last) == 0


def test_serialize_partition():
    p = DegreePartition(1, ((0, 2), (1, 3)))
    assert serialize_partition(p) == "1 2\n0 2\n1 3\n"

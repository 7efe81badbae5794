"""Acceptance criteria, one test per criterion.

Each test ends by printing a PASS line with its measured numbers, so
``pytest -s tests/test_acceptance.py`` doubles as a report. Families used:

* trees, unicyclic graphs and theta graphs (mad <= 5/2) exercised with
  degree bound d = 3;
* forests with components of at most 4 vertices (mad <= 3/2) exercised with
  d = 2. Unrestricted trees cannot meet the d = 2 density precondition
  (a tree on n >= 5 vertices already has mad = 2 - 2/n > 3/2), so the
  low-budget lane uses this family instead.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from recolorwalk import (
    Coloring,
    EliminationTrace,
    SpecialISParams,
    bfs_distance,
    build_degree_partition,
    count_proper_colorings,
    degree_partition_from_degeneracy,
    exact_diameter,
    mad_brute,
    mad_exact,
    recolor_between,
    recolor_theorem_pipeline,
    sequence_stats,
    serialize_coloring,
    validate_partition,
    verify_sequence,
    walk_bound,
)
from recolorwalk.cli import main as cli_main

import families
from families import eliminate, serialize_graph

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class WalkRun:
    family: str
    d: int
    graph: object
    partition: object
    alpha: object
    beta: object
    seq: object
    stats: object


def _bounded_instance(rng, family):
    if family == "forest-d2":
        return families.random_forest(rng, rng.randint(1, 30)), 2
    if family == "tree-d3":
        return families.random_tree(rng, rng.randint(2, 30)), 3
    if family == "unicyclic-d3":
        return families.random_unicyclic(rng, rng.randint(3, 30)), 3
    if family == "theta-d3":
        return families.random_theta(rng, rng.randint(5, 30)), 3
    raise ValueError(family)


@pytest.fixture(scope="module")
def walk_runs():
    """The shared criterion-1 batch: 500 pipeline runs over bounded families."""
    rng = random.Random(0xC0FFEE)
    plan = [("forest-d2", 180), ("tree-d3", 180),
            ("unicyclic-d3", 80), ("theta-d3", 60)]
    runs = []
    started = time.monotonic()
    for family, count in plan:
        for _ in range(count):
            g, d = _bounded_instance(rng, family)
            k = d + 1
            alpha = families.random_proper_coloring(rng, g, k)
            beta = families.random_proper_coloring(rng, g, k)
            seq, stats, partition = recolor_theorem_pipeline(
                g, d, HALF, alpha, beta, k)
            runs.append(WalkRun(family, d, g, partition, alpha, beta, seq, stats))
    elapsed = time.monotonic() - started
    return runs, elapsed


def test_criterion_1_walk_validity(walk_runs):
    runs, elapsed = walk_runs
    assert len(runs) >= 500
    violations = 0
    for run in runs:
        k = run.d + 1
        final = verify_sequence(run.graph, run.alpha, run.seq, k)
        if final.colors != run.beta.colors:
            violations += 1
    assert violations == 0
    assert elapsed < 120, f"walk batch took {elapsed:.1f}s, budget is 120s"
    print(f"\nACCEPTANCE 1 walk validity: PASS "
          f"({len(runs)} runs, 0 violations, {elapsed:.1f}s)")


def test_criterion_2_oracle_dominance():
    rng = random.Random(0xBEEF)
    started = time.monotonic()
    checked = 0
    for _ in range(100):
        g = families.random_forest(rng, rng.randint(1, 7))
        alpha = families.random_proper_coloring(rng, g, 3)
        beta = families.random_proper_coloring(rng, g, 3)
        seq, _, _ = recolor_theorem_pipeline(g, 2, HALF, alpha, beta, 3)
        distance = bfs_distance(g, 3, alpha, beta)
        assert distance is not None, "walk space must be connected"
        assert len(seq.steps) >= distance
        checked += 1
    for _ in range(100):
        n = rng.randint(2, 7)
        g = families.random_tree(rng, n)
        partition = degree_partition_from_degeneracy(g)
        alpha = families.random_proper_coloring(rng, g, 3)
        beta = families.random_proper_coloring(rng, g, 3)
        seq = recolor_between(g, partition, alpha, beta, 3)
        distance = bfs_distance(g, 3, alpha, beta)
        assert distance is not None
        assert len(seq.steps) >= distance
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 200
    assert elapsed < 300, f"oracle batch took {elapsed:.1f}s, budget is 300s"
    print(f"\nACCEPTANCE 2 oracle dominance: PASS "
          f"({checked} triples, 0 violations, {elapsed:.1f}s)")


def test_criterion_3_exact_oracle_spot_values():
    k2 = families.complete_graph(2)
    assert bfs_distance(k2, 3, Coloring((1, 2), 3), Coloring((2, 1), 3)) == 3
    p3 = families.path_graph(3)
    assert bfs_distance(p3, 3, Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3)) == 4
    assert exact_diameter(families.complete_graph(3), 3) is None
    assert count_proper_colorings(p3, 3) == 12
    print("\nACCEPTANCE 3 exact oracle spot values: PASS (4 values)")


def test_criterion_4_elimination_locality():
    rng = random.Random(0xF00D)
    calls = 0
    while calls < 200:
        g = families.random_graph(rng, rng.randint(2, 10), rng.random() * 0.5)
        partition = degree_partition_from_degeneracy(g)
        k = partition.s + 2
        c = families.random_proper_coloring(rng, g, k)
        boundary = rng.randint(1, partition.t)
        target = rng.randint(1, k)
        seq = eliminate(g, partition, boundary, c, target, range(1, k + 1))
        final = verify_sequence(g, c, seq, k)
        stats = sequence_stats(seq)
        inside = {v for layer in partition.layers[:boundary] for v in layer}
        for v in range(g.n):
            if v not in inside:
                assert stats.per_vertex[v] == 0
                assert final.colors[v] == c.colors[v]
            else:
                assert final.colors[v] != target
        calls += 1
    print(f"\nACCEPTANCE 4 elimination locality: PASS ({calls} calls)")


def test_criterion_5_inner_call_contract():
    rng = random.Random(0xACE)
    claims = 0
    for _ in range(60):
        g = families.random_tree(rng, rng.randint(2, 15))
        alpha = families.random_proper_coloring(rng, g, 4)
        beta = families.random_proper_coloring(rng, g, 4)
        trace = EliminationTrace()
        recolor_theorem_pipeline(g, 3, HALF, alpha, beta, 4, trace=trace)
        for claim in trace.claims:
            assert max(claim.w_a_recolor_counts, default=0) <= 1
            assert claim.inner_mask_later_degree < max(claim.depth, 1)
            claims += 1
    assert claims > 0
    print(f"\nACCEPTANCE 5 inner call contract: PASS ({claims} calls, all <= 1)")


def test_criterion_6_partition_guarantees():
    rng = random.Random(0xDAD)
    graphs = 0
    while graphs < 200:
        choice = rng.random()
        if choice < 0.5:
            g = families.random_forest(rng, rng.randint(1, 200))
            params = SpecialISParams(2, HALF)
        elif choice < 0.8:
            g = families.random_tree(rng, rng.randint(2, 200))
            params = SpecialISParams(3, HALF)
        else:
            g = families.random_unicyclic(rng, rng.randint(3, 200))
            params = SpecialISParams(3, HALF)
        partition = build_degree_partition(g, params)
        assert validate_partition(g, partition) is None
        remaining = g.n
        for layer in partition.layers:
            assert len(layer) >= params.threshold(remaining)
            remaining -= len(layer)
        shrink = 1 - float(params.epsilon) / params.d ** 2
        bound = math.ceil(math.log(g.n) / math.log(1 / shrink)) + 1 if g.n > 1 else 1
        assert partition.t <= bound
        graphs += 1
    print(f"\nACCEPTANCE 6 partition guarantees: PASS ({graphs} graphs up to n=200)")


def test_criterion_7_mad_cross_check():
    rng = random.Random(0xFACADE)
    checked = 0
    while checked < 200:
        g = families.random_graph(rng, rng.randint(1, 10), rng.random())
        assert mad_exact(g) == mad_brute(g)
        checked += 1
    print(f"\nACCEPTANCE 7 mad cross-check: PASS ({checked} graphs, exact equality)")


def test_criterion_8_bound_conformance(walk_runs):
    runs, _ = walk_runs
    for run in runs:
        ceiling = walk_bound(run.partition.s, run.partition.t)
        assert run.stats.max_per_vertex <= ceiling
    # monitored regression on the depth-1 lane: per-vertex ceiling is
    # walk(1, t) = 16t + 5 <= 21t, so total <= 21 * n * t
    REGRESSION_C = 21
    low = [run for run in runs if run.family == "forest-d2"]
    assert low
    for run in low:
        assert run.stats.total <= REGRESSION_C * run.graph.n * run.partition.t
    print(f"\nACCEPTANCE 8 bound conformance: PASS "
          f"({len(runs)} runs within walk_bound, "
          f"{len(low)} runs within {REGRESSION_C}*n*t)")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    rng = random.Random(0xD1CE)
    pairs = 0
    for index in range(20):
        g = families.random_forest(rng, rng.randint(2, 12))
        alpha = families.random_proper_coloring(rng, g, 3)
        beta = families.random_proper_coloring(rng, g, 3)
        base = tmp_path / f"case{index}"
        base.mkdir()
        graph_path = base / "graph.txt"
        graph_path.write_text(serialize_graph(g))
        from_path = base / "from.txt"
        from_path.write_text(serialize_coloring(alpha))
        to_path = base / "to.txt"
        to_path.write_text(serialize_coloring(beta))
        blobs = []
        for _ in range(2):
            out = base / "seq.txt"
            stats = base / "stats.json"
            code = cli_main(["recolor", str(graph_path), str(from_path),
                             str(to_path), "-k", "3", "-d", "2",
                             "--epsilon", "1/2", "--out", str(out),
                             "--stats", str(stats)])
            assert code == 0
            blobs.append((out.read_bytes(), stats.read_bytes()))
        assert blobs[0] == blobs[1]
        pairs += 1
    capsys.readouterr()  # swallow the CLI's stdout answers
    print(f"\nACCEPTANCE 9 cli determinism: PASS ({pairs} repeated pairs)")

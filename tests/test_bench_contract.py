"""The names the benchmark under bench/ calls must exist in the package,
and the objects it gets back must carry the attributes it reads.

A missing name stops `bench/run.py` only when someone runs it; these tests
read the benchmark's files and fail as soon as the package drops a name.
"""

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import recolorwalk

import families

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_spanned_functions_resolve():
    # spans.py imports only the standard library, so it loads by path.
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANNED
    missing = [f"{spans.PACKAGE}.{short}.{name}"
               for short, names in spans.SPANNED.items() for name in names
               if not callable(getattr(importlib.import_module(f"{spans.PACKAGE}.{short}"),
                                       name, None))]
    assert missing == []


def test_run_attributes_resolve():
    # Every `rw.<name>` and `recolorwalk.<name>` that run.py reads.
    tree = ast.parse((BENCH / "run.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("rw", "recolorwalk")}
    assert "recolor_between" in used
    assert sorted(name for name in used if not hasattr(recolorwalk, name)) == []


def test_run_reads_resolve_on_a_small_instance():
    # What run.py reads off a partition, its peeling parameters, a traced
    # walk and the walk's steps.
    g = families.star_graph(3)
    params = recolorwalk.SpecialISParams(d=2, epsilon=Fraction(1, 2))
    part = recolorwalk.build_degree_partition(g, params)
    assert part.s == 1 and part.t == len(part.layers) == 2
    h = g.n
    for layer in part.layers:
        assert len(layer) >= params.threshold(h)
        h -= len(layer)
    alpha = recolorwalk.Coloring((3, 1, 2, 2), 3)
    beta = recolorwalk.Coloring((2, 1, 1, 3), 3)
    trace = recolorwalk.EliminationTrace()
    seq = recolorwalk.recolor_between(g, part, alpha, beta, part.s + 2, trace=trace)
    assert len(trace.claims) > 0
    colors = list(alpha.colors)
    for step in seq.steps:
        colors[step.vertex] = step.new_color
    assert tuple(colors) == beta.colors


def test_min_cut_counter_sees_exact_mad():
    # run.py counts graphs.mad_exact.min_cuts by swapping networkx.minimum_cut
    # for a counting wrapper. graphs must look it up on networkx at call time:
    # a name bound once (`from networkx import minimum_cut`) would count 0.
    import networkx
    calls = 0
    minimum_cut = networkx.minimum_cut

    def counted_minimum_cut(*args, **kwargs):
        nonlocal calls
        calls += 1
        return minimum_cut(*args, **kwargs)

    # K4 with a pendant vertex: its densest part, the K4, is not the whole graph.
    g = recolorwalk.Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    networkx.minimum_cut = counted_minimum_cut
    try:
        mad = recolorwalk.mad_exact(g)
    finally:
        networkx.minimum_cut = minimum_cut
    assert calls >= 1
    assert mad == recolorwalk.mad_brute(g) == 3

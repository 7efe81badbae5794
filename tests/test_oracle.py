import hashlib
import random
import sys
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recolorwalk import (
    Coloring,
    Graph,
    ImproperInput,
    StateSpaceTooLarge,
    bfs_distance,
    count_proper_colorings,
    degeneracy_ordering,
    exact_diameter,
)
from recolorwalk import oracle
from recolorwalk.cli import main
from recolorwalk.oracle import _decode, _encode, _proper_codes

import families
from families import enumerate_special_is


class TestCodes:
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=2, max_value=5),
           st.randoms(use_true_random=False))
    def test_round_trip(self, n, k, rnd):
        colors = tuple(rnd.randint(1, k) for _ in range(n))
        assert _decode(_encode(colors, k), n, k) == colors

    def test_vertex_zero_is_least_significant(self):
        assert _encode((2, 1), 3) == 1
        assert _encode((1, 2), 3) == 3


class TestCount:
    def test_single_edge(self):
        assert count_proper_colorings(families.complete_graph(2), 3) == 6

    def test_path_three(self):
        # chromatic polynomial of the path: 3 * 2 * 2
        assert count_proper_colorings(families.path_graph(3), 3) == 12

    def test_triangle(self):
        assert count_proper_colorings(families.complete_graph(3), 3) == 6

    def test_cap_enforced(self):
        with pytest.raises(StateSpaceTooLarge):
            count_proper_colorings(families.empty_graph(4), 2, cap=10)

    def test_rejects_an_empty_palette(self):
        with pytest.raises(ValueError) as info:
            count_proper_colorings(families.path_graph(3), 0)
        assert type(info.value) is ValueError and str(info.value) == "k must be positive"

    def test_more_vertices_than_the_recursion_limit(self, tmp_path, capsys):
        # With k = 1, k^n stays under the cap on any number of vertices, so
        # the search must reach every vertex without one frame per vertex.
        g = families.empty_graph(2000)
        assert g.n > sys.getrecursionlimit()
        assert count_proper_colorings(g, 1) == 1
        assert exact_diameter(g, 1) == 0
        graph = tmp_path / "g.txt"
        graph.write_text("2000 0\n")
        assert main(["oracle", str(graph), "-k", "1", "--count"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_cap_on_a_huge_power(self):
        # 10^5000 is never multiplied out, nor printed in full.
        with pytest.raises(StateSpaceTooLarge,
                           match=r"^k\^n = 10\^5000 exceeds the state cap 10000000$"):
            count_proper_colorings(families.empty_graph(5000), 10)

    @pytest.mark.parametrize("mode", ["--count", "--diameter", "--distance"])
    def test_cli_cap_on_a_huge_power(self, mode, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("5000 0\n")
        coloring = tmp_path / "c.txt"
        coloring.write_text("1 " * 5000 + "\n")
        extra = [str(coloring), str(coloring)] if mode == "--distance" else []
        assert main(["oracle", str(graph), "-k", "10", mode, *extra]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and len(err[0]) < 200, err


class TestDistance:
    def test_identical_colorings(self):
        p3 = families.path_graph(3)
        c = Coloring((1, 2, 1), 3)
        assert bfs_distance(p3, 3, c, c) == 0

    def test_single_edge_swap(self):
        # (1,2) -> (3,2) -> (3,1) -> (2,1) and nothing shorter
        k2 = families.complete_graph(2)
        assert bfs_distance(k2, 3, Coloring((1, 2), 3), Coloring((2, 1), 3)) == 3

    def test_path_swap(self):
        # no vertex can move straight to its target color, hence 4 not 3
        p3 = families.path_graph(3)
        assert bfs_distance(p3, 3, Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3)) == 4

    def test_frozen_triangle_unreachable(self):
        k3 = families.complete_graph(3)
        assert bfs_distance(k3, 3, Coloring((1, 2, 3), 3), Coloring((2, 1, 3), 3)) is None

    def test_improper_rejected(self):
        p3 = families.path_graph(3)
        with pytest.raises(ImproperInput):
            bfs_distance(p3, 3, Coloring((1, 1, 2), 3), Coloring((1, 2, 1), 3))

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(606)
        for _ in range(25):
            g = families.random_graph(rng, rng.randint(1, 5), rng.random() * 0.6)
            k = 3
            cols = [families.random_proper_coloring(rng, g, k) for _ in range(3)]
            d01 = bfs_distance(g, k, cols[0], cols[1])
            d10 = bfs_distance(g, k, cols[1], cols[0])
            assert d01 == d10
            d12 = bfs_distance(g, k, cols[1], cols[2])
            d02 = bfs_distance(g, k, cols[0], cols[2])
            if None not in (d01, d12, d02):
                assert d02 <= d01 + d12

    @pytest.mark.parametrize("g, k, alpha, beta, expected", [
        # identical endpoints
        (families.path_graph(3), 3, (1, 2, 1), (1, 2, 1), 0),
        # frozen: neither side has a move
        (families.complete_graph(3), 3, (1, 2, 3), (2, 1, 3), None),
        (families.complete_graph(2), 2, (1, 2), (2, 1), None),
        # disconnected but not frozen: only the isolated vertex can move, so
        # each search expands its colors before its open arrays run dry
        (Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]), 3, (1, 2, 3, 1), (2, 1, 3, 2), None),
        # every move is onto a goal color
        (families.empty_graph(2), 2, (1, 1), (2, 2), 2),
        # a 9-cycle on 3 colors: the windings (color steps of +1 minus steps
        # of -1, mod 3, around the cycle) are +3 and -3, and no move changes
        # a winding
        (families.cycle_graph(9), 3, (1, 2, 1, 2, 1, 2, 1, 2, 3), (1, 2, 1, 2, 1, 2, 1, 3, 2), None),
        # one vertex on a large palette: one move, found before the palette
        # is scanned
        (families.empty_graph(1), 10 ** 5, (1,), (10 ** 5,), 1),
    ])
    def test_matches_the_one_sided_search_on_named_cases(self, g, k, alpha, beta, expected):
        alpha, beta = Coloring(alpha, k), Coloring(beta, k)
        assert families.bfs_distance_one_sided(g, k, alpha, beta) == expected
        assert bfs_distance(g, k, alpha, beta) == expected
        assert bfs_distance(g, k, beta, alpha) == expected

    def test_edge_on_a_large_palette(self):
        # Each vertex moves once, to the color the other leaves free. The
        # one-sided reference would take seconds over the 4 * 10^6 states.
        k = 2000
        alpha, beta = Coloring((1, 2), k), Coloring((k, k - 1), k)
        assert bfs_distance(families.complete_graph(2), k, alpha, beta) == 2
        assert bfs_distance(families.complete_graph(2), k, beta, alpha) == 2

    def test_unreachable_pair_costs_about_a_component(self, monkeypatch):
        # Each coloring of the 9-cycle pair lies in a component of 252
        # colorings. The two searches together may decode at most both
        # components' worth: the first to run dry answers None.
        decoded = []

        def counted_decode(*args):
            decoded.append(args[0])
            return _decode(*args)

        monkeypatch.setattr(oracle, "_decode", counted_decode)
        alpha = Coloring((1, 2, 1, 2, 1, 2, 1, 2, 3), 3)
        beta = Coloring((1, 2, 1, 2, 1, 2, 1, 3, 2), 3)
        assert bfs_distance(families.cycle_graph(9), 3, alpha, beta) is None
        assert 0 < len(decoded) <= 2 * 252

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_one_sided_search(self, rnd):
        # Dense graphs with few colors give frozen colorings and disconnected
        # pairs; one draw in eight compares a coloring with itself.
        n, k = rnd.randint(1, 7), rnd.randint(2, 4)
        g = families.random_graph(rnd, n, rnd.random())
        codes = list(_proper_codes(g, k))
        assume(codes)
        alpha = rnd.choice(codes)
        beta = alpha if rnd.random() < 1 / 8 else rnd.choice(codes)
        alpha, beta = (Coloring(_decode(c, n, k), k) for c in (alpha, beta))
        assert bfs_distance(g, k, alpha, beta) == families.bfs_distance_one_sided(g, k, alpha, beta)


class TestDiameter:
    def test_single_vertex_two_colors(self):
        assert exact_diameter(families.empty_graph(1), 2) == 1

    def test_single_edge_three_colors(self):
        assert exact_diameter(families.complete_graph(2), 3) == 3

    def test_triangle_is_frozen(self):
        assert exact_diameter(families.complete_graph(3), 3) is None

    def test_no_colorings_at_all(self):
        assert exact_diameter(families.complete_graph(3), 2) is None

    def test_cap_counts_colorings_times_states(self):
        # k^n = 100 fits the cap, but one search per coloring, each scanning
        # both vertices of every state, charges colorings x 100 x 2.
        with pytest.raises(StateSpaceTooLarge, match=r"^at least 6 colorings x k\^n x n = "
                           r"10\^2 x 2 states x vertices exceed the state cap 1000$"):
            exact_diameter(families.empty_graph(2), 10, cap=1000)

    def test_matches_pairwise_maximum(self):
        g = families.path_graph(3)
        k = 3
        colorings = []
        for code in range(k ** g.n):
            colors = _decode(code, g.n, k)
            if all(colors[u] != colors[v] for u, v in g.edges()):
                colorings.append(Coloring(colors, k))
        best = max(bfs_distance(g, k, a, b)
                   for a, b in combinations(colorings, 2))
        assert exact_diameter(g, k) == best


def oracle_corpus_digest():
    """sha256 over the `bfs_distance` and `exact_diameter` answers on sixty
    seeded random graphs of 2 to 5 vertices with k^n at most 243, frozen and
    disconnected instances among them."""
    rng = random.Random(8088)
    digest = hashlib.sha256()
    for _ in range(60):
        n, k = rng.choice([(2, 2), (3, 3), (4, 3), (3, 4), (5, 2), (5, 3)])
        g = families.random_graph(rng, n, rng.uniform(0.2, 0.9))
        while degeneracy_ordering(g)[1] >= k:
            g = families.random_graph(rng, n, rng.uniform(0.2, 0.9))
        alpha = families.random_proper_coloring(rng, g, k)
        beta = families.random_proper_coloring(rng, g, k)
        digest.update(repr((bfs_distance(g, k, alpha, beta), exact_diameter(g, k))).encode())
    return digest.hexdigest()


# A change to the search must leave every answer as it is.
PINNED_ORACLE_DIGEST = "2ad0ffa15569e925cf8364c646fed9938f2629e945031155c3ffcc6ffa8d92be"


def test_answers_match_the_pinned_digest():
    assert oracle_corpus_digest() == PINNED_ORACLE_DIGEST


class TestEnumerateSpecialIS:
    def test_path_lists_exactly_the_low_degree_sets(self):
        p4 = families.path_graph(4)
        assert set(enumerate_special_is(p4, 2)) == {(), (0,), (3,), (0, 3)}

    def test_matching_contains_the_cross_pairs(self):
        got = set(enumerate_special_is(families.two_edge_matching(), 2))
        assert {(0, 2), (0, 3), (1, 3)} <= got

    def test_dense_graph_has_only_the_empty_set(self):
        assert enumerate_special_is(families.complete_graph(4), 2) == [()]

    def test_edgeless_all_subsets(self):
        assert len(enumerate_special_is(families.empty_graph(3), 1)) == 8

    def test_size_limit(self):
        with pytest.raises(StateSpaceTooLarge):
            enumerate_special_is(families.empty_graph(21), 1)

import ast
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import recolorwalk
import recolorwalk.engine as engine
from recolorwalk import (
    Coloring,
    DegreePartition,
    EliminationTrace,
    Graph,
    ImproperInput,
    PaletteTooSmall,
    RecoloringSequence,
    SequenceViolation,
    SizeGuaranteeViolated,
    SpecialISParams,
    bfs_distance,
    build_degree_partition,
    degree_partition_from_degeneracy,
    recolor_between,
    recolor_theorem_pipeline,
    reduce_palette,
    sequence_stats,
    serialize_coloring,
    verify_sequence,
    walk_bound,
)
from recolorwalk.cli import main
from recolorwalk.layering import embedded_ordering

import families
from families import eliminate, serialize_graph

HALF = Fraction(1, 2)

P3_PARTITION = DegreePartition(1, ((0, 2), (1,)))


def steps_as_pairs(seq):
    return [(s.vertex, s.new_color) for s in seq.steps]


def promote(g, ord_, c, target, mask):
    # One greedy promotion sweep over a fresh walk state: its steps and the
    # masked vertices left holding `target`, which are those the sweep does
    # not return.
    state = engine._WalkState(g, ord_, c, None)
    masked = set(mask)
    ordered = tuple(v for v in ord_.order if v in masked)
    taken = tuple(sorted(set(ordered).difference(engine._promote(state, ordered, target))))
    return state.walk(c), taken


class TestGreedyPromote:
    # When no masked vertex holds `target` and no neighbor outside the mask
    # does either, the promoted set is the greedy maximal independent set of
    # the masked subgraph, scanned from the last position to the first.
    def test_path_center_wins(self):
        p3 = families.path_graph(3)
        ord_ = embedded_ordering(P3_PARTITION)
        seq, taken = promote(p3, ord_, Coloring((1, 2, 1), 3), 3, range(3))
        assert steps_as_pairs(seq) == [(1, 3)]
        assert taken == (1,)
        verify_sequence(p3, seq.initial, seq, 3)

    def test_edgeless_promotes_everyone(self):
        g = families.empty_graph(4)
        p = DegreePartition(0, ((0, 1, 2, 3),))
        seq, taken = promote(g, embedded_ordering(p), Coloring((1, 2, 1, 2), 3),
                             3, range(4))
        assert taken == (0, 1, 2, 3)
        assert len(seq.steps) == 4

    def test_existing_maximal_set_means_no_steps(self):
        p3 = families.path_graph(3)
        seq, taken = promote(p3, embedded_ordering(P3_PARTITION),
                             Coloring((1, 3, 1), 3), 3, range(3))
        assert seq.steps == ()
        assert taken == (1,)

    def test_promoted_set_ignores_the_coloring(self):
        # without the target color anywhere, the promoted set is structural
        rng = random.Random(2)
        for _ in range(30):
            g = families.random_forest(rng, rng.randint(1, 14))
            p = build_degree_partition(g, SpecialISParams(2, HALF))
            ord_ = embedded_ordering(p)
            c1 = families.random_proper_coloring(rng, g, 2)
            c2 = families.random_proper_coloring(rng, g, 2)
            mask = [v for v in range(g.n) if rng.random() < 0.7]
            seq1, taken1 = promote(g, ord_, Coloring(c1.colors, 3), 3, mask)
            _, taken2 = promote(g, ord_, Coloring(c2.colors, 3), 3, mask)
            assert taken1 == taken2
            verify_sequence(g, seq1.initial, seq1, 3)


class TestEliminateColor:
    def test_path_trace(self):
        p3 = families.path_graph(3)
        c = Coloring((3, 1, 3), 3)
        seq = eliminate(p3, P3_PARTITION, 2, c, 3, {1, 2, 3})
        assert steps_as_pairs(seq) == [(0, 2), (2, 2)]
        assert verify_sequence(p3, c, seq, 3).colors == (2, 1, 2)

    def test_no_target_means_no_steps(self):
        p3 = families.path_graph(3)
        c = Coloring((1, 2, 1), 3)
        seq = eliminate(p3, P3_PARTITION, 2, c, 3, {1, 2, 3})
        assert seq.steps == ()

    def test_boundary_restricts_the_purge(self):
        p3 = families.path_graph(3)
        c = Coloring((1, 3, 1), 3)  # target only in layer 2
        seq = eliminate(p3, P3_PARTITION, 1, c, 3, {1, 2, 3})
        assert seq.steps == ()

    def test_palette_too_small(self):
        p3 = families.path_graph(3)
        with pytest.raises(PaletteTooSmall):
            eliminate(p3, P3_PARTITION, 2, Coloring((1, 2, 1), 2), 2, {1, 2})

    def test_locality_on_random_layered_boundaries(self):
        rng = random.Random(414)
        for _ in range(60):
            g = families.random_graph(rng, rng.randint(2, 10), rng.random() * 0.5)
            p = degree_partition_from_degeneracy(g)
            k = p.s + 2
            c = families.random_proper_coloring(rng, g, k)
            boundary = rng.randint(1, p.t)
            target = rng.randint(1, k)
            seq = eliminate(g, p, boundary, c, target, range(1, k + 1))
            final = verify_sequence(g, c, seq, k)
            inside = {v for layer in p.layers[:boundary] for v in layer}
            assert all(step.vertex in inside for step in seq.steps)
            assert all(final.colors[v] != target for v in inside)
            outside = set(range(g.n)) - inside
            assert all(final.colors[v] == c.colors[v] for v in outside)

    def test_locality_with_partial_masks(self):
        # unmasked vertices hold a color outside the palette, as the mask
        # contract requires; nothing outside boundary-and-mask may move
        rng = random.Random(515)
        for _ in range(40):
            g = families.random_graph(rng, rng.randint(2, 10), rng.random() * 0.5)
            p = degree_partition_from_degeneracy(g)
            k = p.s + 3
            c = families.random_proper_coloring(rng, g, k)
            palette = frozenset(range(1, p.s + 3))
            mask = [v for v in range(g.n) if c.colors[v] in palette]
            if not mask:
                continue
            boundary = rng.randint(1, p.t)
            target = rng.randint(1, p.s + 2)
            seq = eliminate(g, p, boundary, c, target, palette, mask=mask)
            final = verify_sequence(g, c, seq, k)
            inside = {v for layer in p.layers[:boundary] for v in layer} & set(mask)
            assert all(step.vertex in inside for step in seq.steps)
            assert all(final.colors[v] != target for v in inside)


class TestClearLayerColor:
    def test_base_case_single_step(self):
        # one layer without edges: the inner clearing call recolors directly
        g = families.empty_graph(2)
        p = DegreePartition(0, ((0, 1),))
        c = Coloring((3, 1), 3)
        seq = eliminate(g, p, 1, c, 3, {1, 2, 3})
        assert steps_as_pairs(seq) == [(0, 1)]

    def test_general_path_clears_and_restores(self):
        # star with target on a leaf layer vertex and a blocking center
        g = families.star_graph(3)
        p = build_degree_partition(g, SpecialISParams(2, HALF))  # ((1,2,3),(0,))
        ord_ = embedded_ordering(p)
        c = Coloring((1, 3, 2, 2), 3)
        trace = EliminationTrace()
        seq = eliminate(g, p, 2, c, 3, {1, 2, 3}, trace=trace)
        final = verify_sequence(g, c, seq, 3)
        assert 3 not in final.colors
        assert trace.claims, "expected at least one inner clearing call"
        for claim in trace.claims:
            assert max(claim.w_a_recolor_counts, default=0) <= 1
            assert claim.inner_mask_later_degree < max(claim.depth, 1)


class TestReducePalette:
    def test_already_small_enough(self):
        p3 = families.path_graph(3)
        seq = reduce_palette(p3, P3_PARTITION, Coloring((1, 2, 1), 3), 3, 3)
        assert seq.steps == ()

    def test_single_color_drop_matches_eliminate(self):
        p3 = families.path_graph(3)
        c4 = Coloring((4, 1, 4), 4)
        reduced = reduce_palette(p3, P3_PARTITION, c4, 4, 3)
        direct = eliminate(p3, P3_PARTITION, 2, c4, 4, {1, 2, 3, 4})
        assert reduced.steps == direct.steps

    def test_edgeless_down_to_two(self):
        g = families.empty_graph(4)
        p = DegreePartition(0, ((0, 1, 2, 3),))
        c = Coloring((5, 4, 3, 1), 5)
        seq = reduce_palette(g, p, c, 5, 2)
        final = verify_sequence(g, c, seq, 5)
        assert all(col <= 2 for col in final.colors)

    def test_target_below_minimum(self):
        p3 = families.path_graph(3)
        with pytest.raises(PaletteTooSmall):
            reduce_palette(p3, P3_PARTITION, Coloring((1, 2, 1), 3), 3, 2)


class TestDeclaredPalette:
    # The walk must depend on the colors in use, not on the declared k.
    HUGE_K = 2000

    def assert_k_independent(self, g, p, alpha, beta):
        k = max(max(alpha.colors), max(beta.colors), p.s + 2)
        small = [Coloring(c.colors, k) for c in (alpha, beta)]
        huge = [Coloring(c.colors, self.HUGE_K) for c in (alpha, beta)]
        assert (recolor_between(g, p, *small, k).steps
                == recolor_between(g, p, *huge, self.HUGE_K).steps)
        for c_small, c_huge in zip(small, huge):
            assert (reduce_palette(g, p, c_small, k, p.s + 2).steps
                    == reduce_palette(g, p, c_huge, self.HUGE_K, p.s + 2).steps)

    def test_path(self):
        self.assert_k_independent(families.path_graph(3), P3_PARTITION,
                                  Coloring((1, 2, 1), 3), Coloring((2, 3, 1), 3))

    def test_random_forests(self):
        rng = random.Random(2000)
        for _ in range(15):
            g = families.random_forest(rng, rng.randint(1, 12))
            p = build_degree_partition(g, SpecialISParams(2, HALF))
            alpha = families.random_proper_coloring(rng, g, 6)
            beta = families.random_proper_coloring(rng, g, 6)
            self.assert_k_independent(g, p, alpha, beta)

    def test_huge_color_value(self):
        # One vertex on color 10^6: the palette holds the colors in play, so
        # the cost does not follow the color's value.
        p3 = families.path_graph(3)
        p = build_degree_partition(p3, SpecialISParams(2, HALF))
        k = 10 ** 6
        tracemalloc.start()
        try:
            seq = recolor_between(p3, p, Coloring((1, k, 1), k), Coloring((2, 1, 2), k), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps_as_pairs(seq) == [(0, 2), (2, 2), (1, 1)]
        assert peak < 2 ** 20

    def test_sparse_colors_match_their_compaction(self):
        # Colors above s + 2 spread over 1..HUGE_K give the walks of their
        # order-preserving compaction, mapped back.
        rng = random.Random(2001)
        for _ in range(40):
            g = families.random_graph(rng, rng.randint(2, 14), rng.random() * 0.5)
            p = degree_partition_from_degeneracy(g)
            low = p.s + 2
            sparse = [_sparse_coloring(rng, families.random_proper_coloring(rng, g, p.s + 5),
                                       low, self.HUGE_K) for _ in range(2)]
            high = sorted({c for d in sparse for c in d.colors if c > low})
            back = dict(enumerate(high, start=low + 1))
            rank = {c: i for i, c in back.items()}
            k = low + len(high)
            compact = [Coloring(tuple(rank.get(c, c) for c in d.colors), k) for d in sparse]

            def mapped(seq):
                return [(v, back.get(c, c)) for v, c in steps_as_pairs(seq)]
            assert (steps_as_pairs(recolor_between(g, p, *sparse, self.HUGE_K))
                    == mapped(recolor_between(g, p, *compact, k)))
            for c_sparse, c_compact in zip(sparse, compact):
                assert (steps_as_pairs(reduce_palette(g, p, c_sparse, self.HUGE_K, low))
                        == mapped(reduce_palette(g, p, c_compact, k, low)))


def _sparse_coloring(rng, c, low, k):
    # Spread the colors above `low` over low+1..k, keeping their order.
    high = sorted({x for x in c.colors if x > low})
    spread = dict(zip(high, sorted(rng.sample(range(low + 1, k + 1), len(high)))))
    return Coloring(tuple(spread.get(x, x) for x in c.colors), k)


def walk_corpus_digest():
    """sha256 over the traced `recolor_between` walks of a fixed seeded corpus.

    Ten instances each of trees (d=3, k=4), forests (d=2, k=3), degeneracy
    partitions with k = s+5, and degeneracy partitions with the colors above
    s+2 spread up to 2,000; the hash covers every step and every claim.
    """
    rng = random.Random(6061)
    digest = hashlib.sha256()
    for i in range(40):
        kind = i % 4
        if kind == 0:
            g = families.random_tree(rng, rng.randint(2, 40))
            p, k = build_degree_partition(g, SpecialISParams(3, HALF)), 4
        elif kind == 1:
            g = families.random_forest(rng, rng.randint(2, 40))
            p, k = build_degree_partition(g, SpecialISParams(2, HALF)), 3
        else:
            g = families.random_graph(rng, rng.randint(2, 20), rng.uniform(0.05, 0.4))
            p = degree_partition_from_degeneracy(g)
            k = p.s + 5
        alpha = families.random_proper_coloring(rng, g, k)
        beta = families.random_proper_coloring(rng, g, k)
        if kind == 3:
            k = 2000
            alpha, beta = (_sparse_coloring(rng, c, p.s + 2, k) for c in (alpha, beta))
        trace = EliminationTrace()
        seq = recolor_between(g, p, alpha, beta, k, trace=trace)
        digest.update(repr(steps_as_pairs(seq)).encode())
        digest.update(repr([(w.depth, w.promoted_to_target, w.promoted_to_color,
                             w.w_a_recolor_counts, w.inner_mask_later_degree)
                            for w in trace.claims]).encode())
    return digest.hexdigest()


def reduce_corpus_digest():
    """sha256 over the `reduce_palette` walks of a fixed seeded corpus.

    Forty degeneracy partitions with k = s+5, the colors above s+2 spread up
    to 2,000, each coloring reduced to s+2 colors.
    """
    rng = random.Random(6062)
    digest = hashlib.sha256()
    for _ in range(40):
        g = families.random_graph(rng, rng.randint(2, 20), rng.uniform(0.05, 0.4))
        p = degree_partition_from_degeneracy(g)
        c = _sparse_coloring(rng, families.random_proper_coloring(rng, g, p.s + 5),
                             p.s + 2, 2000)
        digest.update(repr(steps_as_pairs(reduce_palette(g, p, c, 2000, p.s + 2))).encode())
    return digest.hexdigest()


# A change that alters emitted walks on purpose updates these constants and
# quotes the old and the new digests in CHANGES.md.
PINNED_WALK_DIGEST = "268037262967cf72e5b9edfe8ec0d91a53fa7f636d057ea70d21eb16b62adf8b"
PINNED_REDUCE_DIGEST = "64d8acb85358eeeafa5c54f3c207ce8cca1a2b5fb19b7d369c7e67e0ba5ef8ac"


def test_walks_match_the_pinned_digest():
    assert walk_corpus_digest() == PINNED_WALK_DIGEST


def test_reductions_match_the_pinned_digest():
    assert reduce_corpus_digest() == PINNED_REDUCE_DIGEST


def test_masks_stay_in_embedded_order(monkeypatch):
    # `_eliminate` finds a round's layers by bisecting its mask, which needs
    # strictly increasing embedded positions along every mask it receives:
    # from `_reduce`, from `_between` and from its own recursion.
    eliminate = engine._eliminate
    callers = set()

    def checked(state, target, palette, mask):
        position = {v: i for i, v in enumerate(state.order)}
        ranks = [position[v] for v in mask]
        assert all(x < y for x, y in zip(ranks, ranks[1:])), mask
        callers.add(sys._getframe(1).f_code.co_name)
        return eliminate(state, target, palette, mask)
    monkeypatch.setattr(engine, "_eliminate", checked)
    assert walk_corpus_digest() == PINNED_WALK_DIGEST
    assert reduce_corpus_digest() == PINNED_REDUCE_DIGEST
    assert callers == {"_reduce", "_between", "_clear_layer"}


def test_depth_and_edge_test_match_their_references():
    # `_depth` counts in one pass, and `_clear_layer` asks `_has_edge` for
    # any edge from u into u | w_a, stopping at the first; on seeded graphs,
    # masks, palettes and colorings both agree with the first-written
    # predicates in `families`.
    rng = random.Random(1600)
    found = 0
    for i in range(200):
        if i % 2:
            g = families.random_tree(rng, rng.randint(1, 30))
            p = build_degree_partition(g, SpecialISParams(3, HALF))
        else:
            g = families.random_graph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.5))
            p = degree_partition_from_degeneracy(g)
        ord_ = embedded_ordering(p)
        k = p.s + rng.randint(2, 4)
        state = engine._WalkState(g, ord_, families.random_proper_coloring(rng, g, k), None)
        mask = [v for v in ord_.order if rng.random() < 0.7]
        palette = frozenset(rng.sample(range(1, k + 1), rng.randint(2, k)))
        assert engine._depth(state, mask, palette) == \
            families.depth_reference(state, mask, palette)
        assert engine._has_edge(state, mask, set(mask)) == \
            families.later_edge_reference(state, mask)
        h = rng.randrange(p.t)
        u = [v for v in mask if ord_.layer_of[v] < h]
        w_a = [v for v in mask if ord_.layer_of[v] == h and rng.random() < 0.7]
        edge = engine._has_edge(state, u, set(u).union(w_a))
        assert edge == families.later_edge_reference(state, u + w_a)
        found += edge
    assert 20 < found < 180


class TestCompaction:
    # The merge rule of `_WalkState`, on the path 0 - 1 - 2 colored 1, 2, 1
    # with four colors. A record is (vertex, color left); `steps` are the
    # live records with the new colors `walk` reads back.
    P3 = families.path_graph(3)
    START = Coloring((1, 2, 1), 4)

    def side(self):
        return engine._WalkState(self.P3, embedded_ordering(P3_PARTITION), self.START, None)

    def records(self, state):
        return [(v, c) for v, c in zip(state.vertices, state.left) if v >= 0]

    def steps(self, state):
        return steps_as_pairs(state.walk(self.START))

    def end(self, state):
        return verify_sequence(self.P3, self.START, state.walk(self.START), 4).colors

    def test_second_move_merges(self):
        state = self.side()
        state.recolor(0, 3)
        state.recolor(0, 4)
        assert self.records(state) == [(0, 1)]
        assert self.steps(state) == [(0, 4)]
        assert self.end(state) == (4, 2, 1)

    def test_neighbor_move_blocks_the_merge(self):
        state = self.side()
        state.recolor(0, 3)
        state.recolor(1, 4)
        state.recolor(0, 2)
        assert self.records(state) == [(0, 1), (1, 2), (0, 3)]
        assert self.steps(state) == [(0, 3), (1, 4), (0, 2)]
        assert self.end(state) == (2, 4, 1)

    def test_move_of_a_non_neighbor_does_not_block(self):
        state = self.side()
        state.recolor(0, 3)
        state.recolor(2, 3)
        state.recolor(0, 4)
        assert self.records(state) == [(0, 1), (2, 1)]
        assert self.steps(state) == [(0, 4), (2, 3)]
        assert self.end(state) == (4, 2, 3)

    def test_return_to_the_earlier_color_cancels(self):
        state = self.side()
        state.recolor(0, 3)
        state.recolor(0, 1)
        assert self.records(state) == []
        assert state.walk(self.START).vertices == ()
        # The cancelled record takes no later move: the next one is new.
        state.recolor(0, 3)
        assert state.vertices == [-1, 0]
        assert self.records(state) == [(0, 1)]
        assert self.steps(state) == [(0, 3)]

    def test_record_keeps_the_color_it_left(self):
        # Merges leave the record's color alone, so replayed in reverse, as
        # the beta side is, the record takes vertex 0 from 4 back to 1; a
        # return to that color cancels it.
        state = self.side()
        state.recolor(0, 3)
        state.recolor(0, 4)
        assert self.records(state) == [(0, 1)]
        state.recolor(0, 1)
        assert self.records(state) == []

    def test_sweeps_use_the_same_rule(self):
        state = self.side()
        engine._promote(state, [0, 2], 3)
        engine._promote(state, [0, 2], 4)
        assert self.records(state) == [(2, 1), (0, 1)]
        assert self.steps(state) == [(2, 4), (0, 4)]
        engine._promote(state, [0, 2], 1)
        assert self.records(state) == []
        engine._promote(state, [1], 3)
        engine._promote(state, [0], 2)
        assert self.records(state) == [(1, 2), (0, 1)]
        assert self.steps(state) == [(1, 3), (0, 2)]
        assert self.end(state) == (2, 3, 1)

    @staticmethod
    def random_instance(rng):
        # A seeded graph on at most 12 vertices, k = 4 or 5, and a proper
        # start coloring.
        k = rng.randint(4, 5)
        while True:
            g = families.random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.5))
            p = degree_partition_from_degeneracy(g)
            if p.s < k:
                return g, embedded_ordering(p), k, families.random_proper_coloring(rng, g, k)

    def test_sweeps_match_the_reference_sweep(self):
        # `_promote` copies `recolor`'s rule inline: on random sweeps it
        # keeps the same records, `last` and colors as a sweep that calls
        # `recolor` for each vertex free to move to the target, and returns
        # the masked vertices left off the target, in mask order.
        rng = random.Random(1300)
        cancels = 0
        for _ in range(40):
            g, ord_, k, start = self.random_instance(rng)
            state = engine._WalkState(g, ord_, start, None)
            twin = engine._WalkState(g, ord_, start, None)
            for _ in range(30):
                mask = [v for v in ord_.order if rng.random() < 0.6]
                target = rng.randint(1, k)
                rest = engine._promote(state, mask, target)
                for v in reversed(mask):
                    if twin.colors[v] != target and all(
                            twin.colors[w] != target for w in g.adjacency[v]):
                        twin.recolor(v, target)
                assert (state.vertices, state.left, state.last, state.colors) == \
                    (twin.vertices, twin.left, twin.last, twin.colors)
                assert rest == [v for v in mask if twin.colors[v] != target]
            cancels += state.vertices.count(-1)
        assert cancels > 0

    def test_walk_reads_back_the_new_colors(self):
        # Random proper moves, with returns to earlier colors and neighbor
        # moves between a vertex's moves: the walk ends at the state's
        # coloring, and the live records reversed, each restoring the color
        # it left, lead back to the start, as the beta half is replayed.
        rng = random.Random(1301)
        cancels = merges = blocked = 0
        for _ in range(40):
            g, ord_, k, start = self.random_instance(rng)
            state = engine._WalkState(g, ord_, start, None)
            busy = rng.sample(range(g.n), min(g.n, 3))
            moves = 0
            for _ in range(60):
                v = rng.choice(busy)
                free = [c for c in range(1, k + 1) if c != state.colors[v]
                        and all(state.colors[w] != c for w in g.adjacency[v])]
                if free:
                    state.recolor(v, rng.choice(free))
                    moves += 1
            live = [(v, c) for v, c in zip(state.vertices, state.left) if v >= 0]
            # A move that appends no record merges or cancels.
            cancels += state.vertices.count(-1)
            merges += moves - len(state.vertices) - state.vertices.count(-1)
            # A vertex's second live record began after a neighbor moved.
            blocked += len(live) - len({v for v, _ in live})
            end = tuple(state.colors)
            assert verify_sequence(g, start, state.walk(start), k).colors == end
            back = RecoloringSequence(Coloring(end, k), tuple(v for v, _ in reversed(live)),
                                      tuple(c for _, c in reversed(live)))
            assert verify_sequence(g, back.initial, back, k).colors == start.colors
        assert cancels > 0 and merges > 0 and blocked > 0

    def test_seam_merges(self):
        # Alone, the alpha side records (1, 3) and the beta side, reversed,
        # (1, 2) then (0, 3): joined, vertex 1 returns to its color across
        # the seam, and one step is left.
        alpha, beta = Coloring((1, 2, 1), 3), Coloring((3, 2, 1), 3)
        assert steps_as_pairs(recolor_between(self.P3, P3_PARTITION, alpha, beta, 3)) == [(0, 3)]
        assert recolor_between(self.P3, P3_PARTITION, alpha, alpha, 3).vertices == ()


def test_walks_stay_near_the_optimum():
    # 60 seeded trees on 7 vertices, k = 3, degeneracy partitions: the walks
    # total at most twice the exact distances (1.70 here; 4.87 when every
    # move of the construction was emitted).
    rng = random.Random(0)
    steps = optimum = 0
    for _ in range(60):
        g = families.random_tree(rng, 7)
        p = degree_partition_from_degeneracy(g)
        alpha = families.random_proper_coloring(rng, g, 3)
        beta = families.random_proper_coloring(rng, g, 3)
        steps += len(recolor_between(g, p, alpha, beta, 3).vertices)
        optimum += bfs_distance(g, 3, alpha, beta)
    assert optimum == 355
    assert steps <= 2 * optimum


class TestRecolorBetween:
    def test_path_walk_is_tight(self):
        p3 = families.path_graph(3)
        alpha, beta = Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3)
        seq = recolor_between(p3, P3_PARTITION, alpha, beta, 3)
        assert verify_sequence(p3, alpha, seq, 3).colors == beta.colors
        assert len(seq.steps) == 4
        assert bfs_distance(p3, 3, alpha, beta) == 4

    def test_single_edge(self):
        k2 = families.complete_graph(2)
        p = build_degree_partition(k2, SpecialISParams(2, HALF))
        alpha, beta = Coloring((1, 2), 3), Coloring((2, 1), 3)
        seq = recolor_between(k2, p, alpha, beta, 3)
        assert verify_sequence(k2, alpha, seq, 3).colors == beta.colors
        assert len(seq.steps) >= bfs_distance(k2, 3, alpha, beta) == 3

    def test_equal_endpoints(self):
        p3 = families.path_graph(3)
        alpha = Coloring((1, 2, 1), 3)
        seq = recolor_between(p3, P3_PARTITION, alpha, alpha, 3)
        assert verify_sequence(p3, alpha, seq, 3).colors == alpha.colors

    def test_wide_palette_is_reduced_first(self):
        g = families.star_graph(4)
        p = build_degree_partition(g, SpecialISParams(2, HALF))
        alpha = Coloring((1, 5, 4, 3, 2), 5)
        beta = Coloring((5, 1, 1, 1, 1), 5)
        seq = recolor_between(g, p, alpha, beta, 5)
        assert verify_sequence(g, alpha, seq, 5).colors == beta.colors

    def test_improper_input(self):
        p3 = families.path_graph(3)
        with pytest.raises(ImproperInput, match="alpha"):
            recolor_between(p3, P3_PARTITION, Coloring((1, 1, 2), 3),
                            Coloring((1, 2, 1), 3), 3)

    def test_invalid_partition(self):
        p3 = families.path_graph(3)
        alpha, beta = Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3)
        with pytest.raises(ValueError) as info:
            recolor_between(p3, DegreePartition(1, ((0,), (2,))), alpha, beta, 3)
        assert type(info.value) is ValueError
        assert str(info.value) == "invalid partition: vertex 1 uncovered"

    def test_palette_too_small(self):
        p3 = families.path_graph(3)
        with pytest.raises(PaletteTooSmall):
            recolor_between(p3, P3_PARTITION, Coloring((1, 2, 1), 2),
                            Coloring((2, 1, 2), 2), 2)

    def test_deterministic_and_oracle_dominated(self):
        rng = random.Random(909)
        for _ in range(40):
            g = families.random_forest(rng, rng.randint(1, 7))
            p = build_degree_partition(g, SpecialISParams(2, HALF))
            alpha = families.random_proper_coloring(rng, g, 3)
            beta = families.random_proper_coloring(rng, g, 3)
            seq = recolor_between(g, p, alpha, beta, 3)
            again = recolor_between(g, p, alpha, beta, 3)
            assert seq == again
            assert verify_sequence(g, alpha, seq, 3).colors == beta.colors
            distance = bfs_distance(g, 3, alpha, beta)
            assert distance is not None
            assert len(seq.steps) >= distance

    def test_per_vertex_counts_within_bound(self):
        rng = random.Random(808)
        for _ in range(25):
            g = families.random_tree(rng, rng.randint(2, 20))
            p = build_degree_partition(g, SpecialISParams(3, HALF))
            k = p.s + 2
            alpha = families.random_proper_coloring(rng, g, k)
            beta = families.random_proper_coloring(rng, g, k)
            seq = recolor_between(g, p, alpha, beta, k)
            stats = sequence_stats(seq)
            assert stats.max_per_vertex <= walk_bound(p.s, p.t)

    def test_two_color_base_case(self):
        g = families.empty_graph(3)
        p = build_degree_partition(g, SpecialISParams(1, HALF))
        assert p.s == 0
        alpha, beta = Coloring((1, 2, 1), 2), Coloring((2, 1, 2), 2)
        seq = recolor_between(g, p, alpha, beta, 2)
        assert verify_sequence(g, alpha, seq, 2).colors == beta.colors
        assert len(seq.steps) == 3

    def test_petersen_through_degeneracy_partition(self):
        rng = random.Random(10)
        g = families.petersen_graph()
        p = degree_partition_from_degeneracy(g)
        assert p.s == 3 and p.t == 10
        alpha = families.random_proper_coloring(rng, g, 5)
        beta = families.random_proper_coloring(rng, g, 5)
        seq = recolor_between(g, p, alpha, beta, 5)
        assert verify_sequence(g, alpha, seq, 5).colors == beta.colors
        assert sequence_stats(seq).max_per_vertex <= walk_bound(p.s, p.t)

    def test_density_exactly_at_the_budget_edge(self):
        # K4 minus an edge has maximum average degree exactly 5/2 = d - eps
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        alpha, beta = Coloring((1, 2, 3, 4), 4), Coloring((4, 3, 2, 1), 4)
        seq, _, partition = recolor_theorem_pipeline(g, 3, HALF, alpha, beta, 4)
        assert verify_sequence(g, alpha, seq, 4).colors == beta.colors

    def test_deep_recursion_actually_promotes(self):
        # depth-2 runs must exercise the promote-and-purge machinery, not
        # just the direct base case
        rng = random.Random(55)
        general = 0
        for _ in range(10):
            g = families.random_theta(rng, rng.randint(6, 25))
            alpha = families.random_proper_coloring(rng, g, 4)
            beta = families.random_proper_coloring(rng, g, 4)
            trace = EliminationTrace()
            seq, _, _ = recolor_theorem_pipeline(g, 3, HALF, alpha, beta, 4,
                                                 trace=trace)
            verify_sequence(g, alpha, seq, 4)
            general += sum(1 for claim in trace.claims
                           if claim.promoted_to_target or claim.promoted_to_color)
        assert general > 0


class TestPipeline:
    def test_tiny_trees_low_density_budget(self):
        rng = random.Random(7007)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                g = families.random_tree(rng, n) if n > 1 else families.empty_graph(1)
                alpha = families.random_proper_coloring(rng, g, 3)
                beta = families.random_proper_coloring(rng, g, 3)
                seq, stats, partition = recolor_theorem_pipeline(
                    g, 2, HALF, alpha, beta, 3)
                assert verify_sequence(g, alpha, seq, 3).colors == beta.colors
                assert stats.total == len(seq.steps)

    def test_trees_with_relaxed_budget(self):
        rng = random.Random(7008)
        for _ in range(20):
            g = families.random_tree(rng, rng.randint(2, 25))
            alpha = families.random_proper_coloring(rng, g, 4)
            beta = families.random_proper_coloring(rng, g, 4)
            seq, stats, partition = recolor_theorem_pipeline(g, 3, HALF, alpha, beta, 4)
            assert verify_sequence(g, alpha, seq, 4).colors == beta.colors
            assert stats.max_per_vertex <= walk_bound(partition.s, partition.t)

    def test_equal_endpoints(self):
        p4 = families.path_graph(4)
        c = Coloring((1, 2, 1, 2), 3)
        seq, _, _ = recolor_theorem_pipeline(p4, 2, HALF, c, c, 3)
        assert verify_sequence(p4, c, seq, 3).colors == c.colors

    def test_wide_palette(self):
        rng = random.Random(606)
        for _ in range(10):
            g = families.random_forest(rng, rng.randint(1, 12))
            alpha = families.random_proper_coloring(rng, g, 5)
            beta = families.random_proper_coloring(rng, g, 5)
            seq, _, _ = recolor_theorem_pipeline(g, 2, HALF, alpha, beta, 5)
            assert verify_sequence(g, alpha, seq, 5).colors == beta.colors

    def test_more_palette_levels_than_the_recursion_limit(self):
        # s + 2 = 2001 colors on a 3-vertex path: the level loop stops once
        # every vertex is promoted instead of recursing once per color.
        p3 = families.path_graph(3)
        alpha, beta = Coloring((1, 2, 1), 2001), Coloring((2, 1, 2), 2001)
        seq, _, partition = recolor_theorem_pipeline(p3, 2000, HALF, alpha, beta, 2001)
        assert partition.s + 2 > sys.getrecursionlimit()
        assert verify_sequence(p3, alpha, seq, 2001).colors == beta.colors

    def test_dense_graph_rejected(self):
        k4 = families.complete_graph(4)
        c = Coloring((1, 2, 3, 4), 4)
        with pytest.raises(SizeGuaranteeViolated):
            recolor_theorem_pipeline(k4, 2, HALF, c, c, 4)

    def test_palette_checked_before_partition(self):
        k4 = families.complete_graph(4)
        c = Coloring((1, 2, 3, 4), 4)
        with pytest.raises(PaletteTooSmall):
            recolor_theorem_pipeline(k4, 4, HALF, c, c, 4)


class TestVerifySequence:
    def test_empty_returns_start(self):
        p3 = families.path_graph(3)
        alpha = Coloring((1, 2, 1), 3)
        seq = RecoloringSequence(alpha, (), ())
        assert verify_sequence(p3, alpha, seq, 3).colors == alpha.colors

    def test_conflicting_step_is_reported(self):
        p3 = families.path_graph(3)
        alpha = Coloring((1, 2, 1), 3)
        with pytest.raises(SequenceViolation) as info:
            verify_sequence(p3, alpha, RecoloringSequence(alpha, (0,), (2,)), 3)
        assert info.value.step_index == 0

    def test_no_op_step_is_reported(self):
        p3 = families.path_graph(3)
        alpha = Coloring((1, 2, 1), 3)
        with pytest.raises(SequenceViolation, match="already has color"):
            verify_sequence(p3, alpha, RecoloringSequence(alpha, (0,), (1,)), 3)

    def test_color_out_of_range(self):
        p3 = families.path_graph(3)
        alpha = Coloring((1, 2, 1), 3)
        with pytest.raises(SequenceViolation, match="outside"):
            verify_sequence(p3, alpha, RecoloringSequence(alpha, (0,), (4,)), 3)

    def test_improper_start(self):
        p3 = families.path_graph(3)
        alpha = Coloring((1, 1, 2), 3)
        with pytest.raises(SequenceViolation) as info:
            verify_sequence(p3, alpha, RecoloringSequence(alpha, (), ()), 3)
        assert info.value.step_index == -1

    def test_start_of_the_wrong_length(self):
        alpha = Coloring((1, 2), 3)
        with pytest.raises(ValueError) as info:
            verify_sequence(families.path_graph(3), alpha,
                            RecoloringSequence(alpha, (), ()), 3)
        assert type(info.value) is ValueError
        assert str(info.value) == "coloring has 2 entries for 3 vertices"

    def test_start_color_outside_the_palette(self):
        # The coloring's own palette is 4; the replay's is 3.
        alpha = Coloring((1, 2, 4), 4)
        with pytest.raises(SequenceViolation) as info:
            verify_sequence(families.path_graph(3), alpha,
                            RecoloringSequence(alpha, (), ()), 3)
        assert info.value.step_index == -1
        assert str(info.value) == "step -1: initial color of vertex 2 outside 1..3"

    @pytest.mark.parametrize("fault,reason", [
        ((7, 2), "vertex 7 out of range"),
        ((1, 4), "color 4 outside 1..3"),
        ((1, 2), "vertex 1 already has color 2"),
        # Leaves 1 and 3 both hold 2: the first in adjacency order is named.
        ((0, 2), "neighbor 1 of vertex 0 already has color 2"),
    ])
    def test_flat_and_step_replays_agree(self, fault, reason, tmp_path, capsys):
        # The library's replay of a walk and `recolorwalk verify` on the same
        # steps written as a sequence file fail at the same step, with the
        # same reason; a valid step comes first.
        star = families.star_graph(3)
        alpha = Coloring((1, 2, 3, 2), 3)
        vertices, new_colors = (2, fault[0]), (2, fault[1])
        with pytest.raises(SequenceViolation) as info:
            verify_sequence(star, alpha, RecoloringSequence(alpha, vertices, new_colors), 3)
        assert (info.value.step_index, info.value.reason) == (1, reason)
        paths = {"g.txt": serialize_graph(star), "from.txt": serialize_coloring(alpha),
                 "seq.txt": "".join(f"{v} {c}\n" for v, c in zip(vertices, new_colors))}
        for name, text in paths.items():
            (tmp_path / name).write_text(text)
        assert main(["verify", str(tmp_path / "g.txt"), str(tmp_path / "from.txt"),
                     str(tmp_path / "seq.txt"), "-k", "3"]) == 7
        assert capsys.readouterr().err == f"error: step 1: {reason}\n"


def test_walk_peak_bytes_per_step():
    # The walk is kept as flat int lists and tuples, with no object per
    # step, and compacted as it is built: one `recolor_between` on a
    # 1000-vertex tree peaks at most at 64 traced bytes per move of its
    # 63,696-move construction (16 here; 41 when every move was kept as a
    # step, 159 with a frozen step object per step).
    rng = random.Random(1000)
    g = families.random_tree(rng, 1000)
    p = build_degree_partition(g, SpecialISParams(3, HALF))
    alpha = families.random_proper_coloring(rng, g, 4)
    beta = families.random_proper_coloring(rng, g, 4)
    gc.collect()
    tracemalloc.start()
    try:
        seq = recolor_between(g, p, alpha, beta, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq.vertices) > 5_000
    assert peak <= 64 * 63_696


@pytest.mark.parametrize("seed", range(3))
def test_walk_leaves_no_tuples_behind(seed):
    # A walk whose result is dropped leaves at most 16 KiB traced once it
    # returns (2.6 KiB here). Masks built as tuple(<generator>) left 80-265
    # KiB on these instances: each small tuple freed parks its block in
    # CPython's per-size tuple free lists, which only a full collection
    # empties, and which pin allocator arenas between requests. The walks
    # are 884-2,202 steps long.
    rng = random.Random(seed)
    g = families.random_graph(rng, 100, 0.025)
    p = degree_partition_from_degeneracy(g)
    k = p.s + 5
    alpha = families.random_proper_coloring(rng, g, k)
    beta = families.random_proper_coloring(rng, g, k)
    assert len(recolor_between(g, p, alpha, beta, k).vertices) > 800
    gc.collect()
    tracemalloc.start()
    try:
        recolor_between(g, p, alpha, beta, k)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= 16 * 1024


class TestStats:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="^2 vertices for 1 new colors$"):
            RecoloringSequence(Coloring((3, 1, 3), 3), (0, 2), (2,))

    def test_empty(self):
        stats = sequence_stats(RecoloringSequence(Coloring((1, 2, 1), 3), (), ()))
        assert stats.total == 0
        assert stats.per_vertex == (0, 0, 0)
        assert stats.max_per_vertex == 0

    def test_small_sequence(self):
        seq = RecoloringSequence(Coloring((3, 1, 3), 3), (0, 2), (2, 2))
        stats = sequence_stats(seq)
        assert stats.per_vertex == (1, 0, 1)
        assert stats.total == 2
        assert stats.max_per_vertex == 1


class TestBounds:
    def test_pinned_values(self):
        assert engine._elim_bound(0, 5) == 1
        assert engine._elim_bound(1, 2) == 17
        assert engine._elim_bound(1, 3) == 25
        assert walk_bound(0, 9) == 1
        assert walk_bound(1, 2) == 37
        assert walk_bound(1, 3) == 53
        assert engine._elim_bound(2, 3) == 9 * (2 + 2 * 25) + 1 == 469
        assert walk_bound(2, 3) == 2 * 469 + 2 + 53 == 993


# Every entry point that takes a coloring checks it the same way: a wrong
# length or a wrong declared palette is a ValueError, an improper coloring is
# ImproperInput, and each message names the coloring. Callers: name -> (call
# on the coloring, name).
_P3 = families.path_graph(3)
_OTHER = Coloring((2, 1, 2), 3)
COLORING_CALLERS = {
    "recolor_between-alpha": (
        lambda c: recolor_between(_P3, P3_PARTITION, c, _OTHER, 3), "alpha"),
    "recolor_between-beta": (
        lambda c: recolor_between(_P3, P3_PARTITION, _OTHER, c, 3), "beta"),
    "reduce_palette": (
        lambda c: reduce_palette(_P3, P3_PARTITION, c, 3, 3), "input coloring"),
    "bfs_distance-alpha": (lambda c: bfs_distance(_P3, 3, c, _OTHER), "alpha"),
    "bfs_distance-beta": (lambda c: bfs_distance(_P3, 3, _OTHER, c), "beta"),
}
BAD_COLORINGS = {
    "length": (Coloring((1, 2), 3), ValueError, "has 2 entries for 3 vertices"),
    "palette": (Coloring((1, 2, 1), 4), ValueError, "declares palette 4, expected 3"),
    "improper": (Coloring((1, 1, 2), 3), ImproperInput, "is not a proper coloring"),
}


@pytest.mark.parametrize("caller,defect", [
    (caller, defect) for caller in COLORING_CALLERS for defect in BAD_COLORINGS])
def test_coloring_check(caller, defect):
    call, name = COLORING_CALLERS[caller]
    coloring, error, message = BAD_COLORINGS[defect]
    with pytest.raises(error, match=f"^{re.escape(f'{name} {message}')}$"):
        call(coloring)


def test_trace_observes_and_never_steers():
    # `recolor_between` returns the same steps with a trace as without one,
    # and records inner clearing calls somewhere. With k = s+3 the trace
    # covers the palette reduction's calls as well as the walk's.
    rng = random.Random(4242)
    claims = 0
    for _ in range(40):
        g = families.random_graph(rng, rng.randint(2, 10), rng.random() * 0.5)
        p = degree_partition_from_degeneracy(g)
        k = p.s + 3
        alpha = families.random_proper_coloring(rng, g, k)
        beta = families.random_proper_coloring(rng, g, k)
        trace = EliminationTrace()
        traced = recolor_between(g, p, alpha, beta, k, trace=trace)
        assert traced.steps == recolor_between(g, p, alpha, beta, k).steps
        claims += len(trace.claims)
    assert claims


PUBLIC_SURFACE = [
    "Coloring", "DEFAULT_STATE_CAP", "DegreePartition", "EliminationTrace",
    "Graph", "GraphFormatError", "ImproperInput",
    "PaletteTooSmall", "RecolorStats", "RecoloringSequence", "RecoloringStep",
    "RecolorwalkError", "SequenceViolation", "SizeGuaranteeViolated",
    "SpecialISParams", "StateSpaceTooLarge", "WorkSets", "bfs_distance",
    "build_degree_partition", "count_proper_colorings",
    "degeneracy_ordering", "degree_partition_from_degeneracy",
    "exact_diameter", "mad_brute", "mad_exact", "parse_coloring", "parse_graph",
    "partition_round_bound", "recolor_between", "recolor_theorem_pipeline",
    "reduce_palette", "sequence_stats", "serialize_coloring",
    "serialize_partition", "validate_partition",
    "verify_sequence", "walk_bound",
]


def test_public_surface():
    # Growing or shrinking the exported names must show up in this list.
    assert sorted(recolorwalk.__all__) == PUBLIC_SURFACE
    assert len(set(recolorwalk.__all__)) == len(recolorwalk.__all__) == 37
    for name in recolorwalk.__all__:
        assert getattr(recolorwalk, name) is not None


def test_readme_entry_points_are_exported():
    # Every name the README's "Key entry points" paragraph offers is one the
    # package exports, so the docs and `__all__` cannot drift apart.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = next(block for block in readme.split("\n\n")
                     if block.startswith("Key entry points:"))
    names = re.findall(r"`(\w+)`", paragraph)
    assert "recolor_between" in names
    assert sorted(set(names) - set(recolorwalk.__all__)) == []


_O_PROBE = """
import sys
import recolorwalk.engine as engine
from recolorwalk import *
if __debug__:
    sys.exit("asserts are still on")
promote = engine._promote
done = []

def corrupt(state, mask, target):
    taken = promote(state, mask, target)
    if not done:
        v = min(v for v in mask if state.adjacency[v])
        w, old = state.adjacency[v][0], state.colors[v]
        state.recolor(v, state.colors[w])
        state.recolor(w, old)
        done.append(v)
    return taken

engine._promote = corrupt
g = Graph.from_edges(3, [(0, 1), (1, 2)])
p = DegreePartition(1, ((0, 2), (1,)))
try:
    seq = recolor_between(g, p, Coloring((1, 2, 1), 3), Coloring((2, 1, 2), 3), 3)
except (ValueError, SequenceViolation) as exc:
    print("raised", type(exc).__name__)
else:
    print("returned", seq.steps)
"""


def test_walk_check_survives_python_O():
    # The first promotion sweep also records a step that copies a neighbor's
    # color, then moves that neighbor, as `_corrupting_promote` does: the
    # exit replay must reject the walk with asserts stripped too.
    src = str(Path(recolorwalk.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-O", "-c", _O_PROBE], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised SequenceViolation\n"


def _corrupting_promote(monkeypatch):
    # The first promotion sweep also records a step that copies a
    # neighbor's color: an improper walk the exit replay must catch. The
    # neighbor then moves, so no later move of the vertex can merge the bad
    # step away: a step only merges while no neighbor has moved since.
    promote = engine._promote
    done = []

    def corrupt(state, mask, target):
        taken = promote(state, mask, target)
        if not done:
            v = min(v for v in mask if state.adjacency[v])
            w, old = state.adjacency[v][0], state.colors[v]
            state.recolor(v, state.colors[w])
            state.recolor(w, old)
            done.append(v)
        return taken
    monkeypatch.setattr(engine, "_promote", corrupt)
    return done


def test_corrupted_walk_raises(monkeypatch):
    done = _corrupting_promote(monkeypatch)
    with pytest.raises(SequenceViolation, match="already has color"):
        recolor_between(_P3, P3_PARTITION, Coloring((1, 2, 1), 3), _OTHER, 3)
    assert done


def test_unfinished_walk_raises(monkeypatch):
    # A proper walk that stops short of beta fails the end-state check.
    monkeypatch.setattr(engine, "_between", lambda *args: None)
    with pytest.raises(SequenceViolation, match="^step 0: walk does not end with beta$"):
        recolor_between(_P3, P3_PARTITION, Coloring((1, 2, 1), 3), _OTHER, 3)


def test_corrupted_walk_exits_7_with_report(monkeypatch, tmp_path, capsys):
    done = _corrupting_promote(monkeypatch)
    for name, text in (("g.txt", "3 2\n0 1\n1 2\n"), ("from.txt", "1 2 1\n"),
                       ("to.txt", "2 1 2\n")):
        (tmp_path / name).write_text(text)
    report = tmp_path / "report.json"
    code = main(["recolor", *(str(tmp_path / n) for n in ("g.txt", "from.txt", "to.txt")),
                 "-k", "3", "-d", "2", "--epsilon", "1/2", "--report", str(report)])
    assert done and code == 7
    assert capsys.readouterr().err.startswith("error: step ")
    assert json.loads(report.read_text())["exit_status"] == 7


def test_no_assert_in_the_package():
    # Walk validity must not depend on asserts, which `python -O` strips.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(recolorwalk.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []

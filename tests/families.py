"""Deterministic graph and coloring builders shared by the test suite, the
graph writer, special-independent-set enumeration, the one-sided distance
search and the engine's first-written layer-depth and later-edge predicates
the tests check against, and the `eliminate` helper that reaches the
engine's private color elimination."""

from __future__ import annotations

import random

import recolorwalk.engine as engine
from recolorwalk import (
    Coloring,
    Graph,
    RecoloringSequence,
    StateSpaceTooLarge,
    degeneracy_ordering,
)
from recolorwalk.layering import embedded_ordering
from recolorwalk.oracle import _decode, _encode

_ENUMERATION_LIMIT = 20


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def two_edge_matching() -> Graph:
    return Graph.from_edges(4, [(0, 1), (2, 3)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_forest(rng: random.Random, n: int, max_component: int = 4) -> Graph:
    """Forest whose components have at most max_component vertices.

    With max_component = 4 every subgraph has average degree at most 3/2.
    """
    edges = []
    start = 0
    while start < n:
        size = min(rng.randint(1, max_component), n - start)
        for v in range(start + 1, start + size):
            edges.append((rng.randrange(start, v), v))
        start += size
    return Graph.from_edges(n, edges)


def random_unicyclic(rng: random.Random, n: int) -> Graph:
    """Connected graph with exactly one cycle; its densest subgraph is that
    cycle, so the maximum average degree is exactly 2."""
    assert n >= 3
    cycle_len = rng.randint(3, n)
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    for v in range(cycle_len, n):
        edges.append((rng.randrange(v), v))
    return Graph.from_edges(n, edges)


def random_theta(rng: random.Random, n: int) -> Graph:
    """Two hubs joined by three internally disjoint paths (n >= 5).

    The whole graph is its own densest subgraph, so the maximum average
    degree is exactly 2(n+1)/n <= 5/2.
    """
    assert n >= 5
    internal = n - 2
    cut1 = rng.randint(1, internal - 2)
    cut2 = rng.randint(cut1 + 1, internal - 1)
    edges = []
    next_id = 2
    for size in (cut1, cut2 - cut1, internal - cut2):
        chain = list(range(next_id, next_id + size))
        next_id += size
        edges.append((0, chain[0]))
        edges.extend(zip(chain, chain[1:]))
        edges.append((chain[-1], 1))
    return Graph.from_edges(n, edges)


def serialize_graph(g: Graph) -> str:
    """The graph text format: header `n m`, then one `u v` line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def enumerate_special_is(g: Graph, d: int) -> list[tuple[int, ...]]:
    """All independent sets whose members have degree at most d - 1 in g.

    Includes the empty set. Enumeration order is by candidate bitmask, so
    the result is deterministic.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if g.n > _ENUMERATION_LIMIT:
        raise StateSpaceTooLarge(
            f"n = {g.n} too large for subset enumeration (limit {_ENUMERATION_LIMIT})")
    candidates = [v for v in range(g.n) if g.degree(v) <= d - 1]
    adjacency_bits = {v: sum(1 << w for w in g.adjacency[v]) for v in candidates}
    out: list[tuple[int, ...]] = []
    for bits in range(1 << len(candidates)):
        members = [candidates[i] for i in range(len(candidates)) if bits >> i & 1]
        member_bits = sum(1 << v for v in members)
        if all(adjacency_bits[v] & member_bits == 0 for v in members):
            out.append(tuple(members))
    return out


def bfs_distance_one_sided(g: Graph, k: int, alpha: Coloring, beta: Coloring) -> int | None:
    """Exact distance by a level-by-level search from alpha alone, stopping
    at the level that reaches beta; None when beta is never reached. The
    reference the oracle's two-sided `bfs_distance` must agree with."""
    powers = [k ** v for v in range(g.n)]
    start, goal = _encode(alpha.colors, k), _encode(beta.colors, k)
    if start == goal:
        return 0
    visited = bytearray(k ** g.n)
    visited[start] = 1
    frontier = [start]
    distance = 0
    while frontier:
        distance += 1
        next_frontier = []
        for code in frontier:
            colors = _decode(code, g.n, k)
            for v in range(g.n):
                current = colors[v]
                blocked = {colors[w] for w in g.adjacency[v]}
                blocked.add(current)
                for c in range(1, k + 1):
                    if c in blocked:
                        continue
                    neighbor = code + (c - current) * powers[v]
                    if neighbor == goal:
                        return distance
                    if not visited[neighbor]:
                        visited[neighbor] = 1
                        next_frontier.append(neighbor)
        frontier = next_frontier
    return None


def random_proper_coloring(rng: random.Random, g: Graph, k: int) -> Coloring:
    """Uniform greedy proper coloring; needs k >= degeneracy(g) + 1."""
    ordering, degeneracy = degeneracy_ordering(g)
    assert k >= degeneracy + 1
    colors = [0] * g.n
    for v in ordering:
        used = {colors[w] for w in g.adjacency[v] if colors[w]}
        allowed = [c for c in range(1, k + 1) if c not in used]
        colors[v] = rng.choice(allowed)
    return Coloring(tuple(colors), k)


def eliminate(g, p, boundary, c, target, palette, mask=None, trace=None) -> RecoloringSequence:
    """Purge `target` from the masked vertices of the first `boundary` layers
    (every vertex when `mask` is None) with the engine's `_eliminate`.

    Unchecked: callers pass a proper coloring whose masked colors lie in the
    palette, and replay the returned walk with `verify_sequence`.
    """
    ord_ = embedded_ordering(p)
    masked = set(range(g.n) if mask is None else mask)
    scope = tuple(v for v in ord_.order if v in masked and ord_.layer_of[v] < boundary)
    state = engine._WalkState(g, ord_, c, trace)
    engine._eliminate(state, target, frozenset(palette), scope)
    return state.walk(c)


def depth_reference(state, mask, palette) -> int:
    """`engine._depth` as first written: collect the neighbors of masked
    vertices that are masked or hold a palette color, then take the largest
    later-layer count among them over the mask, at least 0."""
    members = set(mask)
    holders = {w for v in mask for w in state.adjacency[v]
               if w in members or state.colors[w] in palette}
    return max(engine._later_degree(state, mask, holders), 0)


def later_edge_reference(state, vertices) -> bool:
    """`_clear_layer`'s first-written test for a later-layer edge inside
    `vertices`: the full later-degree count over every member, where
    `engine._has_edge` stops at the first edge."""
    members = set(vertices)
    return engine._later_degree(state, members, members) > 0

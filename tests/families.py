"""Deterministic graph and coloring builders shared by the test suite, the
graph writer, special-independent-set enumeration, the one-sided distance
search, the layer depth of an elimination and the structural later-edge
test the direct move must cover, both counting later-layer neighbors on
their own with no engine code, the breadth-first reference for the part of
u a layer-clearing call sweeps, the round loop a color elimination ran
before its rounds were grouped, the `eliminate` helper that reaches the
engine's private color elimination, and two probes of the walk recursion: a
recorder of the layer-clearing calls, which checks the paper's depth lemma
from outside the engine, and a sweep that corrupts a walk."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass

import recolorwalk.engine as engine
from recolorwalk import (
    Coloring,
    Graph,
    PaletteTooSmall,
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
    reference the oracle's A* `bfs_distance` must agree with."""
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


def _later_degree(state, vertices, among) -> int:
    # The most neighbors in `among` at a strictly later layer, over
    # `vertices`; -1 when `vertices` is empty.
    layer_of = state.layer_of
    return max((sum(1 for w in state.adjacency[v] if w in among and layer_of[w] > layer_of[v])
                for v in vertices), default=-1)


def depth_reference(state, mask, palette) -> int:
    """The layer depth of an elimination over `mask` with `palette` (see
    `engine._eliminate`): collect the neighbors of masked vertices that are
    masked or hold a palette color, then take the largest later-layer count
    among them over the mask, at least 0. With an empty palette, the most
    later-layer neighbors a masked vertex has inside the mask."""
    members = set(mask)
    holders = {w for v in mask for w in state.adjacency[v]
               if w in members or state.colors[w] in palette}
    return max(_later_degree(state, mask, holders), 0)


def later_edge_reference(state, vertices) -> bool:
    """Whether `vertices` hold a later-layer edge: the structural test by
    which `_clear_layer` once moved w_a straight to the new color when
    u | w_a had no such edge. `_clear_layer` has no such move any more:
    without that edge no neighbor of w_a holds the new color, so w_a moved
    early in `_eliminate` and makes no clearing call."""
    members = set(vertices)
    return _later_degree(state, members, members) > 0


def reach_reference(state, u, w_a) -> set[int]:
    """The vertices of u joined to some w_a vertex by a path inside u:
    breadth-first from w_a over the subgraph induced on u | w_a, with no
    engine code."""
    inside = set(u) | set(w_a)
    reached = set(w_a)
    queue = deque(w_a)
    while queue:
        v = queue.popleft()
        for x in state.adjacency[v]:
            if x in inside and x not in reached:
                reached.add(x)
                queue.append(x)
    return reached - set(w_a)


def eliminate_reference(state, target, palette, mask) -> None:
    """`engine._eliminate` as it was before its rounds were grouped: each
    round bisects a list of the mask's layers for its own, and filters its
    layer slice on `target` around every early move.
    Installed as `engine._eliminate`, it also serves the nested calls of
    `engine._clear_layer`; the walks must come out identical."""
    if not mask:
        return
    layer_of = state.layer_of
    colors = state.colors
    adjacency = state.adjacency
    layers = [layer_of[v] for v in mask]
    replacements = sorted(palette - {target})
    for h in sorted({layer_of[v] for v in mask if colors[v] == target}):
        start = bisect_left(layers, h)
        w = mask[start:bisect_right(layers, h, start)]
        for a in replacements:
            w = [v for v in w if colors[v] == target]
            for v in w:  # the early move
                held = {colors[x] for x in adjacency[v]}
                for b in replacements:
                    if b not in held:
                        state.recolor(v, b)
                        break
            w = [v for v in w if colors[v] == target]
            if not w:
                break
            w_a = []
            for v in w:
                for x in adjacency[v]:
                    if colors[x] == a and layer_of[x] > h:
                        break
                else:
                    w_a.append(v)
            if not w_a:
                continue
            engine._clear_layer(state, target, a, h, w_a, palette)


class _CountedColors(list):
    """A walk side's coloring that counts the writes to each vertex."""

    def __init__(self, colors):
        super().__init__(colors)
        self.writes = Counter()

    def __setitem__(self, v, color):
        self.writes[v] += 1
        super().__setitem__(v, color)


@dataclass
class ClearingCall:
    """One inner layer-clearing call as `record_clearing_calls` saw it: the
    w_a vertices it cleared, each one's moves during the call, the layer
    depth of the elimination that made the call, the earlier-layer vertices
    that its first and second promotion sweeps moved, in ascending id, and
    the most later-layer neighbors a vertex of the unpromoted rest has
    inside the rest (-1 for an empty rest)."""

    w_a: tuple[int, ...]
    moves: tuple[int, ...]
    depth: int
    promoted_to_target: tuple[int, ...]
    promoted_to_color: tuple[int, ...]
    inner_mask_later_degree: int


class ClearingCalls(list):
    """The `ClearingCall`s that `record_clearing_calls` recorded, and
    `masks`, the masks of the eliminations running, innermost last."""

    def __init__(self):
        super().__init__()
        self.masks = []

    def earlier_layers(self, state, h) -> list[int]:
        """u of a clearing call for layer h made now: the innermost running
        elimination's masked vertices below layer h, in mask order."""
        return [v for v in self.masks[-1] if state.layer_of[v] < h]


def record_clearing_calls(setattr_) -> ClearingCalls:
    """Record the engine's inner layer-clearing calls from outside it.

    Installs, through `setattr_` (`monkeypatch.setattr`), a `_WalkState`
    whose coloring counts its writes and wrappers of `engine._eliminate`,
    `engine._clear_layer` and `engine._promote`. Returns a `ClearingCalls`
    that gets one `ClearingCall` per call, in the order the calls finish
    (the order of `EliminationTrace.claims`), and stacks the masks of the
    eliminations running. Every move of the engine goes through
    `_WalkState.recolor` and writes `colors[v]`, so a move count includes
    moves merged into earlier records or cancelled.

    Each elimination of a non-empty mask takes `depth_reference` on entry,
    and raises PaletteTooSmall when its palette has fewer than depth + 2
    colors, which the paper's depth lemma rules out. The two sweeps made
    while a clearing call is the innermost one running are that call's.
    """
    calls, depths, frames = ClearingCalls(), [], []
    init, eliminate = engine._WalkState.__init__, engine._eliminate
    clear_layer, promote = engine._clear_layer, engine._promote

    def counted_init(self, g, ord_, start, trace):
        init(self, g, ord_, start, trace)
        self.colors = _CountedColors(self.colors)

    def recorded_eliminate(state, target, palette, mask):
        if not mask:
            return eliminate(state, target, palette, mask)
        depth = depth_reference(state, mask, palette)
        if len(palette) < depth + 2:
            raise PaletteTooSmall(
                f"palette of {len(palette)} colors cannot clear a color at layer "
                f"depth {depth}; at least {depth + 2} colors are needed")
        depths.append(depth)
        calls.masks.append(mask)
        eliminate(state, target, palette, mask)
        calls.masks.pop()
        depths.pop()

    def recorded_clear_layer(state, target, a, h, w_a, palette):
        writes = state.colors.writes
        entry = [writes[v] for v in w_a]
        frames.append([])
        clear_layer(state, target, a, h, w_a, palette)
        # A sweep promoted the vertices of its mask it did not return.
        (first, inner), (second, rest) = frames.pop()
        calls.append(ClearingCall(
            w_a=tuple(w_a),
            moves=tuple(writes[v] - m for v, m in zip(w_a, entry)),
            depth=depths[-1],
            promoted_to_target=tuple(sorted(set(first).difference(inner))),
            promoted_to_color=tuple(sorted(set(second).difference(rest))),
            inner_mask_later_degree=depth_reference(state, inner, ()) if inner else -1,
        ))

    def recorded_promote(state, mask, target):
        left = promote(state, mask, target)
        if frames:
            frames[-1].append((mask, left))
        return left
    setattr_(engine._WalkState, "__init__", counted_init)
    setattr_(engine, "_eliminate", recorded_eliminate)
    setattr_(engine, "_clear_layer", recorded_clear_layer)
    setattr_(engine, "_promote", recorded_promote)
    return calls


def corrupt_first_sweep(setattr_) -> list[int]:
    """Make the engine's first promotion sweep also record a step that copies
    a neighbor's color: an improper walk the exit replay must catch.

    Installs the wrapped `engine._promote` through `setattr_`
    (`monkeypatch.setattr`, or the builtin `setattr` where no fixture runs)
    and returns a list that gets the corrupted vertex. The neighbor then
    moves, so no later move of the vertex can merge the bad step away: a step
    only merges while no neighbor has moved since.
    """
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
    setattr_(engine, "_promote", corrupt)
    return done

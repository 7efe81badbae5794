"""Construction of single-vertex recoloring walks between proper colorings.

All machinery runs over one fixed degree-layer partition and its embedded
ordering. Storage direction: orderings are stored first layer first, and
every scanning pass runs from the last position toward the first, so "later
position" always implies "strictly later layer" for neighbors (same-layer
neighbors cannot exist, layers being independent sets).

Recursion never materializes subgraphs. Each recursive call receives a
vertex mask, already cut to the layers it may touch, and recolors masked
vertices only; unmasked vertices in those layers always hold colors outside
the call's palette, so they can never block a recoloring to a palette
color. The code does not *rely* on that invariant for safety: the two public
walk producers, `reduce_palette` and `recolor_between` (which
`recolor_theorem_pipeline` wraps), replay their walk with `verify_sequence`
and check its promised end state before returning, so a fault surfaces as a
SequenceViolation, also under `python -O`, rather than as an invalid walk.

Masks are tuples in embedded order and palettes hold the colors in play, so
a call costs what it owns, not the graph's size or the largest color value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import PaletteTooSmall, SequenceViolation
from .graphs import Coloring, Graph, check_coloring
from .layering import (
    DegreePartition,
    EmbeddedOrdering,
    SpecialISParams,
    build_degree_partition,
    embedded_ordering,
    validate_partition,
)


@dataclass(frozen=True)
class RecoloringStep:
    vertex: int
    new_color: int


@dataclass(frozen=True)
class RecoloringSequence:
    """A walk in the space of proper colorings, anchored at `initial`.

    Every prefix application yields a proper coloring, and no step recolors
    a vertex to the color it already has.
    """

    initial: Coloring
    steps: tuple[RecoloringStep, ...]


@dataclass(frozen=True)
class RecolorStats:
    per_vertex: tuple[int, ...]
    total: int
    max_per_vertex: int


@dataclass(frozen=True)
class WorkSets:
    """Instrumentation snapshot of one inner layer-clearing call.

    `depth` is the layer-depth budget of the enclosing elimination. The two
    promoted sets are the earlier-layer vertices that each promotion sweep
    left on the target and on the replacement color; `w_a_recolor_counts`
    the steps per cleared vertex, in ascending id; `inner_mask_later_degree`
    the largest within-mask later-layer degree of the unpromoted rest (-1
    when empty), which the recursion requires to be strictly below `depth`.
    """

    depth: int
    promoted_to_target: tuple[int, ...]
    promoted_to_color: tuple[int, ...]
    w_a_recolor_counts: tuple[int, ...]
    inner_mask_later_degree: int


@dataclass
class EliminationTrace:
    """Collects one WorkSets record per inner layer-clearing call."""

    claims: list[WorkSets] = field(default_factory=list)


class _WalkState:
    """One side of a walk under construction, plus the context that every
    frame of the recursion shares: the graph's `adjacency`, the embedded
    ordering's `order` and `layer_of`, and the `trace` (or None) that gets one
    WorkSets per inner layer-clearing call. `colors` is the current coloring,
    `steps` the recorded steps and `olds` each step's old color.
    """

    __slots__ = ("adjacency", "layer_of", "order", "trace", "colors", "steps", "olds")

    def __init__(self, g: Graph, ord_: EmbeddedOrdering, start: Coloring,
                 trace: EliminationTrace | None):
        self.adjacency = g.adjacency
        self.layer_of = ord_.layer_of
        self.order = ord_.order
        self.trace = trace
        self.colors = list(start.colors)
        self.steps: list[RecoloringStep] = []
        self.olds: list[int] = []

    def recolor(self, v: int, color: int) -> None:
        self.steps.append(RecoloringStep(v, color))
        self.olds.append(self.colors[v])
        self.colors[v] = color


def _promote(state: _WalkState, mask: tuple[int, ...], target: int) -> frozenset[int]:
    # Scan masked vertices from the last position toward the first,
    # recoloring each to `target` whenever no neighbor currently holds it;
    # return the masked vertices that hold `target` afterwards.
    taken = set()
    colors = state.colors
    adjacency = state.adjacency
    for v in reversed(mask):
        if colors[v] == target:
            taken.add(v)
            continue
        if all(colors[w] != target for w in adjacency[v]):
            state.recolor(v, target)
            taken.add(v)
    return frozenset(taken)


def _later_degree(state: _WalkState, vertices: Iterable[int],
                  among: frozenset[int] | set[int]) -> int:
    # Largest number of neighbors in `among` at a strictly later layer, over
    # `vertices`; -1 when `vertices` is empty. For adjacent vertices a later
    # layer and a later position coincide.
    adjacency = state.adjacency
    layer_of = state.layer_of
    best = -1
    for v in vertices:
        lv = layer_of[v]
        count = 0
        for w in adjacency[v]:
            if layer_of[w] > lv and w in among:
                count += 1
        if count > best:
            best = count
    return best


def _eliminate(state: _WalkState, target: int, palette: frozenset[int],
               mask: tuple[int, ...]) -> None:
    """Purge `target` from the masked vertices.

    One round per layer that holds `target` on the mask, lowest first. A
    round recolors only masked vertices of its own layer and earlier ones,
    so the layers above it still hold `target` exactly where they did on
    entry. Callers cut the mask to the layers they may touch.
    """
    if not mask:
        return
    layer_of = state.layer_of
    colors = state.colors
    adjacency = state.adjacency
    # Neighbors that could ever hold a palette color during this call:
    # masked ones (they stay inside the palette) plus unmasked ones
    # currently colored from it.
    members = set(mask)
    holders = {w for v in mask for w in adjacency[v]
               if w in members or colors[w] in palette}
    depth = max(_later_degree(state, mask, holders), 0)
    if len(palette) < depth + 2:
        raise PaletteTooSmall(
            f"palette of {len(palette)} colors cannot clear a color at layer "
            f"depth {depth}; at least {depth + 2} colors are needed")
    for h in sorted({layer_of[v] for v in mask if colors[v] == target}):
        u = tuple(v for v in mask if layer_of[v] < h)
        w = [v for v in mask if layer_of[v] == h and colors[v] == target]
        for a in sorted(palette - {target}):
            if not w:
                break
            w_a = tuple(v for v in w
                        if all(colors[x] != a for x in adjacency[v] if layer_of[x] > h))
            if not w_a:
                continue
            _clear_layer(state, target, a, u, w_a, depth, palette)
            w = [v for v in w if colors[v] == target]


def _clear_layer(state: _WalkState, target: int, a: int, u: tuple[int, ...],
                 w_a: tuple[int, ...], depth: int, palette: frozenset[int]) -> None:
    """Move the w_a vertices from `target` to `a`, recoloring only u | w_a.

    General shape: promote u toward `target` (freeing `a`-space below),
    recursively purge `a` from the unpromoted rest, recolor w_a directly,
    then repeat the first two phases with `a` and `target` interchanged so
    u ends target-free again. When u | w_a has no internal forward edges the
    direct recoloring alone is already proper. `w_a` is sorted.
    """
    first = len(state.steps)
    members = set(u).union(w_a)
    # No later-layer edge inside u | w_a: the direct recoloring is safe.
    if depth == 0 or _later_degree(state, members, members) <= 0:
        for v in w_a:
            state.recolor(v, a)
        promoted_first = promoted_second = inner = frozenset()
    else:
        promoted_first = _promote(state, u, target)
        inner = tuple(v for v in u if v not in promoted_first)
        _eliminate(state, a, palette - {target}, inner)
        for v in w_a:
            state.recolor(v, a)
        promoted_second = _promote(state, u, a)
        _eliminate(state, target, palette - {a}, tuple(v for v in u if v not in promoted_second))
    if state.trace is not None:
        moved = Counter(step.vertex for step in state.steps[first:])
        state.trace.claims.append(WorkSets(
            depth=depth,
            promoted_to_target=tuple(sorted(promoted_first)),
            promoted_to_color=tuple(sorted(promoted_second)),
            w_a_recolor_counts=tuple(moved[v] for v in w_a),
            inner_mask_later_degree=_later_degree(state, inner, set(inner)),
        ))


def _between(a_state: _WalkState, b_state: _WalkState, mask: tuple[int, ...],
             palette: frozenset[int]) -> None:
    """Drive both sides to a common coloring of the masked vertices.

    With two colors left the masked subgraph has no internal edges, so the
    first side can copy the second directly. Otherwise both sides purge the
    top color and promote toward it; promotion after a purge is a pure
    function of the mask and ordering, so the promoted sets coincide and the
    next level may drop them from the mask together with the top color. A
    level with an empty mask would emit nothing, so the loop stops there.
    """
    while mask and len(palette) > 2:
        target = max(palette)
        _eliminate(a_state, target, palette, mask)
        _eliminate(b_state, target, palette, mask)
        promoted = _promote(a_state, mask, target)
        _promote(b_state, mask, target)
        mask = tuple(v for v in mask if v not in promoted)
        palette -= {target}
    for v in sorted(v for v in mask if a_state.colors[v] != b_state.colors[v]):
        a_state.recolor(v, b_state.colors[v])


def _reduce(state: _WalkState, target_size: int) -> None:
    # Eliminate the largest color held, against 1..target_size plus the colors
    # held, until at most target_size colors remain. Replacements are tried in
    # ascending order and 1..target_size clears every layer, so a color nobody
    # holds is never needed: it is neither eliminated nor a replacement.
    while (j := max(state.colors)) > target_size:
        _eliminate(state, j, frozenset(state.colors).union(range(1, target_size + 1)),
                   state.order)


def _checked_inputs(g: Graph, p: DegreePartition, colorings: dict[str, Coloring],
                    k: int) -> None:
    problem = validate_partition(g, p)
    if problem is not None:
        raise ValueError(f"invalid partition: {problem}")
    for name, c in colorings.items():
        check_coloring(g, c, name, k)


def _checked_walk(g: Graph, start: Coloring, steps: Iterable[RecoloringStep],
                  k: int, ends: Callable[[tuple[int, ...]], bool],
                  goal: str) -> RecoloringSequence:
    """Exit of every public walk producer: replay the walk in {1..k} and
    check its last coloring with `ends`; SequenceViolation on either failure."""
    seq = RecoloringSequence(start, tuple(steps))
    if not ends(verify_sequence(g, start, seq, k).colors):
        raise SequenceViolation(len(seq.steps), f"walk does not end with {goal}")
    return seq


def reduce_palette(g: Graph, p: DegreePartition, c: Coloring, k: int,
                   target_size: int) -> RecoloringSequence:
    """Eliminate colors k, k-1, ..., target_size+1 from the whole graph,
    skipping those no vertex holds when their turn comes.

    Bridges an arbitrary palette down to the target_size >= s+2 colors the
    walk recursion wants.
    """
    _checked_inputs(g, p, {"input coloring": c}, k)
    if target_size < p.s + 2:
        raise PaletteTooSmall(
            f"target palette {target_size} below the required {p.s + 2}")
    state = _WalkState(g, embedded_ordering(p), c, None)
    _reduce(state, target_size)
    return _checked_walk(g, c, state.steps, k,
                         lambda colors: max(colors) <= target_size,
                         f"at most {target_size} colors")


def recolor_between(g: Graph, p: DegreePartition, alpha: Coloring,
                    beta: Coloring, k: int,
                    trace: EliminationTrace | None = None) -> RecoloringSequence:
    """Emit a walk from alpha to beta in the space of proper k-colorings.

    Both sides are first reduced to s+2 colors, then recursively driven to a
    common coloring (purge top color, promote toward it, recurse on the rest
    with one color fewer). The emitted sequence is the alpha-side steps
    followed by the beta-side steps reversed, each reversed step restoring
    the color the vertex held before that step.
    """
    _checked_inputs(g, p, {"alpha": alpha, "beta": beta}, k)
    if k < p.s + 2:
        raise PaletteTooSmall(
            f"k = {k} but the partition needs at least {p.s + 2} colors")
    ord_ = embedded_ordering(p)
    a_state = _WalkState(g, ord_, alpha, trace)
    b_state = _WalkState(g, ord_, beta, trace)
    for state in (a_state, b_state):
        _reduce(state, p.s + 2)
    _between(a_state, b_state, ord_.order, frozenset(range(1, p.s + 3)))
    steps = a_state.steps + [RecoloringStep(step.vertex, old) for step, old
                             in zip(reversed(b_state.steps), reversed(b_state.olds))]
    return _checked_walk(g, alpha, steps, k,
                         lambda colors: colors == beta.colors, "beta")


def recolor_theorem_pipeline(
    g: Graph, d: int, epsilon, alpha: Coloring, beta: Coloring, k: int,
    trace: EliminationTrace | None = None,
) -> tuple[RecoloringSequence, RecolorStats, DegreePartition]:
    """End-to-end walk construction for graphs of maximum average degree
    at most d - epsilon: build the (d-1)-depth partition, then walk.
    """
    if k < d + 1:
        raise PaletteTooSmall(f"k = {k} but at least d + 1 = {d + 1} colors are needed")
    params = SpecialISParams(d=d, epsilon=epsilon)
    partition = build_degree_partition(g, params)
    seq = recolor_between(g, partition, alpha, beta, k, trace)
    return seq, sequence_stats(seq), partition


def verify_sequence(g: Graph, alpha: Coloring,
                    seq: RecoloringSequence | Iterable[RecoloringStep],
                    k: int) -> Coloring:
    """Replay a step list from alpha, checking every walk rule.

    Raises SequenceViolation naming the first offending step (index -1 for
    a bad initial coloring); returns the final coloring on success.
    """
    steps = seq.steps if isinstance(seq, RecoloringSequence) else tuple(seq)
    if len(alpha.colors) != g.n:
        raise ValueError(f"coloring has {len(alpha.colors)} entries for {g.n} vertices")
    colors = list(alpha.colors)
    for v in range(g.n):
        if not 1 <= colors[v] <= k:
            raise SequenceViolation(-1, f"initial color of vertex {v} outside 1..{k}")
    for u, v in g.edges():
        if colors[u] == colors[v]:
            raise SequenceViolation(-1, f"initial coloring improper on edge ({u}, {v})")
    for i, step in enumerate(steps):
        v, c = step.vertex, step.new_color
        if not 0 <= v < g.n:
            raise SequenceViolation(i, f"vertex {v} out of range")
        if not 1 <= c <= k:
            raise SequenceViolation(i, f"color {c} outside 1..{k}")
        if colors[v] == c:
            raise SequenceViolation(i, f"vertex {v} already has color {c}")
        for w in g.adjacency[v]:
            if colors[w] == c:
                raise SequenceViolation(
                    i, f"neighbor {w} of vertex {v} already has color {c}")
        colors[v] = c
    return Coloring(tuple(colors), k)


def sequence_stats(seq: RecoloringSequence) -> RecolorStats:
    per_vertex = [0] * len(seq.initial.colors)
    for step in seq.steps:
        per_vertex[step.vertex] += 1
    return RecolorStats(tuple(per_vertex), len(seq.steps),
                        max(per_vertex, default=0))


def elim_bound(s: int, t: int) -> int:
    """Per-vertex recoloring ceiling for one color elimination at layer
    depth s with the tight palette of s + 2 colors.

    Counting the recursion as implemented: an elimination visits at most t
    layer rounds; a round runs at most s + 1 replacement-color passes; each
    pass touches an earlier-layer vertex at most twice directly (the two
    promotion sweeps) plus twice recursively one depth lower, and an
    active-layer vertex is directly recolored at most once over the whole
    call (the active layer only ever moves upward):

        elim(0, t) = 1
        elim(s, t) = t * (s + 1) * (2 + 2 * elim(s - 1, t)) + 1
    """
    if s <= 0:
        return 1
    return t * (s + 1) * (2 + 2 * elim_bound(s - 1, t)) + 1


def walk_bound(s: int, t: int) -> int:
    """Per-vertex ceiling over a full two-sided walk at depth s with k = s + 2.

    Each recursion level runs one elimination and one promotion sweep on
    both sides before descending one depth with one color fewer, and the
    two-color base level recolors each vertex at most once:

        walk(0, t) = 1
        walk(s, t) = 2 * elim(s, t) + 2 + walk(s - 1, t)
    """
    if s <= 0:
        return 1
    return 2 * elim_bound(s, t) + 2 + walk_bound(s - 1, t)

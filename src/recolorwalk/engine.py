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
`recolor_theorem_pipeline` wraps), replay their walk from its own start in
that start's palette with `verify_sequence` and check its promised end state
before returning, so a fault surfaces as a SequenceViolation, also under
`python -O`, rather than as an invalid walk.

Masks are lists or slices in embedded order, never tuples built from
generators (see `_eliminate`), and palettes hold the colors in play, so a
call costs what it owns, not the graph's size or the largest color value.
Each elimination round slices its mask by layer, so masks must stay in
embedded order: `_promote` returns the vertices it leaves in mask order, and
that list is the next mask.

A walk stays flat from construction to every replay: each side records two
int lists, a record being a vertex and the color it left, and a
`RecoloringSequence` holds the vertices and new colors as two tuples; the
new colors are read back from the records when the walk is assembled.
`recolorwalk verify` parses a sequence file into the same form. No per-step
object is built unless a caller asks for `RecoloringSequence.steps`.

Records are compacted as they are made (`_WalkState`): a vertex's move
merges into its previous record while no neighbor has moved since, and a
move back to the color that record left drops it. The construction, its
colorings and `walk_bound` are unchanged; only what the walk records is
shorter. `recolor_between` joins the alpha side's steps to the beta side's
records reversed, each restoring the color it left, and records that walk
once more with the same rule, which merges across the seam.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import eq
from typing import Callable, Sequence

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

    Step i recolors `vertices[i]` to `new_colors[i]`; the two tuples have
    equal length (ValueError otherwise). Every prefix application yields a
    proper coloring, and no step recolors a vertex to the color it already
    has. `steps` builds the `RecoloringStep` view on demand, one object per
    step, on each access.
    """

    initial: Coloring
    vertices: tuple[int, ...]
    new_colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.new_colors):
            raise ValueError(f"{len(self.vertices)} vertices for "
                             f"{len(self.new_colors)} new colors")

    @property
    def steps(self) -> tuple[RecoloringStep, ...]:
        return tuple(map(RecoloringStep, self.vertices, self.new_colors))


@dataclass(frozen=True)
class RecolorStats:
    per_vertex: tuple[int, ...]
    total: int
    max_per_vertex: int


@dataclass(frozen=True)
class WorkSets:
    """Instrumentation snapshot of one inner layer-clearing call. Layer
    vertices that moved early, to a color no neighbor held, make no call and
    so no snapshot (see `_eliminate`).

    `depth` is the layer-depth budget of the enclosing elimination. The two
    promoted sets are the earlier-layer vertices that each promotion sweep
    left on the target and on the replacement color, in ascending id;
    `inner_mask_later_degree` is `_depth`'s count over the unpromoted rest
    with an empty palette, the most later-layer neighbors a rest vertex has
    inside the rest (-1 for an empty rest), which the recursion requires to
    be strictly below `depth`.
    """

    depth: int
    promoted_to_target: tuple[int, ...]
    promoted_to_color: tuple[int, ...]
    inner_mask_later_degree: int


@dataclass
class EliminationTrace:
    """What the walk recursion of one `recolor_between(..., trace=)` call
    did: `claims` holds one `WorkSets` per inner layer-clearing call, in the
    order the calls finish, with its four fields `depth`,
    `promoted_to_target`, `promoted_to_color` and `inner_mask_later_degree`.
    A claim is written once its call has made its moves; no move reads the
    trace.
    """

    claims: list[WorkSets] = field(default_factory=list)


class _WalkState:
    """One side of a walk under construction, plus the context that every
    frame of the recursion shares: the graph's `adjacency`, the embedded
    ordering's `order` and `layer_of`, and the `trace` (or None) that gets one
    WorkSets per inner layer-clearing call. `colors` is the current coloring.

    Record i moves `vertices[i]` off color `left[i]`; `walk` reads its new
    color back, and replayed in reverse it restores `left[i]`.

    Records are compacted as they are made. `last[v]` is the record a move of
    v may merge into (-1 for none). Every appended record of v clears
    `last[w]` for each neighbor w, so while `last[v] >= 0` no neighbor has
    moved since that record began: at that time every neighbor held its
    current color, so the merged move could have been made there. A move back
    to the record's `left` cancels it (vertex -1, dropped from the walk); any
    other move merges and only changes `colors`. Merges and cancels need no
    neighbor pass: while `last[v] >= 0` every neighbor's `last` is -1, cleared
    when v's record began and not set since, as setting it would have cleared
    `last[v]`.
    """

    __slots__ = ("adjacency", "layer_of", "order", "trace", "colors",
                 "vertices", "left", "last")

    def __init__(self, g: Graph, ord_: EmbeddedOrdering, start: Coloring,
                 trace: EliminationTrace | None):
        self.adjacency = g.adjacency
        self.layer_of = ord_.layer_of
        self.order = ord_.order
        self.trace = trace
        self.colors = list(start.colors)
        self.vertices: list[int] = []
        self.left: list[int] = []
        self.last = [-1] * g.n

    def recolor(self, v: int, color: int) -> None:
        r = self.last[v]
        if r < 0:
            self.last[v] = len(self.vertices)
            self.vertices.append(v)
            self.left.append(self.colors[v])
            last = self.last
            for w in self.adjacency[v]:
                last[w] = -1
        elif color == self.left[r]:
            self.vertices[r] = -1
            self.last[v] = -1
        self.colors[v] = color

    def walk(self, initial: Coloring) -> RecoloringSequence:
        """The live records as a walk from `initial`. A record's new color is
        the color its vertex's next live record left, or else the vertex's
        current color; one pass from the end reads them all."""
        held = self.colors[:]
        vertices, new_colors = [], []
        for v, c in zip(reversed(self.vertices), reversed(self.left)):
            if v >= 0:
                vertices.append(v)
                new_colors.append(held[v])
                held[v] = c
        return RecoloringSequence(initial, tuple(reversed(vertices)),
                                  tuple(reversed(new_colors)))


def _promote(state: _WalkState, mask: Sequence[int], target: int) -> list[int]:
    # Scan masked vertices from the last position toward the first,
    # recoloring each to `target` whenever no neighbor currently holds it.
    # Returns the masked vertices left off `target`, in mask order: the next
    # mask of `_between` and the rest `_clear_layer` recurses on. The sweeps
    # make most of a walk's moves, so they copy `_WalkState.recolor`'s rule
    # inline: calling it made `recolor_between` 12 % slower on 1000-vertex trees.
    rest = []
    colors = state.colors
    adjacency = state.adjacency
    vertices, left, last = state.vertices, state.left, state.last
    for v in reversed(mask):
        old = colors[v]
        if old == target:
            continue
        for w in adjacency[v]:
            if colors[w] == target:
                rest.append(v)
                break
        else:
            r = last[v]
            if r < 0:
                last[v] = len(vertices)
                vertices.append(v)
                left.append(old)
                for w in adjacency[v]:
                    last[w] = -1
            elif target == left[r]:
                vertices[r] = -1
                last[v] = -1
            colors[v] = target
    rest.reverse()
    return rest


def _depth(state: _WalkState, mask: Sequence[int], palette: frozenset[int]) -> int:
    # Layer-depth budget of an elimination: the most later-layer neighbors of
    # a masked vertex that could ever hold a palette color during the call,
    # masked ones (they stay inside the palette) plus unmasked ones currently
    # colored from it; 0 for none.
    adjacency = state.adjacency
    layer_of = state.layer_of
    colors = state.colors
    members = set(mask)
    depth = 0
    for v in mask:
        lv = layer_of[v]
        count = 0
        for w in adjacency[v]:
            if layer_of[w] > lv and (w in members or colors[w] in palette):
                count += 1
        if count > depth:
            depth = count
    return depth


def _eliminate(state: _WalkState, target: int, palette: frozenset[int],
               mask: Sequence[int]) -> None:
    """Purge `target` from the masked vertices.

    One round per layer that holds `target` on the mask, lowest first. A
    round recolors only masked vertices of its own layer and earlier ones,
    so the layers above it still hold `target` exactly where they did on
    entry. Callers cut the mask to the layers they may touch.

    The mask must be in embedded order: layers never decrease along it, so
    a round's earlier layers are a prefix of the mask and its own layer a
    slice, both found by bisecting the mask's layers.

    Early move: before each replacement pass, a round moves each of its
    layer's vertices still on `target` to the smallest other palette color
    that no neighbor holds; vertices that an earlier pass's clearing call
    moved are skipped. Only the vertices with no such color go on to the
    pass's w_a test and `_clear_layer`, which so finds `a` held next to
    each of them. That is one admissible choice of the paper's replacement
    color, which need only be free of later-layer neighbors.
    - Each move is proper: no neighbor of v holds the chosen color when v
      moves, and the moved vertices lie in one layer, an independent set,
      so no early move blocks another.
    - The round keeps its post-conditions: early moves move only layer-h
      vertices, and only off `target`, so they leave u and the later
      layers as they were.
    - The depth lemma still holds. Every unpromoted vertex of a later
      `_clear_layer` call has a blocker on `target`, which lies outside the
      nested mask and palette: the nested depth does not count it, the
      enclosing depth does. A vertex that moved early is masked in this
      call, so the enclosing depth already counted it, and the nested depth
      still drops by at least 1.
    - `walk_bound(s, t)` still holds: an active-layer vertex is still
      recolored directly at most once per elimination, by an early move or
      in `_clear_layer`, as the bound charges; once off `target` it is
      skipped by every later pass, and nested calls never mask its layer.

    The layer-depth scan `_depth` and its PaletteTooSmall guard run only
    for a traced call, whose claims record the depth; no move reads it. The
    guard cannot fire from a public entry: `recolor_between` and
    `reduce_palette` start with k >= s+2 colors against a depth of at most
    s, and each nested call gets one color fewer for a strictly smaller
    later-layer degree (the paper's lemma, which criterion 5 checks on
    every traced claim).
    """
    if not mask:
        return
    layer_of = state.layer_of
    colors = state.colors
    adjacency = state.adjacency
    depth = None
    if state.trace is not None:
        depth = _depth(state, mask, palette)
        if len(palette) < depth + 2:
            raise PaletteTooSmall(
                f"palette of {len(palette)} colors cannot clear a color at layer "
                f"depth {depth}; at least {depth + 2} colors are needed")
    layers = [layer_of[v] for v in mask]
    replacements = sorted(palette - {target})
    for h in sorted({layer_of[v] for v in mask if colors[v] == target}):
        # Masks are lists or slices, never tuple(<generator>): that allocates
        # at a guessed size and resizes, so each small mask freed parks a
        # block in CPython's per-size tuple free lists (2000 a size), which
        # only a full collection empties and which pin allocator arenas
        # meanwhile.
        start = bisect_left(layers, h)
        u = mask[:start]
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
            _clear_layer(state, target, a, u, w_a, depth, palette)


def _clear_layer(state: _WalkState, target: int, a: int, u: Sequence[int],
                 w_a: list[int], depth: int | None, palette: frozenset[int]) -> None:
    """Move the w_a vertices from `target` to `a`, recoloring only u | w_a.

    Promote u toward `target` (freeing `a`-space below), recursively purge
    `a` from the unpromoted rest, recolor w_a directly, then repeat the
    first two phases with `a` and `target` interchanged so u ends
    target-free again. `w_a` is sorted; `depth` is the enclosing
    elimination's layer depth, None when untraced, and only the trace reads
    it. Layer vertices with a palette color that no neighbor holds moved
    early in `_eliminate` and never reach this call, so some neighbor of
    each w_a vertex holds `a` on entry.
    """
    inner = _promote(state, u, target)
    _eliminate(state, a, palette - {target}, inner)
    for v in w_a:
        state.recolor(v, a)
    rest = _promote(state, u, a)
    _eliminate(state, target, palette - {a}, rest)
    if state.trace is not None:
        # A sweep promoted the vertices of its mask it did not return.
        state.trace.claims.append(WorkSets(
            depth=depth,
            promoted_to_target=tuple(sorted(set(u).difference(inner))),
            promoted_to_color=tuple(sorted(set(u).difference(rest))),
            inner_mask_later_degree=_depth(state, inner, frozenset()) if inner else -1,
        ))


def _between(a_state: _WalkState, b_state: _WalkState, mask: Sequence[int],
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
        rest = _promote(a_state, mask, target)
        _promote(b_state, mask, target)
        mask = rest
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


def _checked_walk(g: Graph, seq: RecoloringSequence,
                  ends: Callable[[tuple[int, ...]], bool], goal: str) -> RecoloringSequence:
    """Exit of every public walk producer: replay the walk with
    `verify_sequence` and check its last coloring with `ends`;
    SequenceViolation on either failure."""
    if not ends(verify_sequence(g, seq).colors):
        raise SequenceViolation(len(seq.vertices), f"walk does not end with {goal}")
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
    return _checked_walk(g, state.walk(c),
                         lambda colors: max(colors) <= target_size,
                         f"at most {target_size} colors")


def recolor_between(g: Graph, p: DegreePartition, alpha: Coloring,
                    beta: Coloring, k: int,
                    trace: EliminationTrace | None = None) -> RecoloringSequence:
    """Emit a walk from alpha to beta in the space of proper k-colorings.

    Both sides are first reduced to s+2 colors, then recursively driven to a
    common coloring (purge top color, promote toward it, recurse on the rest
    with one color fewer). Each side records its moves compacted (see
    `_WalkState`). The joined walk, the alpha side's steps followed by the
    beta side's records reversed, each restoring the color it left, is then
    recorded once more by a fresh side, whose merge rule also merges moves
    across the seam. So the emitted walk is not the construction's moves
    verbatim: a vertex's consecutive moves with no neighbor move between them
    become one step, or none when they return it to its earlier color. Equal
    endpoints give the empty walk.
    """
    _checked_inputs(g, p, {"alpha": alpha, "beta": beta}, k)
    if k < p.s + 2:
        raise PaletteTooSmall(
            f"k = {k} but the partition needs at least {p.s + 2} colors")
    if alpha.colors == beta.colors:
        return RecoloringSequence(alpha, (), ())
    ord_ = embedded_ordering(p)
    a_state = _WalkState(g, ord_, alpha, trace)
    b_state = _WalkState(g, ord_, beta, trace)
    for state in (a_state, b_state):
        _reduce(state, p.s + 2)
    _between(a_state, b_state, ord_.order, frozenset(range(1, p.s + 3)))
    a_walk = a_state.walk(alpha)
    joined = _WalkState(g, ord_, alpha, None)
    for v, c in chain(zip(a_walk.vertices, a_walk.new_colors),
                      zip(reversed(b_state.vertices), reversed(b_state.left))):
        if v >= 0:
            joined.recolor(v, c)
    del a_walk  # freed before the joined walk is assembled, where the call peaks
    return _checked_walk(g, joined.walk(alpha),
                         lambda colors: colors == beta.colors, "beta")


def recolor_theorem_pipeline(
    g: Graph, d: int, epsilon, alpha: Coloring, beta: Coloring, k: int,
) -> tuple[RecoloringSequence, RecolorStats, DegreePartition]:
    """End-to-end walk construction for graphs of maximum average degree
    at most d - epsilon: build the (d-1)-depth partition, then walk.
    """
    if k < d + 1:
        raise PaletteTooSmall(f"k = {k} but at least d + 1 = {d + 1} colors are needed")
    params = SpecialISParams(d=d, epsilon=epsilon)
    partition = build_degree_partition(g, params)
    seq = recolor_between(g, partition, alpha, beta, k)
    return seq, sequence_stats(seq), partition


def verify_sequence(g: Graph, seq: RecoloringSequence) -> Coloring:
    """Replay the steps of `seq` from `seq.initial`, checking every walk rule
    in the palette 1..`seq.initial.k`.

    Raises SequenceViolation naming the first offending step (index -1 for
    an improper initial coloring); returns the final coloring on success.
    """
    colors = list(seq.initial.colors)
    k = seq.initial.k
    if len(colors) != g.n:
        raise ValueError(f"coloring has {len(colors)} entries for {g.n} vertices")
    color_of = colors.__getitem__
    if any(map(eq, map(color_of, g.us), map(color_of, g.vs))):
        # Only a failed check pays for the ordered scan naming the lowest edge.
        u, v = next((u, v) for u, v in g.edges() if colors[u] == colors[v])
        raise SequenceViolation(-1, f"initial coloring improper on edge ({u}, {v})")
    n = g.n
    adjacency = g.adjacency
    for i, (v, c) in enumerate(zip(seq.vertices, seq.new_colors)):
        if not 0 <= v < n:
            raise SequenceViolation(i, f"vertex {v} out of range")
        if not 1 <= c <= k:
            raise SequenceViolation(i, f"color {c} outside 1..{k}")
        if colors[v] == c:
            raise SequenceViolation(i, f"vertex {v} already has color {c}")
        for w in adjacency[v]:
            if colors[w] == c:
                raise SequenceViolation(
                    i, f"neighbor {w} of vertex {v} already has color {c}")
        colors[v] = c
    return Coloring(tuple(colors), k)


def sequence_stats(seq: RecoloringSequence) -> RecolorStats:
    per_vertex = [0] * len(seq.initial.colors)
    for v, count in Counter(seq.vertices).items():
        per_vertex[v] = count
    return RecolorStats(tuple(per_vertex), len(seq.vertices),
                        max(per_vertex, default=0))


def _elim_bound(s: int, t: int) -> int:
    # Per-vertex ceiling of one color elimination; see `walk_bound`.
    if s <= 0:
        return 1
    return t * (s + 1) * (2 + 2 * _elim_bound(s - 1, t)) + 1


def walk_bound(s: int, t: int) -> int:
    """Per-vertex ceiling over a full two-sided walk at depth s with k = s + 2.

    Each recursion level runs one elimination and one promotion sweep on
    both sides before descending one depth with one color fewer, and the
    two-color base level recolors each vertex at most once:

        walk(0, t) = 1
        walk(s, t) = 2 * elim(s, t) + 2 + walk(s - 1, t)

    elim(s, t) bounds one color elimination at depth s with the tight
    palette of s + 2 colors. Counting the recursion as implemented: an
    elimination visits at most t layer rounds; a round runs at most s + 1
    replacement-color passes; each pass touches an earlier-layer vertex at
    most twice directly (the two promotion sweeps) plus twice recursively one
    depth lower, and an active-layer vertex is directly recolored at most
    once over the whole call, by a pass's early move to a color no
    neighbor holds or by a clearing call (the active layer only ever moves
    upward):

        elim(0, t) = 1
        elim(s, t) = t * (s + 1) * (2 + 2 * elim(s - 1, t)) + 1
    """
    if s <= 0:
        return 1
    return 2 * _elim_bound(s, t) + 2 + walk_bound(s - 1, t)

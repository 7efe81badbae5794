"""Construction of single-vertex recoloring walks between proper colorings.

All machinery runs over one fixed degree-layer partition and its embedded
ordering. Storage direction: orderings are stored first layer first, and
every scanning pass runs from the last position toward the first, so "later
position" always implies "strictly later layer" for neighbors (same-layer
neighbors cannot exist, layers being independent sets).

Recursion never materializes subgraphs. Each recursive call receives a
vertex mask, already cut to the layers it may touch, and recolors masked
vertices only. The mask invariant: every masked vertex holds a color of the
call's palette, and an unmasked vertex in the call's layers either holds a
color outside the palette or has no neighbor in the mask, so it can never
block a recoloring of a masked vertex to a palette color. A layer-clearing
call (`_clear_layer`) masks only the part of the earlier layers joined to
the vertices it clears, which is where the second case comes from, and it
finds that part by the invariant alone: a search from the cleared vertices
through earlier-layer vertices on palette colors (`_reach`) reaches exactly
the masked ones joined to them. A fault in the invariant would pick the
wrong vertices, but it cannot pass unseen: the two public walk producers,
`reduce_palette` and `recolor_between` (which `recolor_theorem_pipeline`
wraps), replay their walk from its own start in that start's palette with
`verify_sequence` and check its promised end state before returning, so a
fault surfaces as a SequenceViolation, also under `python -O`, rather than
as an invalid walk.

Masks are lists in embedded order (or the ordering itself), never tuples
built from generators: `tuple(<generator>)` allocates at a guessed size and
resizes, so each small mask freed parks a block in CPython's per-size tuple
free lists (2000 a size), which only a full collection empties and which
pin allocator arenas meanwhile. Palettes hold the colors in play, so a call
costs what it owns, not the graph's size or the largest color value. An
elimination groups its mask's vertices on the target by layer in one pass,
so masks must stay in embedded order: `_promote` returns the vertices it
leaves in mask order, and that list is the next mask, and `_reach` returns
its vertices in embedded order.

A walk stays flat from construction to every replay: each side records
flat int lists, a record being a vertex and the color it left (and, for
compaction, the vertex's record before it), and a
`RecoloringSequence` holds the vertices and new colors as two tuples; the
new colors are read back from the records when the walk is assembled.
`recolorwalk verify` parses a sequence file into the same form. No per-step
object is built unless a caller asks for `RecoloringSequence.steps`.

Records are compacted as they are made (`_WalkState`): a vertex's move
merges into its latest live record unless a neighbor held the move's new
color at some time since that record, and a move back to the color that
record left drops it, after which the vertex's earlier live record takes
its next move. The construction, its colorings and `walk_bound` are
unchanged; only what the walk records is shorter. `recolor_between`
replays the beta side's records reversed, each restoring the color it
left, into the alpha side itself, so the same rule merges across the seam.
One pass finds no merge that a later merge makes possible, so a further
pass over an emitted walk can shorten it again.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from operator import eq
from typing import Callable, NamedTuple, Sequence

from .errors import SequenceViolation
from .graphs import Coloring, Graph, check_coloring
from .layering import (
    DegreePartition,
    EmbeddedOrdering,
    SpecialISParams,
    build_degree_partition,
    check_palette,
    embedded_ordering,
    validate_partition,
)


class RecoloringStep(NamedTuple):
    vertex: int
    new_color: int


class _SequenceFields(NamedTuple):
    initial: Coloring
    vertices: tuple[int, ...]
    new_colors: tuple[int, ...]


class RecoloringSequence(_SequenceFields):
    """A walk in the space of proper colorings, anchored at `initial`.

    Step i recolors `vertices[i]` to `new_colors[i]`; the two tuples have
    equal length (ValueError otherwise). Every prefix application yields a
    proper coloring, and no step recolors a vertex to the color it already
    has. `steps` builds the `RecoloringStep` view on demand, one object per
    step, on each access.
    """

    __slots__ = ()

    def __new__(cls, initial: Coloring, vertices: tuple[int, ...], new_colors: tuple[int, ...]):
        if len(vertices) != len(new_colors):
            raise ValueError(f"{len(vertices)} vertices for {len(new_colors)} new colors")
        return super().__new__(cls, initial, vertices, new_colors)

    @property
    def steps(self) -> tuple[RecoloringStep, ...]:
        return tuple(map(RecoloringStep, self.vertices, self.new_colors))


class RecolorStats(NamedTuple):
    per_vertex: tuple[int, ...]
    total: int
    max_per_vertex: int


class EliminationTrace:
    """What the walk recursion of one `recolor_between(..., trace=)` call
    did: `claims` holds, per inner layer-clearing call in the order the
    calls finish, the layer vertices the call cleared, in ascending id. A
    claim is written once its call has made its moves; no move reads the
    trace.
    """

    def __init__(self, claims: list[tuple[int, ...]] | None = None):
        self.claims = [] if claims is None else claims

    def __eq__(self, other):
        return isinstance(other, EliminationTrace) and self.claims == other.claims


class _WalkState:
    """One side of a walk under construction, plus the context that every
    frame of the recursion shares: the graph's `adjacency`, the embedded
    ordering's `order` and `layer_of`, and the `trace` (or None) that logs
    each inner layer-clearing call. `colors` is the current coloring.

    Record i moves `vertices[i]` off color `left[i]`; `walk` reads its new
    color back, and replayed in reverse it restores `left[i]`.

    Records are compacted as they are made, against live records only.
    `last[v]` is v's latest live record (-1 for none) and `prev[i]` the live
    record of the same vertex that record i succeeded (-1 for none). A move
    of v to `color` merges into r = `last[v]` unless some neighbor w has a
    live record q > r with `left[q] == color`; otherwise it appends a record
    and touches no neighbor. The search walks w's chain from `last[w]` down
    `prev` while q > r; the chain holds live records only, because a record
    is cancelled only while it is its vertex's latest. A merge back to
    `left[r]` cancels r (vertex -1, dropped from the walk) and sets
    `last[v] = prev[r]`, so v's earlier record can take its next move; any
    other merge only changes `colors`. In the walk of live records:
    - A merge into r is proper. From r on, a neighbor w holds the colors its
      live records after r left, then its current color: none is `color`,
      the current one because the move is proper now. So v can take `color`
      at r and keep it, and every move of w after r still finds v off its
      new color. A cancel is the same with `color == left[r]`: v keeps
      `left[r]` through r, which drops out.
    - A record's new color is still the color its vertex's next live record
      left, or the vertex's current color: a merge changes only the latest
      record's new color, and a cancel puts v back on `left[r]`, the new
      color of `prev[r]`.
    - A merge or cancel adds no record, so a vertex's emitted count is at
      most the construction's move count and `walk_bound` still holds.
    """

    __slots__ = ("adjacency", "layer_of", "order", "trace", "colors",
                 "vertices", "left", "prev", "last")

    def __init__(self, g: Graph, ord_: EmbeddedOrdering, start: Coloring,
                 trace: EliminationTrace | None):
        self.adjacency = g.adjacency
        self.layer_of = ord_.layer_of
        self.order = ord_.order
        self.trace = trace
        self.colors = list(start.colors)
        self.vertices: list[int] = []
        self.left: list[int] = []
        self.prev: list[int] = []
        self.last = [-1] * g.n

    def recolor(self, v: int, color: int) -> None:
        last = self.last
        r = last[v]
        if r >= 0:
            left, prev = self.left, self.prev
            for w in self.adjacency[v]:
                q = last[w]
                while q > r and left[q] != color:
                    q = prev[q]
                if q > r:
                    break
            else:
                if color == left[r]:
                    self.vertices[r] = -1
                    last[v] = prev[r]
                self.colors[v] = color
                return
        last[v] = len(self.vertices)
        self.vertices.append(v)
        self.left.append(self.colors[v])
        self.prev.append(r)
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
    # mask of `_between` and the rest `_clear_layer` recurses on. Each move
    # is recorded by `_WalkState.recolor`, the one place records are made.
    rest = []
    colors = state.colors
    adjacency = state.adjacency
    recolor = state.recolor
    for v in reversed(mask):
        if colors[v] == target:
            continue
        for w in adjacency[v]:
            if colors[w] == target:
                rest.append(v)
                break
        else:
            recolor(v, target)
    rest.reverse()
    return rest


def _eliminate(state: _WalkState, target: int, palette: frozenset[int],
               mask: Sequence[int]) -> None:
    """Purge `target` from the masked vertices.

    One round per layer that holds `target` on the mask, lowest first. A
    round recolors only masked vertices of its own layer and earlier ones,
    so the layers above it still hold `target` exactly where they did on
    entry. Callers cut the mask to the layers they may touch.

    The mask must be in embedded order: layers never decrease along it. One
    pass on entry takes the masked vertices on `target`, in mask order, and
    groups them by layer, lowest first: each group is its round's vertices.
    They are still on `target` when the round starts, and no other vertex
    of the layer is, because the rounds below h recolor only layers up to
    their own and leave layer h as it was on entry. A clearing call gets
    the round's layer h, not a cut of the mask, and finds the part of the
    earlier layers it recolors itself (`_reach`), so a round pays for the
    earlier layers only when it makes one. A round whose vertices all move
    early costs one pass over its group.

    Early move: each replacement pass opens with a pass over the vertices
    the one before it kept (the group, for the first), skipping those an
    earlier pass's clearing call moved off `target`. It moves each to the
    smallest other palette color that no neighbor holds and keeps, in
    order, the ones with no such color. Only those go on to the pass's w_a
    test and `_clear_layer`, which so finds `a` held next to each of them.
    That is one admissible choice of the paper's replacement color, which
    need only be free of later-layer neighbors.
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

    The layer depth is the most later-layer neighbors a masked vertex has
    among those that could hold a palette color during the call: masked
    ones, and unmasked ones on a palette color. No move reads it, so the
    call does not compute it. A palette of depth + 2 colors always
    suffices: `recolor_between` and `reduce_palette` start with k >= s+2
    colors against a depth of at most s, and each nested call gets one
    color fewer for a strictly smaller later-layer degree (the paper's
    depth lemma). Criterion 5 checks the lemma at every elimination and
    clearing call through the test recorder
    `families.record_clearing_calls`.
    """
    if not mask:
        return
    layer_of = state.layer_of
    colors = state.colors
    adjacency = state.adjacency
    replacements = sorted(palette - {target})
    for h, w in groupby([v for v in mask if colors[v] == target], layer_of.__getitem__):
        for a in replacements:
            # A groupby group can be read once: this pass reads it, and
            # every later pass reads the list of vertices this one kept.
            moving, w = w, []
            for v in moving:  # the early move
                if colors[v] == target:
                    held = {colors[x] for x in adjacency[v]}
                    for b in replacements:
                        if b not in held:
                            state.recolor(v, b)
                            break
                    else:
                        w.append(v)
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
            _clear_layer(state, target, a, h, w_a, palette)


def _reach(state: _WalkState, h: int, w_a: list[int],
           palette: frozenset[int]) -> list[int]:
    # u': the vertices below layer h on a palette color joined to some w_a
    # vertex by a path of such vertices, in embedded order (ids ascending,
    # then stably by layer). By the mask invariant these are the masked
    # vertices of the earlier layers that `_clear_layer` recolors.
    adjacency, layer_of, colors = state.adjacency, state.layer_of, state.colors
    reached = set()
    stack = list(w_a)
    while stack:
        for x in adjacency[stack.pop()]:
            if layer_of[x] < h and x not in reached and colors[x] in palette:
                reached.add(x)
                stack.append(x)
    return sorted(sorted(reached), key=layer_of.__getitem__)


def _clear_layer(state: _WalkState, target: int, a: int, h: int,
                 w_a: list[int], palette: frozenset[int]) -> None:
    """Move the w_a vertices, all of layer h, from `target` to `a`,
    recoloring only w_a and u', the vertices below layer h on a palette
    color joined to some w_a vertex by a path of such vertices.

    Find u' (`_reach`, in embedded order), promote u' toward `target`
    (freeing `a`-space below), recursively purge `a` from the unpromoted
    rest, recolor w_a directly, then repeat the first two phases with `a`
    and `target` interchanged so u' ends target-free again. `w_a` is sorted.
    Layer vertices with a palette color that no neighbor holds moved early
    in `_eliminate` and never reach this call, so some neighbor of each w_a
    vertex holds `a` on entry.

    Let u be the masked vertices of the enclosing elimination below layer
    h. By the mask invariant (module docstring), u' is exactly the part of u
    joined to w_a by a path inside u: masked vertices hold palette colors,
    and an unmasked one below h on a palette color has no masked neighbor.
    The nested eliminations keep the invariant: their masks lie in u', the
    rest of u' holds `target` or `a`, which their palettes lack, and the rest
    of u has no neighbor in u'.

    This is the paper's promote-and-purge step run on the components of
    G[u] that touch w_a only; the rest of u is left as it is:
    - No new blocking. u minus u' shares no edge with u' | w_a, so it can
      neither block a move inside the call nor be blocked by one.
    - u stays target-free. u minus u' was target-free on entry and is not
      touched.
    - Every neighbor of w_a in u is still promoted or purged of `a`: it
      lies in u'.
    - The depth lemma and `walk_bound(s, t)` still hold: both count only
      subsets of what they counted over all of u.
    """
    u = _reach(state, h, w_a, palette)
    inner = _promote(state, u, target)
    _eliminate(state, a, palette - {target}, inner)
    for v in w_a:
        state.recolor(v, a)
    rest = _promote(state, u, a)
    _eliminate(state, target, palette - {a}, rest)
    if state.trace is not None:
        state.trace.claims.append(tuple(w_a))


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
    check_palette(target_size, p.s)
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
    `_WalkState`). The beta side's records are then replayed reversed, each
    restoring the color it left, into the alpha side, whose merge rule also
    merges moves across the seam. Each replayed move is proper, as the beta
    side's walk reversed runs from the common coloring to beta, so the
    alpha side records it under the same rule and proof as its own moves.
    So the emitted walk is not the construction's moves verbatim: a
    vertex's consecutive moves become one step, or none when they return it
    to its earlier color, unless a neighbor held the later move's new color
    between them. Equal endpoints give the empty walk.
    """
    _checked_inputs(g, p, {"alpha": alpha, "beta": beta}, k)
    check_palette(k, p.s)
    if alpha.colors == beta.colors:
        return RecoloringSequence(alpha, (), ())
    ord_ = embedded_ordering(p)
    a_state = _WalkState(g, ord_, alpha, trace)
    b_state = _WalkState(g, ord_, beta, trace)
    _reduce(a_state, p.s + 2)
    _reduce(b_state, p.s + 2)
    _between(a_state, b_state, ord_.order, frozenset(range(1, p.s + 3)))
    for v, c in zip(reversed(b_state.vertices), reversed(b_state.left)):
        if v >= 0:
            a_state.recolor(v, c)
    # The beta side is freed once the join has read it: the records kept for
    # compaction would otherwise raise the call's peak.
    del b_state
    return _checked_walk(g, a_state.walk(alpha),
                         lambda colors: colors == beta.colors, "beta")


def recolor_theorem_pipeline(
    g: Graph, d: int, epsilon, alpha: Coloring, beta: Coloring, k: int,
) -> tuple[RecoloringSequence, RecolorStats, DegreePartition]:
    """End-to-end walk construction for graphs of maximum average degree
    at most d - epsilon: build the (d-1)-depth partition, then walk. The
    palette is checked before the partition is built.
    """
    check_palette(k, d - 1)
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
    elim = walk = 1
    for i in range(1, s + 1):
        elim = t * (i + 1) * (2 + 2 * elim) + 1
        walk = 2 * elim + 2 + walk
    return walk

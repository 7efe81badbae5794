"""Graph and coloring primitives: parsing, properness, degeneracy, exact density.

Densities are exact `fractions.Fraction` values throughout; no float ever
enters a comparison. Text formats:

* line grammar, shared by the graph file and the sequence file that `cli`
  reads: a line that is blank, or whose first non-blank character is ``#``,
  is skipped; every other line holds exactly two integers. A ``#`` after a
  line's first field is not a comment.
* graph file: the first line not skipped is ``n m``; then exactly m lines
  ``u v`` with ``0 <= u < v < n``. A duplicate edge is an error, not a
  silent merge.
* coloring file: n whitespace-separated integers in ``{1..k}``, vertex
  order ``0..n-1``.

Inputs are read and checked in bulk, in C loops over the text or over a
graph's flat edge lists: `read_pairs` splits and converts the lines of
both line-grammar files, comments and all, a slice of about 16 KiB at a
time, and `parse_graph` checks the header and every edge at once;
`parse_coloring` converts every color at once and `Coloring` checks their
range with min and max, and `check_coloring` compares the colors at both
ends of every edge. The line-by-line or per-vertex reading runs only once a
bulk check has failed, to name the first bad line or vertex.

networkx, used for the minimum cut in `mad_exact`, is imported only when
exact mad meets a graph with a cycle, not when this module loads: a forest's
exact mad needs no cut.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import eq, lt
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import GraphFormatError, ImproperInput, StateSpaceTooLarge

_BRUTE_LIMIT = 20

# Line-grammar text is read in slices of about this many characters, each
# ending at a line end: large enough that the per-slice C loops dominate,
# small enough that a slice's transient lines and tokens stay small next
# to what is built from them. Compacted walks are short: on an 8,000-step
# walk 64 KiB slices peaked at 106 traced bytes per step and 16 KiB ones at
# 65, with parse times within 5 % of each other.
_SLICE_CHARS = 1 << 14


class Graph(NamedTuple):
    """Simple undirected graph with 0-based vertex ids.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``; ``m`` is
    the edge count, half the sum of the adjacency list lengths. ``us`` and
    ``vs`` hold each edge once as two flat endpoint tuples in input order,
    edge i being ``(us[i], vs[i])`` with ``us[i] < vs[i]``, so a check over
    every edge runs in C loops; `edges` is the ordered view. Two graphs with
    the same adjacency are equal whatever their edge order.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int
    us: tuple[int, ...]
    vs: tuple[int, ...]

    def __eq__(self, other):
        return self[:3] == other[:3] if isinstance(other, Graph) else NotImplemented

    __ne__ = object.__ne__  # tuple's own would compare us and vs

    def __hash__(self):
        return hash(self[:3])

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        seen: set[tuple[int, int]] = set()
        us: list[int] = []
        vs: list[int] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            us.append(key[0])
            vs.append(key[1])
        return _graph(n, us, vs)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield u, v


class _ColoringFields(NamedTuple):
    colors: tuple[int, ...]
    k: int


class Coloring(_ColoringFields):
    """Total color assignment; every entry lies in ``{1..k}``."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...], k: int):
        if k < 1:
            raise ValueError("palette size must be positive")
        # min and max check the range; the loop runs only to name a vertex.
        if colors and not (1 <= min(colors) and max(colors) <= k):
            for v, c in enumerate(colors):
                if not 1 <= c <= k:
                    raise ValueError(f"vertex {v} has color {c} outside 1..{k}")
        return super().__new__(cls, colors, k)


def _graph(n: int, us: list[int], vs: list[int]) -> Graph:
    """The graph on n vertices whose edges, already checked, are
    (us[i], vs[i]) with us[i] < vs[i]."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(map(tuple, map(sorted, adj))), len(us), tuple(us), tuple(vs))


def content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of each line the line grammar reads."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield line_no, fields


def int_pair(fields: list[str], line_no: int, expected: str) -> tuple[int, int]:
    """The line's two integers, else GraphFormatError "expected <expected>"."""
    try:
        # Unpacking fails, as int() does, unless there are exactly two fields.
        a, b = fields
        return int(a), int(b)
    except ValueError:
        raise GraphFormatError(f"expected {expected}", line_no) from None


def read_pairs(text: str) -> tuple[list[int], list[int]] | None:
    """The first and the second integers of the lines the line grammar
    reads, or None when one of those lines does not hold exactly two.

    C loops split, check and convert the lines of one slice of the text at a
    time; naming a bad line is left to the line readers.
    """
    firsts, seconds = [], []
    start = 0
    while start < len(text):
        # A slice ends just after a "\n", which ends a line under every
        # splitlines() separator, so the slices' lines are the text's lines.
        # find() gives -1, so end 0, when no "\n" is left: the rest is one slice.
        end = text.find("\n", start + _SLICE_CHARS) + 1 or len(text)
        piece = text[start:end]
        lines = piece.splitlines()
        if "#" in piece:
            lines = [line for line in lines if not line.lstrip().startswith("#")]
            piece = " ".join(lines)
        if not set(map(len, map(str.split, lines))) <= {0, 2}:
            return None
        # Every line separator is whitespace to split(), so the slice's
        # tokens are its lines' fields in order, two per line.
        try:
            values = list(map(int, piece.split()))
        except ValueError:
            return None
        firsts += values[0::2]
        seconds += values[1::2]
        start = end
    return firsts, seconds


def parse_graph(text: str) -> Graph:
    """Parse the graph text format, reporting the offending line on error.

    `read_pairs` reads the lines in bulk, and C loops check the header and
    all edges at once. Text that fails there goes to `_read_graph_lines`,
    which raises at the first bad line and is the reference the bulk read is
    tested against.
    """
    if (pairs := read_pairs(text)) and pairs[0]:
        us, vs = pairs
        n, m = us.pop(0), vs.pop(0)  # the header is the first pair
        # len(us) == m also rules out m < 0, and m distinct pairs rule out a
        # duplicate edge; u < v and the range of the smallest u and largest v
        # put every end in 0..n-1.
        if (n >= 1 and len(us) == m == len(set(zip(us, vs))) and all(map(lt, us, vs))
                and min(us, default=0) >= 0 and max(vs, default=0) < n):
            return _graph(n, us, vs)
    return _read_graph_lines(text)


def _read_graph_lines(text: str) -> Graph:
    # The graph format read line by line, naming the first bad line.
    lines = content_lines(text)
    header = next(lines, None)
    if header is None:
        raise GraphFormatError("missing header 'n m'")
    line_no, fields = header
    n, m = int_pair(fields, line_no, "header 'n m'")
    if n < 1:
        raise GraphFormatError("vertex count must be at least 1", line_no)
    if m < 0:
        raise GraphFormatError("edge count must be non-negative", line_no)
    # Each edge, in file order, mapped to the line it appeared on.
    first_line: dict[tuple[int, int], int] = {}
    for line_no, fields in lines:
        if len(first_line) == m:
            raise GraphFormatError(f"more than {m} edge lines", line_no)
        u, v = int_pair(fields, line_no, "edge 'u v'")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", line_no)
        if not 0 <= u < v < n:
            raise GraphFormatError(
                f"edge ({u}, {v}) must satisfy 0 <= u < v < {n}", line_no)
        if (u, v) in first_line:
            raise GraphFormatError(
                f"duplicate edge ({u}, {v}), first seen at line {first_line[(u, v)]}",
                line_no)
        first_line[(u, v)] = line_no
    if len(first_line) != m:
        raise GraphFormatError(f"expected {m} edges, found {len(first_line)}")
    return _graph(n, [u for u, _ in first_line], [v for _, v in first_line])


def _clipped(token: str, show: Callable[[str], str] = str) -> str:
    # A token in an error message: `show(token)`, or past 40 characters
    # `show` of its first 40 and its length. int() reads tokens of up to
    # 4,300 digits and refuses longer ones, so either kind of bad color can
    # be that long.
    if len(token) <= 40:
        return show(token)
    return f"{show(token[:40])}... ({len(token)} characters)"


def parse_coloring(text: str, n: int, k: int) -> Coloring:
    """Parse a coloring file for an n-vertex graph against palette {1..k}."""
    fields = text.split()
    if len(fields) != n:
        raise GraphFormatError(f"expected {n} colors, found {len(fields)}")
    try:
        return Coloring(tuple(map(int, fields)), k)
    except ValueError:
        pass  # converted and range-checked in C; name the first bad vertex
    colors = []
    for v, token in enumerate(fields):
        try:
            c = int(token)
        except ValueError:
            raise GraphFormatError(
                f"color for vertex {v} is not an integer: {_clipped(token, repr)}") from None
        if not 1 <= c <= k:
            raise GraphFormatError(
                f"color {_clipped(str(c))} for vertex {v} outside 1..{k}")
        colors.append(c)
    return Coloring(tuple(colors), k)


def serialize_coloring(c: Coloring) -> str:
    return " ".join(map(str, c.colors)) + "\n"


def check_coloring(g: Graph, c: Coloring, name: str, k: int) -> None:
    """Reject a coloring of the wrong length (ValueError), of a declared
    palette other than k (ValueError), or improper, with an edge joining two
    vertices of the same color (ImproperInput); every message names the
    coloring."""
    if len(c.colors) != g.n:
        raise ValueError(f"{name} has {len(c.colors)} entries for {g.n} vertices")
    if c.k != k:
        raise ValueError(f"{name} declares palette {c.k}, expected {k}")
    color_of = c.colors.__getitem__
    if any(map(eq, map(color_of, g.us), map(color_of, g.vs))):
        raise ImproperInput(f"{name} is not a proper coloring")


def degeneracy_ordering(g: Graph) -> tuple[tuple[int, ...], int]:
    """Ordering v_1..v_n where each v_i has at most `degeneracy` earlier neighbors.

    Repeatedly removes a minimum-degree vertex (lowest id on ties), popped
    from a heap of (degree, id) entries: each decrement pushes a smaller
    entry, which pops before the vertex's stale ones, so the first entry of a
    vertex to pop is current and the rest are skipped. The returned ordering
    is the reverse of the removal order, and the degeneracy is the largest
    degree seen at removal time.
    """
    adjacency = g.adjacency
    degree = list(map(len, adjacency))
    alive = [True] * g.n
    heap = sorted((d, v) for v, d in enumerate(degree))
    removal = []
    while heap:
        v = heapq.heappop(heap)[1]
        if alive[v]:
            alive[v] = False
            removal.append(v)
            for w in adjacency[v]:
                if alive[w]:
                    degree[w] -= 1
                    heapq.heappush(heap, (degree[w], w))
    # A removed vertex's degree stays the one it had at removal.
    return tuple(reversed(removal)), max(degree, default=0)


def mad_brute(g: Graph) -> Fraction:
    """Maximum of 2|E(H)|/|V(H)| by exhaustive subset enumeration (n <= 20).

    Independent of the flow-based computation in mad_exact; kept simple on
    purpose so the two can cross-check each other.
    """
    if g.n > _BRUTE_LIMIT:
        raise StateSpaceTooLarge(
            f"n = {g.n} too large for subset enumeration (limit {_BRUTE_LIMIT})")
    bits = [0] * g.n
    for u in range(g.n):
        for v in g.adjacency[u]:
            bits[u] |= 1 << v
    best_e, best_v = 0, 1
    edge_count = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        e = edge_count[rest] + (bits[low] & rest).bit_count()
        edge_count[mask] = e
        v = mask.bit_count()
        if e * best_v > best_e * v:  # e/v > best_e/best_v, cross-multiplied
            best_e, best_v = e, v
    return Fraction(2 * best_e, best_v)


def _densest_cut(g: Graph, guess: Fraction) -> Fraction | None:
    """Edge density of a subgraph denser than `guess`, or None if none is.

    Classic reduction: source feeds every vertex m, every vertex drains
    m + 2*guess - deg(v), edges carry 1 both ways. Capacities are scaled by
    the guess's denominator so the network is all-integer; the minimum cut
    drops below n*m exactly when a denser-than-guess subgraph exists, and
    the cut's source side is such a subgraph.
    """
    import networkx as nx  # here, not at load: only a cut pays for it

    p, q = guess.numerator, guess.denominator
    net = nx.DiGraph()
    for v in range(g.n):
        net.add_edge("s", v, capacity=g.m * q)
        net.add_edge(v, "t", capacity=g.m * q + 2 * p - g.degree(v) * q)
    for u, v in g.edges():
        net.add_edge(u, v, capacity=q)
        net.add_edge(v, u, capacity=q)
    # Default flow kept: edmonds_karp wins at n = 7 but is 7-30x slower at n = 1000-3000.
    cut_value, (source_side, _) = nx.minimum_cut(net, "s", "t")
    if cut_value >= g.n * g.m * q:
        return None
    inside = source_side - {"s"}
    return Fraction(sum(1 for u, v in g.edges() if u in inside and v in inside), len(inside))


def mad_exact(g: Graph) -> Fraction:
    """Exact maximum average degree: a forest's from its largest tree, 2
    when the 2-core is a union of cycles, any other graph's by Dinkelbach
    iteration on the edge density of its 2-core.

    Vertices of degree <= 1 are peeled first, repeatedly, with running
    degrees, in O(n + m); what is left is the 2-core. A densest subgraph
    lies inside it:

    * If the 2-core is empty the graph is a forest. A subforest on v
      vertices has at most v - 1 edges, so its density is at most
      (v - 1)/v, which grows with v and which a whole tree reaches; the
      densest subgraph is the largest tree, and the answer is 2(c - 1)/c
      for its size c. No cut is made.
    * Otherwise the 2-core has density e/v >= 1, since each of its vertices
      has degree >= 2 in it, so a densest subgraph H has density >= 1.
      Removing a vertex of degree <= 1 from a subgraph on v vertices with
      e >= v edges leaves density at least (e - 1)/(v - 1), which is >= e/v
      exactly when e >= v. Peeling H in the graph's own order, each peeled
      vertex of H has degree <= 1 in what is left of H, so the density
      never falls and H's part in the 2-core is a densest subgraph too.
    * If the 2-core has as many edges as vertices, every core vertex has
      degree exactly 2 in it (each has degree >= 2, and the degrees sum to
      2e = 2v), so the core is a disjoint union of cycles. Every subgraph of
      a cycle union has e <= v, so no density exceeds the core's own 1, and
      the answer is 2. No cut is made.

    The 2-core is relabeled in ascending vertex order, which keeps u < v on
    every edge. The iteration starts at its density and moves to the
    density of the denser subgraph the minimum cut exposes until there is
    none. Each move raises the density strictly through the finitely many
    values e/v with v <= n, so it stops at the maximum edge density, half
    the answer.
    """
    adjacency = g.adjacency
    degree = list(map(len, adjacency))
    # size[v]: v and the vertices peeled into it; in a forest the largest
    # is the size of its largest tree.
    size = [1] * g.n
    peeled = [False] * g.n
    # A vertex is pushed once: at the start, or when its degree falls to 1.
    stack = [v for v, d in enumerate(degree) if d <= 1]
    while stack:
        v = stack.pop()
        peeled[v] = True
        if degree[v]:  # one neighbor left, the one v hangs from
            w = next(w for w in adjacency[v] if not peeled[w])
            size[w] += size[v]
            degree[w] -= 1
            if degree[w] == 1:
                stack.append(w)
    if all(peeled):
        c = max(size)
        return Fraction(2 * (c - 1), c)
    index = {v: i for i, v in enumerate(v for v in range(g.n) if not peeled[v])}
    kept = [(index[u], index[v]) for u, v in zip(g.us, g.vs) if u in index and v in index]
    if len(kept) == len(index):
        return Fraction(2)
    core = _graph(len(index), [u for u, _ in kept], [v for _, v in kept])
    density = Fraction(core.m, core.n)
    while (denser := _densest_cut(core, density)) is not None:
        density = denser
    return 2 * density

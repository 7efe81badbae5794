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

Inputs are read and checked in bulk, in C loops over the whole text or
over a graph's flat edge lists: `parse_graph` splits, converts and checks
every line at once, `parse_coloring` converts every color at once and
`Coloring` checks their range with min and max, and `check_coloring`
compares the colors at both ends of every edge. The line-by-line or
per-vertex reading runs only once a bulk check has failed, to name the
first bad line or vertex.

networkx, used for the minimum cut in `mad_exact`, is imported only when
exact mad runs, not when this module loads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from operator import eq, lt
from typing import Iterable, Iterator

from .errors import GraphFormatError, ImproperInput, StateSpaceTooLarge

_BRUTE_LIMIT = 20


@dataclass(frozen=True)
class Graph:
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
    us: tuple[int, ...] = field(compare=False, repr=False)
    vs: tuple[int, ...] = field(compare=False, repr=False)

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


@dataclass(frozen=True)
class Coloring:
    """Total color assignment; every entry lies in ``{1..k}``."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("palette size must be positive")
        # min and max check the range; the loop runs only to name a vertex.
        if self.colors and not (1 <= min(self.colors) and max(self.colors) <= self.k):
            for v, c in enumerate(self.colors):
                if not 1 <= c <= self.k:
                    raise ValueError(f"vertex {v} has color {c} outside 1..{self.k}")


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


def parse_graph(text: str) -> Graph:
    """Parse the graph text format, reporting the offending line on error.

    Text without ``#`` is read in bulk: C loops split every line, convert
    every field and check the header and all edges at once. Text that fails
    there, or holds a ``#``, goes to `_read_graph_lines`, which raises at the
    first bad line and is the reference the bulk read is tested against.
    """
    if "#" not in text and set(map(len, map(str.split, text.splitlines()))) <= {0, 2}:
        # Every line separator is whitespace to split(), so the fields are
        # the lines' fields in order: the header, then two per edge.
        try:
            n, m, *values = map(int, text.split())
        except ValueError:  # no header, or a field that is not an integer
            pass
        else:
            us, vs = values[0::2], values[1::2]
            # len(us) == m also rules out m < 0; u < v and the range of the
            # smallest u and largest v put every end in 0..n-1.
            if (n >= 1 and len(us) == m and all(map(lt, us, vs))
                    and min(us, default=0) >= 0 and max(vs, default=0) < n
                    and len(set(zip(us, vs))) == m):
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
                f"color for vertex {v} is not an integer: {token!r}") from None
        if not 1 <= c <= k:
            raise GraphFormatError(f"color {c} for vertex {v} outside 1..{k}")
        colors.append(c)
    return Coloring(tuple(colors), k)


def serialize_coloring(c: Coloring) -> str:
    return " ".join(str(x) for x in c.colors) + "\n"


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
    degree = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    heap = sorted((d, v) for v, d in enumerate(degree))
    removal = []
    while heap:
        v = heapq.heappop(heap)[1]
        if alive[v]:
            alive[v] = False
            removal.append(v)
            for w in g.adjacency[v]:
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
    import networkx as nx  # here, not at load: only exact mad pays for it

    p, q = guess.numerator, guess.denominator
    net = nx.DiGraph()
    for v in range(g.n):
        net.add_edge("s", v, capacity=g.m * q)
        net.add_edge(v, "t", capacity=g.m * q + 2 * p - g.degree(v) * q)
    for u, v in g.edges():
        net.add_edge(u, v, capacity=q)
        net.add_edge(v, u, capacity=q)
    cut_value, (source_side, _) = nx.minimum_cut(net, "s", "t")
    if cut_value >= g.n * g.m * q:
        return None
    inside = source_side - {"s"}
    return Fraction(sum(1 for u, v in g.edges() if u in inside and v in inside), len(inside))


def mad_exact(g: Graph) -> Fraction:
    """Exact maximum average degree by Dinkelbach iteration on edge density.

    Starts at the whole graph's density m/n and moves to the density of the
    denser subgraph the minimum cut exposes until there is none. Each move
    raises the density strictly through the finitely many values e/v with
    v <= n, so it stops at the maximum edge density, half the answer.
    """
    if g.m == 0:
        return Fraction(0)
    density = Fraction(g.m, g.n)
    while (denser := _densest_cut(g, density)) is not None:
        density = denser
    return 2 * density

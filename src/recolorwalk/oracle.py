"""Exhaustive ground truth over the space of proper colorings.

States are encoded in base k with vertex 0 least significant; searches
generate neighbors in ascending vertex order, then ascending color order, so
every answer is deterministic. Both searches go level by level through one
shared expansion that marks states in a byte per state. The distance search
runs from both ends, one full level of the smaller frontier at a time, and
stops at the first state the other end has marked: while the two sides'
balls are disjoint the distance exceeds the sum of their radii, so marks
alone give the exact answer. The diameter runs a one-sided search from every
coloring. Everything here is desk-scale machinery guarded by a cap (default
10^7) on k^n, charged for the work each search may scan: k^n x n (states x
vertices) for the distance, colorings x k^n x n for the diameter.
"""

from __future__ import annotations

from typing import Iterator

from .errors import StateSpaceTooLarge
from .graphs import Coloring, Graph, check_coloring

DEFAULT_STATE_CAP = 10 ** 7


def _checked_total(g: Graph, k: int, cap: int) -> int:
    # k^n, or StateSpaceTooLarge when k^n exceeds the cap.
    if k < 1:
        raise ValueError("k must be positive")
    # For k >= 2, k^(bits of the cap + 1) already exceeds the cap: stop there.
    total = k ** min(g.n, cap.bit_length() + 1)
    if total > cap:
        raise StateSpaceTooLarge(f"k^n = {k}^{g.n} exceeds the state cap {cap}")
    return total


def _encode(colors, k: int) -> int:
    code = 0
    for c in reversed(colors):
        code = code * k + (c - 1)
    return code


def _decode(code: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        code, digit = divmod(code, k)
        out.append(digit + 1)
    return tuple(out)


def count_proper_colorings(g: Graph, k: int, cap: int = DEFAULT_STATE_CAP) -> int:
    """Number of proper k-colorings, by backtracking over vertices 0..n-1."""
    _checked_total(g, k, cap)
    return sum(1 for _ in _proper_codes(g, k))


def _proper_codes(g: Graph, k: int) -> Iterator[int]:
    # Codes of the proper k-colorings, by backtracking over vertices 0..n-1
    # in ascending color order. A stack of (vertex, code so far, next color
    # to try) stands in for recursion, so n is not capped by its limit.
    earlier = [[w for w in g.adjacency[v] if w < v] for v in range(g.n)]
    powers = [k ** v for v in range(g.n)]
    colors = [0] * g.n
    stack = [(0, 0, 1)]
    while stack:
        v, code, c = stack.pop()
        if v == g.n:
            yield code
            continue
        while c <= k and any(colors[w] == c for w in earlier[v]):
            c += 1
        if c <= k:
            colors[v] = c
            stack.append((v, code, c + 1))
            stack.append((v + 1, code + (c - 1) * powers[v], 1))


def _expand(g: Graph, k: int, frontier: list[int], marks: bytearray,
            side: int) -> list[int] | None:
    """One BFS level: mark every unmarked neighbor of the `frontier` states
    with `side` and return them, or None at the first neighbor another side
    has marked."""
    n = g.n
    powers = [k ** v for v in range(n)]
    adjacency = g.adjacency
    palette = range(1, k + 1)
    next_frontier: list[int] = []
    for code in frontier:
        colors = _decode(code, n, k)
        for v in range(n):
            current = colors[v]
            # The colors v cannot take: its own and its neighbors'.
            blocked = {colors[w] for w in adjacency[v]}
            blocked.add(current)
            for c in palette:
                if c in blocked:
                    continue
                neighbor = code + (c - current) * powers[v]
                mark = marks[neighbor]
                if not mark:
                    marks[neighbor] = side
                    next_frontier.append(neighbor)
                elif mark != side:
                    return None
    return next_frontier


def _bfs_levels(g: Graph, k: int, start: int, total: int) -> tuple[int, int]:
    """Level-by-level BFS from `start`: (states reached, eccentricity)."""
    marks = bytearray(total)
    marks[start] = 1
    frontier = [start]
    reached = 1
    eccentricity = 0
    while frontier := _expand(g, k, frontier, marks, 1):
        reached += len(frontier)
        eccentricity += 1
    return reached, eccentricity


def bfs_distance(g: Graph, k: int, alpha: Coloring, beta: Coloring,
                 cap: int = DEFAULT_STATE_CAP) -> int | None:
    """Exact shortest walk length between two proper colorings, or None
    when they lie in different components.

    The search runs from both ends. One byte per state marks alpha's side 1
    and beta's side 2; each round expands the smaller frontier (alpha's on a
    tie) by one full level, and the answer is the number of levels expanded
    once a level reaches a state the other side has marked. Marks alone are
    enough: while no state is marked by both sides, the distance exceeds
    d_alpha + d_beta, so the first meeting is at d_alpha + d_beta + 1. An
    empty frontier means the other end is unreachable.

    The search may scan every vertex of every state, so the cap bounds
    k^n x n: StateSpaceTooLarge when that product exceeds it.
    """
    total = _checked_total(g, k, cap)
    if total * g.n > cap:
        raise StateSpaceTooLarge(f"k^n x n = {k}^{g.n} x {g.n} states x vertices "
                                 f"exceed the state cap {cap}")
    check_coloring(g, alpha, "alpha", k)
    check_coloring(g, beta, "beta", k)
    start = _encode(alpha.colors, k)
    goal = _encode(beta.colors, k)
    if start == goal:
        return 0
    marks = bytearray(total)
    marks[start] = 1
    marks[goal] = 2
    frontiers = {1: [start], 2: [goal]}
    levels = 0
    while True:
        side = 1 if len(frontiers[1]) <= len(frontiers[2]) else 2
        frontier = _expand(g, k, frontiers[side], marks, side)
        levels += 1
        if frontier is None:
            return levels
        if not frontier:
            return None
        frontiers[side] = frontier


def exact_diameter(g: Graph, k: int, cap: int = DEFAULT_STATE_CAP) -> int | None:
    """Largest pairwise distance among proper colorings, or None when the
    walk space is disconnected (including the vacuous no-colorings case).

    Runs one BFS per proper coloring, each scanning every vertex of the k^n
    states, so the cap bounds colorings x k^n x n: StateSpaceTooLarge as soon
    as the colorings listed so far times k^n x n exceed it. Meant for tiny
    instances only.
    """
    total = _checked_total(g, k, cap)
    codes = []
    for code in _proper_codes(g, k):
        codes.append(code)
        if len(codes) * total * g.n > cap:
            raise StateSpaceTooLarge(f"at least {len(codes)} colorings x k^n x n = {k}^{g.n} "
                                     f"x {g.n} states x vertices exceed the state cap {cap}")
    if not codes:
        return None
    best = 0
    for source in codes:
        reached, eccentricity = _bfs_levels(g, k, source, total)
        if reached < len(codes):
            return None
        best = max(best, eccentricity)
    return best

"""Exhaustive ground truth over the space of proper colorings.

States are encoded in base k with vertex 0 least significant; searches
generate neighbors in ascending vertex order, then ascending color order, so
every answer is deterministic. Everything here is desk-scale machinery
guarded by a cap (default 10^7) on k^n, charged for the work each search
scans: k^n x n (states x vertices) for the distance, colorings x k^n x n for
the diameter.
"""

from __future__ import annotations

from typing import Iterator

from .errors import StateSpaceTooLarge
from .graphs import Coloring, Graph, check_coloring

DEFAULT_STATE_CAP = 10 ** 7


def _checked_total(g: Graph, k: int, cap: int | None) -> tuple[int, int]:
    # (k^n, the cap in force), or StateSpaceTooLarge when k^n exceeds the cap.
    if k < 1:
        raise ValueError("k must be positive")
    limit = DEFAULT_STATE_CAP if cap is None else cap
    # For k >= 2, k^(bits of the cap + 1) already exceeds the cap: stop there.
    total = k ** min(g.n, limit.bit_length() + 1)
    if total > limit:
        raise StateSpaceTooLarge(f"k^n = {k}^{g.n} exceeds the state cap {limit}")
    return total, limit


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


def count_proper_colorings(g: Graph, k: int, cap: int | None = None) -> int:
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


def _bfs_levels(g: Graph, k: int, start: int, total: int,
                goal: int | None = None):
    """Level-by-level BFS from `start`. Returns (distance to goal, ...) when
    `goal` is given and reached, else (None, reached count, eccentricity)."""
    powers = [k ** v for v in range(g.n)]
    adjacency = g.adjacency
    palette = range(1, k + 1)
    visited = bytearray(total)
    visited[start] = 1
    frontier = [start]
    reached = 1
    distance = 0
    eccentricity = 0
    while frontier:
        distance += 1
        next_frontier: list[int] = []
        for code in frontier:
            colors = _decode(code, g.n, k)
            for v in range(g.n):
                current = colors[v]
                # The colors v cannot take: its own and its neighbors'.
                blocked = {colors[w] for w in adjacency[v]}
                blocked.add(current)
                for c in palette:
                    if c in blocked:
                        continue
                    neighbor = code + (c - current) * powers[v]
                    if goal is not None and neighbor == goal:
                        return distance, reached, eccentricity
                    if not visited[neighbor]:
                        visited[neighbor] = 1
                        reached += 1
                        next_frontier.append(neighbor)
        if next_frontier:
            eccentricity = distance
        frontier = next_frontier
    return None, reached, eccentricity


def bfs_distance(g: Graph, k: int, alpha: Coloring, beta: Coloring,
                 cap: int | None = None) -> int | None:
    """Exact shortest walk length between two proper colorings, or None
    when they lie in different components.

    The search scans every vertex of every state it reaches, so the cap
    bounds k^n x n: StateSpaceTooLarge when that product exceeds it.
    """
    total, limit = _checked_total(g, k, cap)
    if total * g.n > limit:
        raise StateSpaceTooLarge(f"k^n x n = {k}^{g.n} x {g.n} states x vertices "
                                 f"exceed the state cap {limit}")
    check_coloring(g, alpha, "alpha", k)
    check_coloring(g, beta, "beta", k)
    start = _encode(alpha.colors, k)
    goal = _encode(beta.colors, k)
    if start == goal:
        return 0
    distance, _, _ = _bfs_levels(g, k, start, total, goal=goal)
    return distance


def exact_diameter(g: Graph, k: int, cap: int | None = None) -> int | None:
    """Largest pairwise distance among proper colorings, or None when the
    walk space is disconnected (including the vacuous no-colorings case).

    Runs one BFS per proper coloring, each scanning every vertex of the k^n
    states, so the cap bounds colorings x k^n x n: StateSpaceTooLarge as soon
    as the colorings listed so far times k^n x n exceed it. Meant for tiny
    instances only.
    """
    total, limit = _checked_total(g, k, cap)
    codes = []
    for code in _proper_codes(g, k):
        codes.append(code)
        if len(codes) * total * g.n > limit:
            raise StateSpaceTooLarge(f"at least {len(codes)} colorings x k^n x n = {k}^{g.n} "
                                     f"x {g.n} states x vertices exceed the state cap {limit}")
    if not codes:
        return None
    best = 0
    for source in codes:
        _, reached, eccentricity = _bfs_levels(g, k, source, total)
        if reached < len(codes):
            return None
        best = max(best, eccentricity)
    return best

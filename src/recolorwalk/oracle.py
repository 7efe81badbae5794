"""Exhaustive ground truth over the space of proper colorings.

States are encoded in base k with vertex 0 least significant; searches
generate neighbors in ascending vertex order, then ascending color order, so
every answer is deterministic. Everything here is desk-scale machinery
guarded by a cap (default 10^7) on k^n, times the colorings for the diameter.
"""

from __future__ import annotations

from typing import Iterator

from .errors import StateSpaceTooLarge
from .graphs import Coloring, Graph, check_coloring

DEFAULT_STATE_CAP = 10 ** 7

_ENUMERATION_LIMIT = 20


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


def encode_coloring(colors, k: int) -> int:
    code = 0
    for c in reversed(colors):
        code = code * k + (c - 1)
    return code


def decode_coloring(code: int, n: int, k: int) -> tuple[int, ...]:
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
            colors = decode_coloring(code, g.n, k)
            for v in range(g.n):
                current = colors[v]
                for c in range(1, k + 1):
                    if c == current:
                        continue
                    if any(colors[w] == c for w in g.adjacency[v]):
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
    when they lie in different components."""
    total, _ = _checked_total(g, k, cap)
    check_coloring(g, alpha, "alpha", k)
    check_coloring(g, beta, "beta", k)
    start = encode_coloring(alpha.colors, k)
    goal = encode_coloring(beta.colors, k)
    if start == goal:
        return 0
    distance, _, _ = _bfs_levels(g, k, start, total, goal=goal)
    return distance


def exact_diameter(g: Graph, k: int, cap: int | None = None) -> int | None:
    """Largest pairwise distance among proper colorings, or None when the
    walk space is disconnected (including the vacuous no-colorings case).

    Runs one BFS over the k^n states per proper coloring, so the cap bounds
    colorings x k^n: StateSpaceTooLarge as soon as the colorings listed so
    far times k^n exceed it. Meant for tiny instances only.
    """
    total, limit = _checked_total(g, k, cap)
    codes = []
    for code in _proper_codes(g, k):
        codes.append(code)
        if len(codes) * total > limit:
            raise StateSpaceTooLarge(f"at least {len(codes)} colorings x k^n = {k}^{g.n} "
                                     f"states exceed the state cap {limit}")
    if not codes:
        return None
    best = 0
    for source in codes:
        _, reached, eccentricity = _bfs_levels(g, k, source, total)
        if reached < len(codes):
            return None
        best = max(best, eccentricity)
    return best


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

"""Exhaustive ground truth over the space of proper colorings.

States are encoded in base k with vertex 0 least significant, and every
search is deterministic. The distance runs two A* searches, one from each
end, ordered by moves made plus vertices off the goal coloring (see
`bfs_distance`); between near colorings they expand little more than the
states of one shortest walk. The diameter runs a level-by-level search from
every coloring, generating neighbors in ascending vertex, then color, order.
Both mark states in a byte per state. Everything here is desk-scale
machinery guarded by a cap (default 10^7) on k^n, charged for the work each
search may scan: k^n x n (states x vertices) for the distance, colorings x
k^n x n for the diameter.
"""

from __future__ import annotations

from array import array
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


def _bfs_levels(g: Graph, k: int, start: int, total: int) -> tuple[int, int]:
    """Level-by-level BFS from `start`: (states reached, eccentricity). Each
    level marks every unmarked neighbor of the one before and is the next
    frontier."""
    n = g.n
    powers = [k ** v for v in range(n)]
    adjacency = g.adjacency
    palette = range(1, k + 1)
    marks = bytearray(total)
    marks[start] = 1
    frontier = [start]
    reached = 0
    eccentricity = -1
    while frontier:
        reached += len(frontier)
        eccentricity += 1
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
                    if not marks[neighbor]:
                        marks[neighbor] = 1
                        next_frontier.append(neighbor)
        frontier = next_frontier
    return reached, eccentricity


def bfs_distance(g: Graph, k: int, alpha: Coloring, beta: Coloring,
                 cap: int = DEFAULT_STATE_CAP) -> int | None:
    """Exact shortest walk length between two proper colorings, or None
    when they lie in different components.

    Two A* searches run, alpha to beta and beta to alpha. Each orders its
    states by f = moves made + vertices off that search's goal coloring. A
    move recolors one vertex, so the estimate is a lower bound that changes
    by at most 1 per move: a move onto the vertex's goal color keeps f, a
    move between two other colors adds 1, and a move off the goal color adds
    2. So each search keeps three open arrays, for f, f + 1 and f + 2, needs
    no heap, and expands in nondecreasing f; a state's distance from the
    search's start is final when it is expanded, and it is never expanded
    again.

    The answer is f when the goal is generated. Only a move that keeps f,
    from a state one vertex off the goal, generates it, so a walk of length
    f exists. None is shorter: until then the first unexpanded state of a
    shortest walk is open with f at most that walk's length, and no open f
    is below the current one. A vertex's move onto its goal color is tried
    before its other moves, so one vertex on a large palette is answered
    without a scan of the palette.

    One byte per state marks what each search has expanded, one bit per
    search, and the open arrays hold codes rather than int objects. The
    search with fewer open entries expands the next state (alpha's on a
    tie), so an unreachable pair costs about its smaller component: a search
    whose arrays run dry has exhausted its component, and the answer is None.

    A search may scan every vertex of every state, so the cap bounds
    k^n x n: StateSpaceTooLarge when that product exceeds it.
    """
    total = _checked_total(g, k, cap)
    n = g.n
    if total * n > cap:
        raise StateSpaceTooLarge(f"k^n x n = {k}^{n} x {n} states x vertices "
                                 f"exceed the state cap {cap}")
    check_coloring(g, alpha, "alpha", k)
    check_coloring(g, beta, "beta", k)
    start = _encode(alpha.colors, k)
    goal = _encode(beta.colors, k)
    if start == goal:
        return 0
    powers = [k ** v for v in range(n)]
    adjacency = g.adjacency
    palette = range(1, k + 1)
    marks = bytearray(total)
    f = sum(a != b for a, b in zip(alpha.colors, beta.colors))
    # Per search: its bit, goal colors, goal code, f, open arrays for f, f + 1, f + 2.
    searches = [[1, beta.colors, goal, f, array("q", [start]), array("q"), array("q")],
                [2, alpha.colors, start, f, array("q", [goal]), array("q"), array("q")]]
    while True:
        search = min(searches, key=lambda s: len(s[4]) + len(s[5]) + len(s[6]))
        bit, want, target, f, now, later, latest = search
        # Drop the entries of states this search has expanded since.
        while now and marks[now[-1]] & bit:
            now.pop()
        if not now:
            if not later and not latest:
                return None
            search[3:] = f + 1, later, latest, array("q")
            continue
        code = now.pop()
        marks[code] |= bit
        colors = _decode(code, n, k)
        for v in range(n):
            current, goal_color = colors[v], want[v]
            # The colors v cannot take: its own and its neighbors'.
            taken = {colors[w] for w in adjacency[v]}
            taken.add(current)
            # A move onto the goal color keeps f and comes first; the rest
            # add 1, or 2 when they leave the goal color.
            if goal_color not in taken:
                neighbor = code + (goal_color - current) * powers[v]
                if neighbor == target:
                    return f
                if not marks[neighbor] & bit:
                    now.append(neighbor)
                taken.add(goal_color)
            append = (later if current != goal_color else latest).append
            for c in palette:
                if c not in taken:
                    neighbor = code + (c - current) * powers[v]
                    if not marks[neighbor] & bit:
                        append(neighbor)


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

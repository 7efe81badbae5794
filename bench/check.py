"""Independent check of the program's outputs.

Replays every emitted sequence with its own parser and replay loop, not the
program's `verify_sequence`, and compares the result with the target
coloring and with the program's `--stats` file. The walk bound is the
documented recurrence, restated here so the check does not move when the
program's copy does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


def elim_bound(s: int, t: int) -> int:
    if s <= 0:
        return 1
    return t * (s + 1) * (2 + 2 * elim_bound(s - 1, t)) + 1


def walk_bound(s: int, t: int) -> int:
    if s <= 0:
        return 1
    return 2 * elim_bound(s, t) + 2 + walk_bound(s - 1, t)


def read_graph(path: str) -> list[list[int]]:
    lines = Path(path).read_text().split("\n")
    n, m = map(int, lines[0].split())
    adj: list[list[int]] = [[] for _ in range(n)]
    for line in lines[1:m + 1]:
        u, v = map(int, line.split())
        adj[u].append(v)
        adj[v].append(u)
    return adj


def read_colors(path: str) -> list[int]:
    return [int(x) for x in Path(path).read_text().split()]


@dataclass
class Checked:
    """Outcome of checking one instance; `problem` is None when it passed."""

    problem: str | None
    steps: int = 0
    max_per_vertex: int = 0
    bound_ratio: float = 0.0


def replay(adj: list[list[int]], start: list[int], text: str, k: int) -> tuple[list[int], list[int]]:
    """Apply `vertex color` lines to `start`; return final colors and
    per-vertex recoloring counts. Raises ValueError at the first bad step."""
    colors = list(start)
    counts = [0] * len(adj)
    for i, line in enumerate(text.splitlines()):
        v, c = map(int, line.split())
        if not 0 <= v < len(adj) or not 1 <= c <= k:
            raise ValueError(f"step {i}: ({v}, {c}) out of range")
        if colors[v] == c:
            raise ValueError(f"step {i}: vertex {v} already has color {c}")
        if any(colors[w] == c for w in adj[v]):
            raise ValueError(f"step {i}: a neighbor of vertex {v} has color {c}")
        colors[v] = c
        counts[v] += 1
    return colors, counts


def check_instance(inst: dict, k: int, seq_path: str, stats_path: str,
                   oracle_distance: int | None = None) -> Checked:
    """Replay one emitted walk and check it against the target and stats.

    With `oracle_distance`, the walk must also be at least that long.
    """
    try:
        adj = read_graph(inst["graph"])
        final, counts = replay(adj, read_colors(inst["from"]),
                               Path(seq_path).read_text(), k)
        stats = json.loads(Path(stats_path).read_text())
    except (OSError, ValueError) as exc:
        return Checked(f"unreadable or invalid output: {exc}")
    steps = sum(counts)
    top = max(counts, default=0)
    if final != read_colors(inst["to"]):
        return Checked("final coloring differs from the target", steps)
    if stats.get("per_vertex") != counts or stats.get("total") != steps \
            or stats.get("max_per_vertex") != top:
        return Checked("--stats disagrees with the replay", steps)
    s, t = stats.get("s"), stats.get("t")
    if not (isinstance(s, int) and isinstance(t, int) and s >= 0 and 1 <= t <= len(adj)):
        return Checked(f"--stats reports an impossible partition s={s} t={t}", steps)
    bound = walk_bound(s, t)
    if top > bound:
        return Checked(f"max_per_vertex {top} exceeds walk_bound({s}, {t}) = {bound}", steps)
    if oracle_distance is not None and steps < oracle_distance:
        return Checked(f"walk of {steps} steps is shorter than the exact distance "
                       f"{oracle_distance}", steps)
    return Checked(None, steps, top, top / bound)

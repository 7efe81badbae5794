"""Degree-layer partitions of a graph.

A partition with parameter s lists disjoint non-empty layers V_1..V_t
covering every vertex, where each V_i is an independent set and each of its
members has degree at most s in the graph left after removing V_1..V_{i-1}.
Two constructions are provided: greedy low-degree peeling for graphs of
bounded maximum average degree (layer count logarithmic in n), and singleton
layers in degeneracy-removal order for everything else (layer count n).

Layer indices are 0-based in code. Serialized form: a line ``s t`` followed
by one line of ascending vertex ids per layer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import filterfalse
from typing import NamedTuple

from .errors import SizeGuaranteeViolated
from .graphs import Graph, degeneracy_ordering


class _SpecialISFields(NamedTuple):
    d: int
    epsilon: Fraction


class SpecialISParams(_SpecialISFields):
    """Peeling parameters: degree bound d and exact rational slack epsilon.

    Guarantees hold whenever the maximum average degree of the graph being
    peeled is at most d - epsilon; every extracted layer then has size at
    least ceil(epsilon * h / d^2) on an h-vertex residual graph.
    """

    __slots__ = ()

    def __new__(cls, d: int, epsilon: Fraction):
        if d < 1:
            raise ValueError("d must be a positive integer")
        epsilon = Fraction(epsilon)
        if not 0 < epsilon < d:
            raise ValueError("epsilon must satisfy 0 < epsilon < d")
        return super().__new__(cls, d, epsilon)

    def threshold(self, h: int) -> int:
        """Guaranteed layer size on an h-vertex residual graph."""
        num = self.epsilon.numerator * h
        den = self.epsilon.denominator * self.d * self.d
        return -(-num // den)


class DegreePartition(NamedTuple):
    s: int
    layers: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        return len(self.layers)


class EmbeddedOrdering(NamedTuple):
    """Layer-respecting vertex ordering, stored first layer first.

    Positions never decrease in layer index, and every vertex has at most s
    neighbors in strictly later layers. Same-layer neighbors cannot exist
    because layers are independent sets, so for adjacent vertices a later
    position and a later layer are the same thing, and `layer_of` is all the
    engine compares.
    """

    order: tuple[int, ...]
    layer_of: tuple[int, ...]  # vertex -> 0-based layer index


def build_degree_partition(g: Graph, params: SpecialISParams) -> DegreePartition:
    """Peel greedy low-degree independent sets until the graph is exhausted.

    Each round takes the residual vertices of residual degree <= d-1 greedily
    in ascending id. The result has s = d - 1. A round on h vertices must take
    at least ceil(epsilon*h/d^2), so the layer count never exceeds
    partition_round_bound(n, params); a round short of it raises
    SizeGuaranteeViolated naming the round, the symptom of a failed density
    precondition.

    Residual degrees are kept as running counts: when a layer leaves, each
    of its vertices' neighbors loses one. The residual vertices stay in a
    list in ascending id, which a C-level filter rebuilds once per round, so
    peeling costs O(n + m) plus one pass over the residual list per round.
    """
    adjacency, s = g.adjacency, params.d - 1
    residual_degree = list(map(len, adjacency))
    active = list(range(g.n))
    layers = []
    while active:
        # Each pick blocks at most d - 1 later candidates.
        layer: list[int] = []
        blocked: set[int] = set()
        for v in active:
            if residual_degree[v] <= s and v not in blocked:
                layer.append(v)
                blocked.update(adjacency[v])
        need = params.threshold(len(active))
        if len(layer) < need:
            raise SizeGuaranteeViolated(len(layer), need, len(active), len(layers) + 1)
        layers.append(tuple(layer))
        for v in layer:
            for w in adjacency[v]:
                residual_degree[w] -= 1
        active = list(filterfalse(set(layer).__contains__, active))
    return DegreePartition(s=s, layers=tuple(layers))


def partition_round_bound(n: int, params: SpecialISParams) -> int:
    """Smallest r with n * (1 - epsilon/d^2)^r < 1, computed exactly.

    Explicit form of the peeling recurrence; build_degree_partition never
    needs more rounds than this.
    """
    shrink = 1 - params.epsilon / (params.d * params.d)
    remaining = Fraction(max(n, 0))
    rounds = 0
    while remaining >= 1:
        remaining *= shrink
        rounds += 1
    return rounds


def degree_partition_from_degeneracy(g: Graph) -> DegreePartition:
    """Singleton layers in degeneracy-removal order; s is the degeneracy.

    The vertex removed first (a minimum-degree one) becomes the first
    layer, so each singleton has at most s neighbors in later layers.
    """
    ordering, degeneracy = degeneracy_ordering(g)
    removal = tuple(reversed(ordering))
    return DegreePartition(s=degeneracy, layers=tuple((v,) for v in removal))


def validate_partition(g: Graph, p: DegreePartition) -> str | None:
    """None when the partition is valid, else a message naming the first violation."""
    n, adjacency, s = g.n, g.adjacency, p.s
    seen: dict[int, int] = {}
    for i, layer in enumerate(p.layers):
        if not layer:
            return f"layer {i + 1} is empty"
        for v in layer:
            if not 0 <= v < n:
                return f"layer {i + 1} contains out-of-range vertex {v}"
            if v in seen:
                return f"vertex {v} appears in layers {seen[v] + 1} and {i + 1}"
            seen[v] = i
    for v in range(n):
        if v not in seen:
            return f"vertex {v} uncovered"
    layer_of = [seen[v] for v in range(n)]
    for i, layer in enumerate(p.layers):
        for v in sorted(layer):
            residual_degree = 0
            for w in adjacency[v]:
                if layer_of[w] == i:
                    return (f"layer {i + 1} not independent: vertices "
                            f"{min(v, w)} and {max(v, w)} adjacent")
                if layer_of[w] > i:
                    residual_degree += 1
            if residual_degree > s:
                return (f"vertex {v} has degree {residual_degree} > s={s} "
                        f"in the residual graph at layer {i + 1}")
    return None


def embedded_ordering(p: DegreePartition) -> EmbeddedOrdering:
    """Concatenate layers in order, ascending vertex ids within each layer."""
    order: list[int] = []
    for layer in p.layers:
        order.extend(sorted(layer))
    layer_of = [0] * len(order)
    for i, layer in enumerate(p.layers):
        for v in layer:
            layer_of[v] = i
    return EmbeddedOrdering(tuple(order), tuple(layer_of))


def serialize_partition(p: DegreePartition) -> str:
    lines = [f"{p.s} {p.t}"]
    lines.extend(" ".join(str(v) for v in sorted(layer)) for layer in p.layers)
    return "\n".join(lines) + "\n"

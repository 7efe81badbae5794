"""Seeded inputs for the benchmark workloads.

Everything here is self-contained: it imports nothing from the program or
from its tests, so a change to the program can change neither the inputs
nor the time they take to build. The program only ever sees the files this
module writes.

Run as a script it is one set-up repetition of the benchmark: import the
program (which pulls in networkx), then generate and write one seeded batch
and print a digest of the files written::

    python3 bench/gen.py --workload peel-tree --seed 1 --size full --out DIR

With `--reference` it imports networkx in place of the program: the same
work bar the program's own modules, which the benchmark times beside each
set-up to follow the host's speed.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import random
import sys
from pathlib import Path

# Each workload is a fixed batch of seeded instances. `sizes` maps a size
# name to (instances per batch, vertices per instance); "tiny" is the
# benchmark self-test's size. `flags` are the recolor options the CLI gets.
# `reference_setup_s` is the median time of the full-size reference set-up
# (`--reference`) on the host the benchmark was written on; set-up times are
# reported at that host speed.
WORKLOADS = {
    "peel-tree": {
        "family": "tree",
        "k": 4,
        "colors_per_side": 4,
        "flags": ["-d", "3", "--epsilon", "1/2"],
        "report": False,
        "oracle": False,
        "sizes": {"full": (36, 1000), "tiny": (3, 40)},
        "reference_setup_s": 0.80,
    },
    "degen-wide": {
        "family": "sparse",
        "k": 1500,
        "colors_per_side": 6,
        "flags": ["--degenerate-fallback"],
        "report": False,
        "oracle": False,
        "sizes": {"full": (32, 100), "tiny": (3, 20)},
        "reference_setup_s": 0.44,
    },
    "tiny-certify": {
        "family": "tiny",
        "k": 4,
        "colors_per_side": 3,
        "flags": ["-d", "3", "--epsilon", "1/2"],
        "report": True,
        "oracle": True,
        "sizes": {"full": (300, 7), "tiny": (6, 7)},
        "reference_setup_s": 1.06,
    },
}

SPARSE_AVERAGE_DEGREE = 2.5
SPARSE_DEGENERACY = 2


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree, decoded from a random Pruefer sequence."""
    if n < 2:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_sparse(rng: random.Random, n: int, average_degree: float) -> list[tuple[int, int]]:
    """G(n, m) with m = round(average_degree * n / 2) distinct edges.

    Fixing m (rather than drawing each edge with probability c/n) keeps the
    instances of a batch close in size, which keeps the batch timings steady.
    """
    m = round(average_degree * n / 2)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_tiny(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A tree, a unicyclic graph or a theta graph on n >= 5 vertices, with
    pendant trees hung on the core; the maximum average degree is at most 5/2.

    A theta core on c >= 4 vertices has c + 1 edges and is its own densest
    subgraph (2(c+1)/c <= 5/2); a cycle has density 2 and a tree less.
    """
    family = rng.choice(("tree", "unicyclic", "theta"))
    if family == "tree":
        edges = random_tree(rng, n)
        core = n
    elif family == "unicyclic":
        core = rng.randint(3, n)
        edges = [(i, (i + 1) % core) for i in range(core)]
    else:
        core = rng.randint(4, n)
        # Internal vertex counts of the three hub-to-hub paths; at most one
        # path may be a direct edge, or the graph would not be simple.
        while True:
            cut1, cut2 = sorted(rng.randint(0, core - 2) for _ in range(2))
            sizes = (cut1, cut2 - cut1, core - 2 - cut2)
            if sum(1 for s in sizes if s == 0) <= 1:
                break
        edges = []
        next_id = 2
        for size in sizes:
            chain = [0] + list(range(next_id, next_id + size)) + [1]
            next_id += size
            edges.extend(zip(chain, chain[1:]))
    for v in range(core, n):
        edges.append((rng.randrange(v), v))
    labels = list(range(n))
    rng.shuffle(labels)
    return [(labels[u], labels[v]) for u, v in edges]


def adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def smallest_last(adj: list[list[int]]) -> tuple[list[int], int]:
    """Smallest-last vertex order (bucket queue, O(n + m)) and the degeneracy.

    The order is the reverse of the removal order, so each vertex has at
    most `degeneracy` neighbors before it.
    """
    n = len(adj)
    degree = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(n)]
    for v in range(n - 1, -1, -1):
        buckets[degree[v]].append(v)
    removed = [False] * n
    removal: list[int] = []
    degeneracy = 0
    d = 0
    while len(removal) < n:
        while True:
            while not buckets[d]:
                d += 1
            v = buckets[d].pop()
            # Entries go stale when a vertex's degree drops; skip them.
            if not removed[v] and degree[v] == d:
                break
        removed[v] = True
        removal.append(v)
        degeneracy = max(degeneracy, d)
        for w in adj[v]:
            if not removed[w]:
                degree[w] -= 1
                buckets[degree[w]].append(w)
        d = max(d - 1, 0)
    removal.reverse()
    return removal, degeneracy


def greedy_coloring(rng: random.Random, adj: list[list[int]],
                    palette: list[int]) -> list[int]:
    """Color in smallest-last order, each vertex with a random palette color
    that no earlier neighbor holds; needs len(palette) > degeneracy."""
    order, _ = smallest_last(adj)
    colors = [0] * len(adj)
    for v in order:
        taken = {colors[w] for w in adj[v]}
        colors[v] = rng.choice([c for c in palette if c not in taken])
    return colors


def make_instance(rng: random.Random, spec: dict, n: int) -> tuple[int, list, list, list]:
    family = spec["family"]
    if family == "tree":
        edges = random_tree(rng, n)
    elif family == "sparse":
        while True:
            edges = random_sparse(rng, n, SPARSE_AVERAGE_DEGREE)
            if smallest_last(adjacency(n, edges))[1] == SPARSE_DEGENERACY:
                break
    else:
        n = rng.randint(5, n)
        edges = random_tiny(rng, n)
    adj = adjacency(n, edges)
    k = spec["k"]
    sides = []
    for _ in range(2):
        palette = sorted(rng.sample(range(1, k + 1), spec["colors_per_side"]))
        sides.append(greedy_coloring(rng, adj, palette))
    return n, sorted((min(u, v), max(u, v)) for u, v in edges), sides[0], sides[1]


def write_batch(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write one seeded batch under `out` and return its manifest.

    The manifest lists every instance's files; `digest` covers all of them,
    so two set-ups of one seed can be compared.
    """
    spec = WORKLOADS[workload]
    count, n = spec["sizes"][size]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    instances = []
    for i in range(count):
        n_i, edges, alpha, beta = make_instance(rng, spec, n)
        files = {
            "graph": f"{n_i} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges),
            "from": " ".join(map(str, alpha)) + "\n",
            "to": " ".join(map(str, beta)) + "\n",
        }
        entry = {"n": n_i}
        for role, text in files.items():
            path = out / f"{i:04d}.{role}.txt"
            path.write_text(text)
            digest.update(text.encode())
            entry[role] = str(path)
        instances.append(entry)
    manifest = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "k": spec["k"],
        "flags": spec["flags"],
        "report": spec["report"],
        "oracle": spec["oracle"],
        "digest": digest.hexdigest(),
        "instances": instances,
    }
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--reference", action="store_true",
                        help="import networkx in place of the program")
    args = parser.parse_args(argv)
    if args.reference:
        import networkx  # noqa: F401
    else:
        # Set-up includes importing the program, as every CLI user pays it.
        import recolorwalk.cli  # noqa: F401
    manifest = write_batch(args.workload, args.seed, args.size, args.out)
    print(manifest["digest"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

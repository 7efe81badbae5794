"""Benchmark of the recolorwalk CLI: walk time, walk quality, per-module spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the program under `src/` next to this directory
and exits with code 2, printing no result, when that program is missing.

One client in one process calls `recolorwalk.cli.main(argv)` in a closed
loop: each request starts only when the previous one has finished. The
workload is a fixed batch of seeded instances (see `gen.py`); the loop goes
round the batch until `--seconds` have passed, and always runs every
instance at least once, so the walk-quality counts cover the whole batch.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json, from
untraced requests. `--trace 1` reports the per-layer metrics: each instance
runs once untraced and once with a span around every call into the
program's public functions (see `spans.py`), then separate untimed passes
count what the spans cannot see. Every emitted walk is replayed by the
benchmark's own checker (`check.py`) outside the timed region.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; each metric is {"value", "unit"}. The
lines before it list the same metrics for a reader, plus `error_rate`, the
sha256 of the emitted sequences, and on the oracle workload `oracle_s.p50`
and `stretch_vs_bfs`. The run's metrics, and with `--trace 1` its spans, are
also written to `.bench_out/` at the repository root. See README.md in this
directory for the workloads and for which metric should move with which.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import check
import gen
from spans import Tracer, span_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
COLD_START_REPEATS = 10
# Cold starts are measured on the desk-scale flow, where a request's fixed
# cost matters; on the other workloads they would only take loop time.
COLD_START_WORKLOAD = "tiny-certify"
REFERENCE_LOOP = 60000
REFERENCE_WINDOW_S = 4.0  # kernel runs this close in time are pooled
REQUEST_ROOTS = ("cli.recolor", "cli.verify", "cli.oracle")
# Units of the metrics that are printed for a reader but not in BENCHMARK.json.
PRINTED_UNITS = {
    "recolor_ref.p90": "ref", "verify_ref.p50": "ref", "reference_s": "s", "setup_raw_s": "s",
    "instances_per_s": "1/s", "recolor_s.p50": "s", "recolor_s.p90": "s", "verify_s.p50": "s",
    "cold_start_s": "s",
    "max_per_vertex.batch_max": "count", "bound_ratio.batch_max": "ratio",
    "error_rate": "ratio",
}


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90_of(values: list[float]) -> float:
    if len(values) < 2:
        return median_of(values)
    return statistics.quantiles(values, n=10)[-1]


class Reference:
    """A fixed kernel of the benchmark's own, an integer loop of about 6 ms
    in the interpreter. It runs before every instance, and the program's
    times are reported in multiples of it (unit `ref`): a request's time is
    divided by the median kernel time of the runs within a few seconds of
    it, which tracks the host's speed and ignores one hiccup.

    On a shared host the speed of a core drifts by up to 1.8x between runs
    a few minutes apart, so raw seconds do not repeat; the ratio of two
    timings taken within the same few seconds does, to a few percent. Of
    the kernels tried (this loop, a greedy coloring, a walk replay, set
    building), this loop's time tracked a recolor request's time closest.
    The raw seconds are printed beside the ratios.
    """

    def __init__(self):
        self.times: list[float] = []

    def time(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i % 7
        self.times.append(perf_counter() - start)
        return self.times[-1]


@dataclass
class Outcome:
    """One run of an instance's requests."""

    at: float = field(default_factory=perf_counter)
    ref: float = 0.0  # reference kernel time taken just before the requests
    times: dict[str, float] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    problem: str | None = None


class Batch:
    """A written batch of instances and the requests the CLI gets for each."""

    def __init__(self, manifest: dict, out_dir: Path):
        self.m = manifest
        self.k = manifest["k"]
        self.instances = manifest["instances"]
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def outputs(self, i: int) -> dict[str, str]:
        stem = self.out_dir / f"{i:04d}"
        return {"seq": f"{stem}.seq.txt", "stats": f"{stem}.stats.json",
                "report": f"{stem}.report.json"}

    def requests(self, i: int) -> list[tuple[str, list[str]]]:
        inst, out, k = self.instances[i], self.outputs(i), str(self.k)
        recolor = ["recolor", inst["graph"], inst["from"], inst["to"], "-k", k,
                   *self.m["flags"], "--out", out["seq"], "--stats", out["stats"]]
        if self.m["report"]:
            recolor += ["--report", out["report"]]
        reqs = [("recolor", recolor),
                ("verify", ["verify", inst["graph"], inst["from"], out["seq"], "-k", k])]
        if self.m["oracle"]:
            reqs.append(("oracle", ["oracle", inst["graph"], "-k", k,
                                    "--distance", inst["from"], inst["to"]]))
        return reqs


class Runner:
    """Runs a batch's requests in process and keeps what the checks need."""

    def __init__(self, batch: Batch):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import recolorwalk.cli as cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported {cli.__file__}, not the program under {SRC}")
        self.cli = cli
        self.batch = batch
        self.reference = Reference()
        self.runs: list[tuple[int, Outcome]] = []
        # (instance, untraced outcome, traced outcome) of a traced loop
        self.pairs: list[tuple[int, Outcome, Outcome]] = []
        self.first_digest: dict[int, str] = {}
        self.last: dict[int, Outcome] = {}
        self.started = perf_counter()
        self.parsed: dict[int, tuple] = {}
        self.reduced: dict[int, tuple] = {}

    def program_view(self, i: int) -> tuple:
        """The program's own view of instance i: graph, partition, colorings
        and the peeling parameters (None on the degeneracy route)."""
        if i not in self.parsed:
            import recolorwalk as rw
            inst, k, flags = self.batch.instances[i], self.batch.k, self.batch.m["flags"]
            g = rw.parse_graph(Path(inst["graph"]).read_text())
            alpha = rw.parse_coloring(Path(inst["from"]).read_text(), g.n, k)
            beta = rw.parse_coloring(Path(inst["to"]).read_text(), g.n, k)
            if "--degenerate-fallback" in flags:
                self.parsed[i] = g, rw.degree_partition_from_degeneracy(g), alpha, beta, None
            else:
                p, q = flags[flags.index("--epsilon") + 1].split("/")
                params = rw.SpecialISParams(d=int(flags[flags.index("-d") + 1]),
                                            epsilon=Fraction(int(p), int(q)))
                self.parsed[i] = g, rw.build_degree_partition(g, params), alpha, beta, params
        return self.parsed[i]

    def reduced_view(self, i: int) -> tuple:
        """Both colorings of instance i reduced to s+2 colors by the public
        `reduce_palette`, and the number of steps that took; untimed."""
        if i not in self.reduced:
            import recolorwalk as rw
            g, part, alpha, beta, _ = self.program_view(i)
            tight = part.s + 2
            sides, steps = [], 0
            for side in (alpha, beta):
                seq = rw.reduce_palette(g, part, side, self.batch.k, tight)
                steps += len(seq.steps)
                colors = list(side.colors)
                for step in seq.steps:
                    colors[step.vertex] = step.new_color
                sides.append(rw.Coloring(tuple(colors), tight))
            self.reduced[i] = (*sides, steps)
        return self.reduced[i]

    def split_walk(self, i: int, tracer: Tracer) -> None:
        """Time the recursion after palette reduction alone, under a span
        rooted at `bench.split`: `recolor_between` on the two colorings
        already reduced to s+2 colors, with k = s+2, where it has nothing
        left to reduce."""
        import recolorwalk as rw
        g, part, _, _, _ = self.program_view(i)
        alpha, beta, _ = self.reduced_view(i)
        tracer.instance = i
        tracer.install()
        try:
            tracer.span("bench.split", rw.recolor_between, g, part, alpha, beta, part.s + 2)
        finally:
            tracer.uninstall()

    def call(self, argv: list[str], tracer: Tracer | None) -> tuple[float, int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.span(f"cli.{argv[0]}", self.cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback counts as a failed request
                code = -1
                out.write(f"{type(exc).__name__}: {exc}")
            elapsed = perf_counter() - start
        return elapsed, code, out.getvalue()

    def run(self, i: int, tracer: Tracer | None = None) -> Outcome:
        outcome = Outcome(ref=self.reference.time())
        if tracer is not None:
            tracer.instance = i
            tracer.install()
        try:
            for kind, argv in self.batch.requests(i):
                elapsed, code, stdout = self.call(argv, tracer)
                outcome.times[kind] = elapsed
                outcome.stdout[kind] = stdout
                if code != 0:
                    outcome.problem = f"{kind} exited with code {code}: {stdout.strip()[:200]}"
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        if outcome.problem is None:
            digest = hashlib.sha256(Path(self.batch.outputs(i)["seq"]).read_bytes()).hexdigest()
            if self.first_digest.setdefault(i, digest) != digest:
                outcome.problem = "emitted sequence changed between runs of one instance"
        self.last[i] = outcome
        return outcome

    def pooled_reference(self) -> list[float]:
        """For each loop run, the median kernel time of the runs that
        started within REFERENCE_WINDOW_S / 2 seconds of it."""
        at = [o.at for _, o in self.runs]
        refs = [o.ref for _, o in self.runs]
        pooled, lo, hi = [], 0, 0
        for t in at:
            while at[lo] < t - REFERENCE_WINDOW_S / 2:
                lo += 1
            while hi < len(at) and at[hi] <= t + REFERENCE_WINDOW_S / 2:
                hi += 1
            pooled.append(statistics.median(refs[lo:hi]))
        return pooled

    def samples(self, failed: set[int]) -> list[tuple[Outcome, float]]:
        """Runs without failure, each with the kernel time it is divided by."""
        return [(o, r) for (i, o), r in zip(self.runs, self.pooled_reference())
                if i not in failed and o.problem is None]


@dataclass
class Quality:
    """Independent check of the final outputs of every instance."""

    failed: set[int]
    problems: list[str]
    steps: list[int]            # per instance, as every list below
    max_per_vertex: list[int]
    bound_ratio: list[float]
    walk_steps: int
    oracle_total: int
    sha256: str


def check_batch(runner: Runner) -> Quality:
    batch = runner.batch
    failed, problems, steps, top, ratio = set(), [], [], [], []
    digest = hashlib.sha256()
    oracle_total = 0
    for i, inst in enumerate(batch.instances):
        outcome = runner.last[i]
        out = batch.outputs(i)
        if outcome.problem is not None:
            failed.add(i)
            problems.append(f"instance {i}: {outcome.problem}")
            steps.append(0)
            top.append(0)
            ratio.append(0.0)
            continue
        distance = None
        if batch.m["oracle"]:
            answer = outcome.stdout["oracle"].strip()
            distance = int(answer) if answer.isdigit() else None
            if distance is None:
                failed.add(i)
                problems.append(f"instance {i}: oracle answered {answer!r}")
        result = check.check_instance(inst, batch.k, out["seq"], out["stats"], distance)
        target = " ".join(map(str, check.read_colors(inst["to"])))
        if result.problem is None and outcome.stdout["recolor"].strip() != str(result.steps):
            result.problem = "recolor printed a length other than the replayed one"
        if result.problem is None and outcome.stdout["verify"].strip() != f"OK final={target}":
            result.problem = "verify printed a final coloring other than the target"
        if result.problem is not None:
            failed.add(i)
            problems.append(f"instance {i}: {result.problem}")
        steps.append(result.steps)
        top.append(result.max_per_vertex)
        ratio.append(result.bound_ratio)
        oracle_total += distance or 0
        digest.update(Path(out["seq"]).read_bytes())
    return Quality(failed, problems, steps, top, ratio, sum(steps), oracle_total,
                   digest.hexdigest())


def set_up(workload: str, seed: int, size: str, out: Path,
           reference: bool = False) -> tuple[str, float]:
    """One set-up in a fresh process (`gen.py`): import the program (networkx
    alone with `reference`), write the seeded batch into `out`, emptied
    first so that every set-up creates its files; returns the digest of the
    files and the wall time."""
    shutil.rmtree(out, ignore_errors=True)
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("gen.py")), "--workload", workload,
         "--seed", str(seed), "--size", size, "--out", str(out),
         *(["--reference"] if reference else [])],
        env=program_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.strip(), elapsed


class Repeated:
    """A measurement in fresh processes, repeated `count` times and spread
    evenly over the timed loop. On the shared host, repetitions made back
    to back met the same slow or fast moment and moved together by up to
    40 % from run to run; spread over the loop, their median holds steady.
    The action returns the seconds it measured."""

    def __init__(self, count: int, seconds: float, action):
        self.count, self.every, self.action = count, seconds / count, action
        self.times: list[float] = []

    def due(self, elapsed: float) -> bool:
        return len(self.times) < self.count and elapsed >= self.every * len(self.times)

    def run(self) -> None:
        self.times.append(self.action())


def cold_start(workload: str, seed: int, work: Path, seconds: float) -> Repeated:
    """`python -m recolorwalk.cli recolor` in a fresh process, on the first
    instance of the workload at its tiny size."""
    batch = Batch(gen.write_batch(workload, seed, "tiny", work / "cold"), work / "cold-out")
    argv = batch.requests(0)[0][1]

    def request() -> float:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "recolorwalk.cli", *argv],
                              env=program_env(), cwd=ROOT, capture_output=True, timeout=120)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cold-start request failed: {proc.stderr.decode()[-500:]}")
        return elapsed

    return Repeated(COLD_START_REPEATS, seconds, request)


def closed_loop(runner: Runner, seconds: float, tracer: Tracer | None = None,
                repeated: tuple[Repeated, ...] = ()) -> None:
    """Go round the batch until `seconds` pass and every instance has run.

    With a tracer, each instance runs untraced and then traced; which of the
    two goes first alternates, so neither always finds warmer caches. Then
    `Runner.split_walk` times the recursion after palette reduction.
    """
    n = len(runner.batch.instances)
    start = perf_counter()
    i = 0
    while i < n or perf_counter() - start < seconds:
        for job in repeated:
            if job.due(perf_counter() - start):
                job.run()
        index = i % n
        if tracer is None:
            runner.runs.append((index, runner.run(index)))
        else:
            if i % 2 == 0:
                plain = runner.run(index)
                traced = runner.run(index, tracer)
            else:
                traced = runner.run(index, tracer)
                plain = runner.run(index)
            runner.pairs.append((index, plain, traced))
            runner.runs.append((index, plain))
            runner.split_walk(index, tracer)
        i += 1
    for job in repeated:
        while job.due(float("inf")):
            job.run()


def end_to_end(runner: Runner, quality: Quality, setup_times: list[float],
               reference_times: list[float], cold: Repeated | None,
               rss_mib: float) -> dict[str, float]:
    """The contract's end-to-end metrics, then those printed but not
    bounded: timings that spread too widely across runs on a shared host
    (see README.md), raw seconds, and the batch maxima.

    `setup_s` is the median set-up time over the median time of the
    reference set-ups made beside it, times the reference set-up's time on
    the host the benchmark was written on: the set-up in seconds at that
    host's speed. The integer-loop kernel does not follow the speed of
    process start and imports, so it cannot scale set-up times.
    """
    ok = runner.samples(quality.failed)
    ref = median_of([o.ref for _, o in runner.runs])
    setup_raw = statistics.median(setup_times)
    nominal = gen.WORKLOADS[runner.batch.m["workload"]]["reference_setup_s"]

    def times(kind: str, unit: float | None = None) -> list[float]:
        return [o.times[kind] / (r if unit is None else unit) for o, r in ok]

    busy = sum(sum(o.times.values()) for o, _ in ok)
    busy_ref = sum(sum(o.times.values()) / r for o, r in ok)
    return {
        "setup_s": setup_raw / statistics.median(reference_times) * nominal,
        "instances_per_ref": len(ok) / busy_ref if busy_ref else 0.0,
        "recolor_ref.p50": median_of(times("recolor")),
        "walk_steps": quality.walk_steps,
        "max_per_vertex": statistics.fmean(quality.max_per_vertex),
        "bound_ratio": statistics.fmean(quality.bound_ratio),
        "peak_rss_mib": rss_mib,
        "recolor_ref.p90": p90_of(times("recolor")),
        "verify_ref.p50": median_of(times("verify")),
        "reference_s": ref,
        "instances_per_s": len(ok) / busy if busy else 0.0,
        "recolor_s.p50": median_of(times("recolor", 1.0)),
        "recolor_s.p90": p90_of(times("recolor", 1.0)),
        "verify_s.p50": median_of(times("verify", 1.0)),
        "setup_raw_s": setup_raw,
        "max_per_vertex.batch_max": max(quality.max_per_vertex),
        "bound_ratio.batch_max": max(quality.bound_ratio),
        **({"cold_start_s": median_of(cold.times)} if cold else {}),
    }


def oracle_extras(runner: Runner, quality: Quality) -> dict[str, float]:
    """Metrics that exist only where the oracle runs; 0 elsewhere."""
    if not runner.batch.m["oracle"]:
        return {"oracle_s.p50": 0.0, "stretch_vs_bfs": 0.0}
    stretch = quality.walk_steps / quality.oracle_total if quality.oracle_total else 0.0
    ok = runner.samples(quality.failed)
    return {"oracle_s.p50": median_of([o.times["oracle"] for o, _ in ok]),
            "stretch_vs_bfs": stretch}


def counting_passes(runner: Runner, quality: Quality) -> dict[str, float]:
    """Untimed passes over the whole batch for exact counts."""
    import networkx
    import recolorwalk as rw
    batch = runner.batch
    counts = {"engine.clear_calls": 0, "engine.reduce.steps": 0,
              "engine.reduce.colors_attempted": 0, "graphs.mad_exact.min_cuts": 0,
              "layering.rounds": 0, "layering.rounds_over_bound": 0.0,
              "layering.min_slack": 0, "oracle.states": 0, "cli.out_bytes": 0}
    used_above = 0
    slack = None
    minimum_cut = networkx.minimum_cut

    def counted_minimum_cut(*args, **kwargs):
        counts["graphs.mad_exact.min_cuts"] += 1
        return minimum_cut(*args, **kwargs)

    for i in range(len(batch.instances)):
        g, part, alpha, beta, params = runner.program_view(i)
        k, s = batch.k, part.s
        if params is not None:
            counts["layering.rounds"] += part.t
            bound = rw.partition_round_bound(g.n, params)
            counts["layering.rounds_over_bound"] = max(
                counts["layering.rounds_over_bound"], part.t / bound)
            h = g.n
            for layer in part.layers:
                gap = len(layer) - params.threshold(h)
                slack = gap if slack is None else min(slack, gap)
                h -= len(layer)
        trace = rw.EliminationTrace()
        rw.recolor_between(g, part, alpha, beta, k, trace=trace)
        counts["engine.clear_calls"] += len(trace.claims)
        counts["engine.reduce.steps"] += runner.reduced_view(i)[2]
        counts["engine.reduce.colors_attempted"] += 2 * max(0, k - s - 2)
        used_above += sum(1 for side in (alpha, beta) for c in set(side.colors) if c > s + 2)
        if batch.m["report"]:
            networkx.minimum_cut = counted_minimum_cut
            try:
                rw.mad_exact(g)
            finally:
                networkx.minimum_cut = minimum_cut
        if batch.m["oracle"]:
            counts["oracle.states"] += k ** g.n
        counts["cli.out_bytes"] += sum(
            os.path.getsize(path) for path in batch.outputs(i).values() if os.path.exists(path))
    counts["layering.min_slack"] = slack or 0
    attempted = counts["engine.reduce.colors_attempted"]
    counts["engine.reduce.palette_use_ratio"] = used_above / attempted if attempted else 0.0
    counts["engine.peak_bytes_per_step"] = peak_bytes_per_step(runner, quality)
    return counts


def peak_bytes_per_step(runner: Runner, quality: Quality) -> float:
    """Peak traced allocation of one `recolor_between` call over its step
    count, on the first instance with a non-empty walk. tracemalloc slows
    Python several times over, so this pass is never timed."""
    for i, steps in enumerate(quality.steps):
        if steps > 0:
            import recolorwalk
            g, part, alpha, beta, _ = runner.program_view(i)
            gc.collect()
            tracemalloc.start()
            try:
                seq = recolorwalk.recolor_between(g, part, alpha, beta, runner.batch.k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak / len(seq.steps)
    return 0.0


def per_layer(runner: Runner, quality: Quality, counts: dict[str, float],
              tracer: Tracer) -> dict[str, float]:
    pairs = [(i, plain, traced) for i, plain, traced in runner.pairs
             if plain.problem is None and traced.problem is None]
    n = len(pairs) or 1
    total, own = span_times(tracer.spans, REQUEST_ROOTS)
    split_total, split_own = span_times(tracer.spans, ("bench.split",))

    def seconds(ns: float) -> float:
        return ns / 1e9 / n

    # The palette reduction is the requests' recolor_between time minus the
    # same call on the reduced colorings, timed alone by the split walk.
    # Where the reduction loop is empty the difference is noise around 0,
    # and a negative one reads 0.
    walk_ns = total.get("engine.recolor_between", 0)
    between_ns = split_own.get("engine.recolor_between", 0)
    reduce_ns = max(walk_ns - split_total.get("engine.recolor_between", 0), 0)
    walk_steps = sum(quality.steps[i] for i, _, _ in pairs)
    plain_recolor = sum(plain.times["recolor"] for _, plain, _ in pairs)
    traced_recolor = sum(traced.times["recolor"] for _, _, traced in pairs)
    metrics = {
        "engine.recolor_between_s": seconds(walk_ns),
        "engine.between_s": seconds(between_ns),
        "engine.steps_per_s": walk_steps / (walk_ns / 1e9) if walk_ns else 0.0,
        "engine.reduce_palette_s": seconds(reduce_ns),
        "engine.verify_sequence_s": seconds(total.get("engine.verify_sequence", 0)),
        "engine.sequence_stats_s": seconds(total.get("engine.sequence_stats", 0)),
        "cli.verify.self_s": seconds(own.get("cli.verify", 0)),
        "cli.recolor.self_s": seconds(own.get("cli.recolor", 0)),
        "graphs.mad_exact_s": seconds(total.get("graphs.mad_exact", 0)),
        "graphs.parse_graph_s": seconds(total.get("graphs.parse_graph", 0)),
        "graphs.parse_coloring_s": seconds(total.get("graphs.parse_coloring", 0)),
        "graphs.degeneracy_ordering_s": seconds(total.get("graphs.degeneracy_ordering", 0)),
        "layering.degeneracy_partition_s": seconds(
            total.get("layering.degree_partition_from_degeneracy", 0)),
        "layering.build_degree_partition_s": seconds(
            total.get("layering.build_degree_partition", 0)),
        "layering.validate_partition_s": seconds(total.get("layering.validate_partition", 0)),
        "layering.embedded_ordering_s": seconds(total.get("layering.embedded_ordering", 0)),
        "oracle.bfs_distance_s": seconds(total.get("oracle.bfs_distance", 0)),
        "trace.overhead_ratio": traced_recolor / plain_recolor if plain_recolor else 0.0,
    }
    metrics.update(counts)
    metrics.update(oracle_extras(runner, quality))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str, work: Path) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and a record for
    `.bench_out/` (metrics of both kinds, problems, sequence digest, spans)."""
    digest, first = set_up(workload, seed, size, work / "inputs")
    setup_times = [first]
    manifest = json.loads((work / "inputs" / "manifest.json").read_text())

    def set_up_again(reference: bool = False) -> float:
        again, elapsed = set_up(workload, seed, size, work / "again", reference)
        if again != digest:
            raise RuntimeError("set-up wrote different inputs for one seed")
        return elapsed

    reference_times = [set_up_again(reference=True)]

    runner = Runner(Batch(manifest, work / "outputs"))
    runner.run(0)  # warm-up: lazy imports and first-call costs, untimed
    runner.last.clear()
    tracer = Tracer() if trace else None
    # Each set-up is followed at once by a reference set-up.
    again = Repeated(SETUP_REPEATS - 1, seconds, set_up_again)
    reference = Repeated(SETUP_REPEATS - 1, seconds, lambda: set_up_again(reference=True))
    cold = cold_start(workload, seed, work, seconds) if workload == COLD_START_WORKLOAD else None
    runner.started = perf_counter()
    closed_loop(runner, seconds, tracer,
                () if trace else (again, reference, *([cold] if cold else [])))
    setup_times += again.times
    reference_times += reference.times
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quality = check_batch(runner)
    if trace:
        counts = counting_passes(runner, quality)
        metrics = per_layer(runner, quality, counts, tracer)
    else:
        metrics = end_to_end(runner, quality, setup_times, reference_times, cold, rss_mib)
        metrics.update(oracle_extras(runner, quality))
    outcomes = runner.runs + [(i, traced) for i, _, traced in runner.pairs]
    failed = sum(1 for i, o in outcomes if i in quality.failed or o.problem is not None)
    metrics["error_rate"] = failed / len(outcomes)
    result = {"correct": not quality.failed, "attempted": len(outcomes), "failed": failed}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "inputs_sha256": manifest["digest"],
              "sequences_sha256": quality.sha256, "problems": quality.problems,
              "metrics": metrics, "setup_times": setup_times,
              "reference_setup_times": reference_times,
              "cold_start_times": cold.times if cold else [],
              "requests": [[i, o.at - runner.started, o.ref, o.times] for i, o in runner.runs],
              "spans": tracer.spans if trace else []}
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recolorwalk" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no program to benchmark: {SRC / 'recolorwalk'} or "
              f"{ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 "full", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_UNITS)
    for problem in record["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in record["metrics"].items():
        print(f"{args.workload:13s} {name:34s} {value:>16.6g} {units.get(name, '')}")
    print(f"{args.workload:13s} {'sequences_sha256':34s} {record['sequences_sha256']}")
    result["metrics"] = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, at the tiny size of every workload.

    python3 bench/selftest.py

For each workload it runs the tiny batch with tracing off and on, and
checks that every metric BENCHMARK.json names is emitted as a finite number
and that no instance failed; each per-layer metric must also be above 0 on
the workload that does the bulk of its layer's work (README.md), so a layer
whose spans or counts went missing shows. It then flips the color of one
emitted step and checks that the independent checker counts that instance
as failed, and that the benchmark refuses to run, printing no result, in a
directory holding only BENCHMARK.json and this directory. Exits 0 when all
pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run

SEED = 7

# For each per-layer metric, the workload that does the bulk of its layer's
# work, where it must read above 0.
BULK = {
    "peel-tree": (
        "engine.recolor_between_s", "engine.between_s", "engine.steps_per_s",
        "engine.clear_calls", "engine.peak_bytes_per_step", "engine.verify_sequence_s",
        "engine.sequence_stats_s", "cli.verify.self_s", "layering.build_degree_partition_s",
        "layering.rounds", "layering.rounds_over_bound", "trace.overhead_ratio"),
    "degen-wide": (
        "engine.reduce_palette_s", "engine.reduce.steps", "engine.reduce.colors_attempted",
        "engine.reduce.palette_use_ratio", "graphs.degeneracy_ordering_s",
        "layering.degeneracy_partition_s"),
    "tiny-certify": (
        "cli.recolor.self_s", "cli.out_bytes", "graphs.mad_exact_s",
        "graphs.mad_exact.min_cuts", "graphs.parse_graph_s", "graphs.parse_coloring_s",
        "layering.validate_partition_s", "layering.embedded_ordering_s",
        "oracle.bfs_distance_s", "oracle.states", "oracle_s.p50", "stretch_vs_bfs"),
}
# The smallest layer size minus its threshold: 0 is a legitimate value.
MAY_BE_ZERO = ("layering.min_slack",)


def check_metrics(workload: str, trace: bool, spec: dict) -> list[str]:
    work = run.WORK / f"selftest-{workload}-{int(trace)}"
    try:
        result, record = run.measure(workload, SEED, 0.2, trace, "tiny", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = []
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = record["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{workload} trace={int(trace)}: {m['name']} missing or not a number")
        elif trace and m["name"] in BULK[workload] and value <= 0:
            errors.append(f"{workload} trace=1: {m['name']} is {value}, where its layer "
                          "does the bulk of its work")
    if result["failed"] or not result["correct"] or record["metrics"]["error_rate"] != 0:
        errors.append(f"{workload} trace={int(trace)}: failures {record['problems']}")
    return errors


def check_flipped_step(workload: str) -> list[str]:
    work = run.WORK / f"selftest-flip-{workload}"
    try:
        batch = run.Batch(gen.write_batch(workload, SEED, "tiny", work / "inputs"),
                          work / "outputs")
        runner = run.Runner(batch)
        run.closed_loop(runner, 0)
        if run.check_batch(runner).failed:
            return [f"{workload}: failures before any step was flipped"]
        seq = Path(batch.outputs(0)["seq"])
        lines = seq.read_text().splitlines()
        if not lines:
            return [f"{workload}: instance 0 emitted an empty walk; nothing to flip"]
        # The last step fixes its vertex's final color, so any other color
        # there is an improper step, a no-op or a wrong final coloring.
        vertex, color = map(int, lines[-1].split())
        lines[-1] = f"{vertex} {color % batch.k + 1}"
        seq.write_text("\n".join(lines) + "\n")
        if 0 not in run.check_batch(runner).failed:
            return [f"{workload}: the checker missed a flipped step"]
        return []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_program() -> list[str]:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(Path(__file__).parent, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "tiny-certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return ["the benchmark ran without the program beside it"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    mapped = {name for names in BULK.values() for name in names} | set(MAY_BE_ZERO)
    errors = [f"{m['name']} has no workload in BULK" for m in spec["per_layer"]
              if m["name"] not in mapped]
    for workload in gen.WORKLOADS:
        for trace in (False, True):
            errors += check_metrics(workload, trace, spec)
        errors += check_flipped_step(workload)
    errors += check_refuses_without_program()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

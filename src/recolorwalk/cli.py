"""Command-line front end.

The primary answer is the only thing written to stdout; diagnostics go to
stderr. Exit codes: 0 success, 2 parse error or unwritable output, 3 state
cap exceeded, 4 independent-set size guarantee failed, 5 improper input
coloring, 6 palette too small, 7 a sequence or built walk failed its replay.

The oracle's k^n cap (default 10^7) can be overridden with the
RECOLOR_STATE_CAP environment variable.

This module owns the sequence-file format, one "vertex new_color" step per
line in the line grammar stated in `graphs`: `_format_steps` writes it for
`recolor --out` and `_parse_steps` reads it for `verify`, both in bulk, the
reader through `graphs.read_pairs`, which reads graph files too.

Every output file (`--out`, `--stats`, `--report`) is written by
`_write_output`, in place: a file that holds data is overwritten from its
start and cut to the new length, never truncated first, with SIGINT and
SIGTERM held back until it is whole. A write is neither atomic nor synced.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import signal
import stat
import sys
from fractions import Fraction

from .engine import (
    RecoloringSequence,
    recolor_between,
    recolor_theorem_pipeline,
    sequence_stats,
    verify_sequence,
)
from .errors import (
    GraphFormatError,
    ImproperInput,
    PaletteTooSmall,
    RecolorwalkError,
    SequenceViolation,
    SizeGuaranteeViolated,
    StateSpaceTooLarge,
)
from .graphs import (Coloring, check_coloring, content_lines, int_pair, mad_brute, mad_exact,
                     parse_coloring, parse_graph, read_pairs, serialize_coloring)
from .layering import (
    SpecialISParams,
    build_degree_partition,
    degree_partition_from_degeneracy,
    serialize_partition,
)
from .oracle import DEFAULT_STATE_CAP, bfs_distance, count_proper_colorings, exact_diameter

_EXIT_CODES = (
    (GraphFormatError, 2),
    (StateSpaceTooLarge, 3),
    (SizeGuaranteeViolated, 4),
    (ImproperInput, 5),
    (PaletteTooSmall, 6),
    (SequenceViolation, 7),
)


def _read_input(path: str, role: str, report: dict) -> str:
    try:
        # One unbuffered read of the whole file: on a 24-byte graph file
        # 4 us, against 11 us by pathlib's read_bytes (Xeon, 2 cores).
        with io.FileIO(path) as f:
            data = f.readall()
        if report["inputs"] is not None:
            import hashlib  # here, not at load: only a --report run digests
            report["inputs"][role] = hashlib.sha256(data).hexdigest()
        return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 at byte {exc.start}"
        raise GraphFormatError(f"cannot read {role} file {path}: {why}") from None


def _write_output(path: str, role: str, text: str) -> None:
    """Write `text` to `path` in place, cutting a longer old file to length.

    Truncating a file that holds data to zero and rewriting it makes ext4,
    under its default `auto_da_alloc`, allocate and start writeback at close:
    rewriting a 1.2 KB text over a longer file took a median 71 us that way
    and 29 us in place, on an ext4 virtual disk. A new or empty file has no
    old bytes to cut and a pipe, tty or device cannot be cut (POSIX gives its
    `st_size` no meaning), so these are written plainly. Over a regular file
    that holds data, SIGINT and SIGTERM are held back in this thread until
    the write and the cut are done, so an interrupt lands once the file is
    whole rather than leave the new bytes followed by the old file's tail. The
    write is neither atomic nor synced: a failed write, a SIGKILL or a crash
    part way can leave old and new bytes mixed, and after a power loss a
    rewritten file can hold its new length with its old bytes.
    """
    data = text.encode()
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            old = os.fstat(f.fileno())
            if not (stat.S_ISREG(old.st_mode) and old.st_size):
                f.write(data)
                return
            held = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
            try:
                f.write(data)
                if old.st_size > len(data):
                    f.truncate()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
    except OSError as exc:
        raise GraphFormatError(f"cannot write {role} file {path}: {exc.strerror}") from None


def _write_report(path: str | None, report: dict, code: int) -> int:
    """Write the run report, if asked for, and return the exit code: 2 when
    the report cannot be written."""
    if path:
        report["exit_status"] = code
        try:
            _write_output(path, "report",
                          json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
        except GraphFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


def _parse_rational(text: str) -> Fraction:
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError):
        pass
    raise GraphFormatError(f"expected an exact rational like 1/2, got {text!r}")


def _parse_steps(text: str, alpha: Coloring) -> RecoloringSequence:
    """Read a sequence file in bulk with `read_pairs`; the line-by-line
    reading runs only once that has failed, to name the first bad line."""
    if (pairs := read_pairs(text)) is None:
        for line_no, fields in content_lines(text):
            int_pair(fields, line_no, "step 'vertex color'")
        raise RuntimeError("the sequence file failed its bulk read, but no line did")
    return RecoloringSequence(alpha, *map(tuple, pairs))


def _format_steps(seq: RecoloringSequence, n: int) -> str:
    """The sequence file of `seq` on n vertices: one "v c" line per step.

    Each step's text is two strings from tables built once, "{v} " per
    vertex and "{c}\\n" per color the walk writes, joined in one pass.
    """
    vertex_text = [f"{v} " for v in range(n)]
    color_text = {c: f"{c}\n" for c in set(seq.new_colors)}
    parts = [""] * (2 * len(seq.vertices))
    parts[0::2] = map(vertex_text.__getitem__, seq.vertices)
    parts[1::2] = map(color_text.__getitem__, seq.new_colors)
    return "".join(parts)


def _state_cap() -> int:
    raw = os.environ.get("RECOLOR_STATE_CAP")
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        return int(raw)
    except ValueError:
        raise GraphFormatError(f"RECOLOR_STATE_CAP is not an integer: {raw!r}") from None


def _stats_payload(stats, partition, n: int) -> dict:
    return {
        "total": stats.total,
        "max_per_vertex": stats.max_per_vertex,
        "per_vertex": list(stats.per_vertex),
        "s": partition.s,
        "t": partition.t,
        "n": n,
    }


def _cmd_mad(args, report: dict) -> int:
    g = parse_graph(_read_input(args.graph, "graph", report))
    value = mad_exact(g) if args.mode == "exact" else mad_brute(g)
    answer = f"{value.numerator}/{value.denominator}"
    report["outputs"]["mad"] = answer
    print(answer)
    return 0


def _cmd_partition(args, report: dict) -> int:
    g = parse_graph(_read_input(args.graph, "graph", report))
    params = SpecialISParams(d=args.d, epsilon=_parse_rational(args.epsilon))
    partition = build_degree_partition(g, params)
    report["outputs"]["s"] = partition.s
    report["outputs"]["t"] = partition.t
    sys.stdout.write(serialize_partition(partition))
    return 0


def _cmd_recolor(args, report: dict) -> int:
    g = parse_graph(_read_input(args.graph, "graph", report))
    alpha = parse_coloring(_read_input(args.from_path, "from", report), g.n, args.k)
    beta = parse_coloring(_read_input(args.to_path, "to", report), g.n, args.k)
    if args.degenerate_fallback:
        partition = degree_partition_from_degeneracy(g)
        seq = recolor_between(g, partition, alpha, beta, args.k)
        stats = sequence_stats(seq)
    else:
        if args.d is None or args.epsilon is None:
            raise GraphFormatError("-d and --epsilon are required without --degenerate-fallback")
        seq, stats, partition = recolor_theorem_pipeline(
            g, args.d, _parse_rational(args.epsilon), alpha, beta, args.k)
    payload = _stats_payload(stats, partition, g.n)
    if args.out:
        _write_output(args.out, "sequence", _format_steps(seq, g.n))
    if args.stats:
        _write_output(args.stats, "stats",
                      json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    report["outputs"]["sequence_length"] = stats.total
    report["outputs"]["s"] = partition.s
    report["outputs"]["t"] = partition.t
    report["outputs"]["stats"] = payload
    if args.report:
        mad = mad_exact(g)
        report["outputs"]["mad"] = f"{mad.numerator}/{mad.denominator}"
    print(stats.total)
    return 0


def _cmd_verify(args, report: dict) -> int:
    g = parse_graph(_read_input(args.graph, "graph", report))
    alpha = parse_coloring(_read_input(args.from_path, "from", report), g.n, args.k)
    check_coloring(g, alpha, "from", args.k)
    seq = _parse_steps(_read_input(args.sequence, "sequence", report), alpha)
    final = serialize_coloring(verify_sequence(g, seq)).strip()
    report["outputs"]["final"] = final
    print("OK final=" + final)
    return 0


def _cmd_oracle(args, report: dict) -> int:
    g = parse_graph(_read_input(args.graph, "graph", report))
    cap = _state_cap()
    if args.count:
        answer = str(count_proper_colorings(g, args.k, cap))
    elif args.diameter:
        value = exact_diameter(g, args.k, cap)
        answer = "disconnected" if value is None else str(value)
    else:
        from_path, to_path = args.distance
        alpha = parse_coloring(_read_input(from_path, "from", report), g.n, args.k)
        beta = parse_coloring(_read_input(to_path, "to", report), g.n, args.k)
        value = bfs_distance(g, args.k, alpha, beta, cap)
        answer = "unreachable" if value is None else str(value)
    report["outputs"]["answer"] = answer
    print(answer)
    return 0


# Built once per process: in-process callers of `main`, such as the tests and
# bench/run.py, would otherwise rebuild the whole tree on every request.
# `parse_args` leaves the parser as it found it, and the `_cmd_*` functions
# look up what they call as module globals at call time.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recolorwalk",
        description="Recoloring walks between proper graph colorings.")
    sub = parser.add_subparsers(dest="command", required=True)

    mad = sub.add_parser("mad", help="exact maximum average degree, printed as p/q")
    mad.add_argument("graph")
    mad.add_argument("--mode", choices=("exact", "brute"), default="exact")
    mad.set_defaults(func=_cmd_mad)

    partition = sub.add_parser("partition", help="build and print a degree-layer partition")
    partition.add_argument("graph")
    partition.add_argument("-d", type=int, required=True)
    partition.add_argument("--epsilon", required=True, metavar="P/Q")
    partition.set_defaults(func=_cmd_partition)

    recolor = sub.add_parser("recolor", help="emit a recoloring walk between two colorings")
    recolor.add_argument("graph")
    recolor.add_argument("from_path", metavar="from")
    recolor.add_argument("to_path", metavar="to")
    recolor.add_argument("-k", type=int, required=True)
    recolor.add_argument("-d", type=int)
    recolor.add_argument("--epsilon", metavar="P/Q")
    recolor.add_argument("--degenerate-fallback", action="store_true")
    recolor.add_argument("--stats", metavar="OUT.json")
    recolor.add_argument("--out", metavar="SEQ.txt")
    recolor.set_defaults(func=_cmd_recolor)

    verify = sub.add_parser("verify", help="replay and check a sequence file")
    verify.add_argument("graph")
    verify.add_argument("from_path", metavar="from")
    verify.add_argument("sequence")
    verify.add_argument("-k", type=int, required=True)
    verify.set_defaults(func=_cmd_verify)

    oracle = sub.add_parser("oracle", help="exhaustive answers on tiny instances")
    oracle.add_argument("graph")
    oracle.add_argument("-k", type=int, required=True)
    group = oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--diameter", action="store_true")
    group.add_argument("--count", action="store_true")
    group.add_argument("--distance", nargs=2, metavar=("FROM", "TO"))
    oracle.set_defaults(func=_cmd_oracle)

    for p in (mad, partition, recolor, verify, oracle):
        p.add_argument("--report", metavar="OUT.json",
                       help="write a JSON run report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    report = {"command": argv, "inputs": {} if args.report else None, "outputs": {}}
    try:
        code = args.func(args, report)
    except (RecolorwalkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = next((c for t, c in _EXIT_CODES if isinstance(exc, t)), 2)
        if code == 4 and args.command == "recolor" and not args.degenerate_fallback:
            print("hint: --degenerate-fallback builds a degeneracy-based "
                  "partition without the density precondition", file=sys.stderr)
    except Exception:
        # An unexpected fault still leaves its report, with the exit status
        # of the traceback that follows.
        _write_report(args.report, report, 1)
        raise
    return _write_report(args.report, report, code)


if __name__ == "__main__":
    sys.exit(main())

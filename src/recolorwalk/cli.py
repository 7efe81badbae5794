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

`main` reads the plain argv shapes through a table per subcommand, made
from the Actions that `_build_parser` declares: argv[0] a subcommand, then
exact option strings, each followed by its values, and positionals, where
no value or positional starts with "-", and the checks argparse makes
(positional count, required options, `type`, `choices`, exclusive groups)
pass. Any other argv, such as `-h`, `--out=PATH`, `-k4`, an abbreviation,
`--`, a negative number or an error, goes to argparse, which is the
reference the table reader is tested against and writes every help, usage
and error text. The saving is per in-process call of `main`, as the tests
and bench/run.py make them: the table reads an argv in 3-9 us, argparse in
27-71 us (Xeon, 2 cores), while a one-shot process spends about 60 ms
starting up.
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
    check_palette,
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


def _check_k(k: int) -> None:
    # The rule that a palette has a color, as `Coloring` states it, checked
    # on an empty coloring before any input is read.
    Coloring((), k)


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
    params = SpecialISParams(d=args.d, epsilon=_parse_rational(args.epsilon))
    g = parse_graph(_read_input(args.graph, "graph", report))
    partition = build_degree_partition(g, params)
    report["outputs"]["s"] = partition.s
    report["outputs"]["t"] = partition.t
    sys.stdout.write(serialize_partition(partition))
    return 0


def _cmd_recolor(args, report: dict) -> int:
    # Every argument is checked before any input is read: on a large graph
    # the reading alone takes seconds. Only the fallback's palette rule
    # waits for the graph, whose degeneracy is the partition's depth.
    if args.degenerate_fallback:
        _check_k(args.k)
    else:
        if args.d is None or args.epsilon is None:
            raise GraphFormatError("-d and --epsilon are required without --degenerate-fallback")
        epsilon = _parse_rational(args.epsilon)
        check_palette(args.k, args.d - 1)
        params = SpecialISParams(d=args.d, epsilon=epsilon)
    g = parse_graph(_read_input(args.graph, "graph", report))
    alpha = parse_coloring(_read_input(args.from_path, "from", report), g.n, args.k)
    beta = parse_coloring(_read_input(args.to_path, "to", report), g.n, args.k)
    partition = (degree_partition_from_degeneracy(g) if args.degenerate_fallback
                 else build_degree_partition(g, params))
    seq = recolor_between(g, partition, alpha, beta, args.k)
    stats = sequence_stats(seq)
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
    _check_k(args.k)
    g = parse_graph(_read_input(args.graph, "graph", report))
    alpha = parse_coloring(_read_input(args.from_path, "from", report), g.n, args.k)
    check_coloring(g, alpha, "from", args.k)
    seq = _parse_steps(_read_input(args.sequence, "sequence", report), alpha)
    final = serialize_coloring(verify_sequence(g, seq)).strip()
    report["outputs"]["final"] = final
    print("OK final=" + final)
    return 0


def _cmd_oracle(args, report: dict) -> int:
    cap = _state_cap()
    _check_k(args.k)
    g = parse_graph(_read_input(args.graph, "graph", report))
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
# look up what they call as module globals at call time. The Actions that
# the `add_argument` calls below return are collected so that each
# subcommand's reading table is made from them: every option is declared once.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    parser = argparse.ArgumentParser(
        prog="recolorwalk",
        description="Recoloring walks between proper graph colorings.")
    sub = parser.add_subparsers(dest="command", required=True)

    mad = sub.add_parser("mad", help="exact maximum average degree, printed as p/q")
    mad_args = [mad.add_argument("graph"),
                mad.add_argument("--mode", choices=("exact", "brute"), default="exact")]

    partition = sub.add_parser("partition", help="build and print a degree-layer partition")
    partition_args = [partition.add_argument("graph"),
                      partition.add_argument("-d", type=int, required=True),
                      partition.add_argument("--epsilon", required=True, metavar="P/Q")]

    recolor = sub.add_parser("recolor", help="emit a recoloring walk between two colorings")
    recolor_args = [recolor.add_argument("graph"),
                    recolor.add_argument("from_path", metavar="from"),
                    recolor.add_argument("to_path", metavar="to"),
                    recolor.add_argument("-k", type=int, required=True),
                    recolor.add_argument("-d", type=int),
                    recolor.add_argument("--epsilon", metavar="P/Q"),
                    recolor.add_argument("--degenerate-fallback", action="store_true"),
                    recolor.add_argument("--stats", metavar="OUT.json"),
                    recolor.add_argument("--out", metavar="SEQ.txt")]

    verify = sub.add_parser("verify", help="replay and check a sequence file")
    verify_args = [verify.add_argument("graph"),
                   verify.add_argument("from_path", metavar="from"),
                   verify.add_argument("sequence"),
                   verify.add_argument("-k", type=int, required=True)]

    oracle = sub.add_parser("oracle", help="exhaustive answers on tiny instances")
    oracle_args = [oracle.add_argument("graph"),
                   oracle.add_argument("-k", type=int, required=True)]
    group = oracle.add_mutually_exclusive_group(required=True)
    modes = [group.add_argument("--diameter", action="store_true"),
             group.add_argument("--count", action="store_true"),
             group.add_argument("--distance", nargs=2, metavar=("FROM", "TO"))]

    tables = {}
    for name, p, func, actions, groups in (
            ("mad", mad, _cmd_mad, mad_args, ()),
            ("partition", partition, _cmd_partition, partition_args, ()),
            ("recolor", recolor, _cmd_recolor, recolor_args, ()),
            ("verify", verify, _cmd_verify, verify_args, ()),
            ("oracle", oracle, _cmd_oracle, oracle_args + modes, ((group, modes),))):
        p.set_defaults(func=func)
        actions.append(p.add_argument("--report", metavar="OUT.json",
                                      help="write a JSON run report to this path"))
        tables[name] = _table({"command": name, "func": func}, actions, groups)
    return parser, tables


def _table(defaults: dict, actions: list, groups) -> tuple:
    """One subcommand's reading table, from the Actions that declared it:
    the Namespace values before any token is read, the positionals in order,
    each option string with its Action and value count, the required
    options, and each exclusive group as (required, its Actions). An option
    whose count is not fixed (nargs "?", "*" or "+") is left out, so the
    reader declines it. The positionals take one value each, and every
    option stores its value, or its const when it takes none."""
    return ({a.dest: a.default for a in actions} | defaults,
            [a for a in actions if not a.option_strings],
            {s: (a, 1 if a.nargs is None else a.nargs) for a in actions
             if a.nargs is None or isinstance(a.nargs, int) for s in a.option_strings},
            {a for a in actions if a.option_strings and a.required},
            [(g.required, set(members)) for g, members in groups])


def _value(action: argparse.Action, text: str):
    """`text` converted and checked as argparse does; raises ValueError,
    TypeError or ArgumentTypeError where argparse reports an error."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _read_args(argv: list[str], tables: dict[str, tuple]) -> argparse.Namespace | None:
    """The Namespace that argparse reads from `argv`, found through the
    subcommand's table, or None where the table reader declines (the module
    docstring states what it reads). An option given twice keeps its last
    value, as in argparse."""
    table = tables.get(argv[0]) if argv else None
    if table is None:
        return None
    defaults, positionals, options, required, groups = table
    values = dict(defaults)
    seen = set()
    words = []
    i, end = 1, len(argv)
    try:
        while i < end:
            token = argv[i]
            i += 1
            if not token.startswith("-"):
                words.append(token)
                continue
            if (entry := options.get(token)) is None:
                return None
            action, count = entry
            if count == 0:
                values[action.dest] = action.const
            else:
                texts = argv[i:i + count]
                i += count
                if len(texts) < count or any(t.startswith("-") for t in texts):
                    return None
                got = [_value(action, t) for t in texts]
                values[action.dest] = got[0] if action.nargs is None else got
            seen.add(action)
        if len(words) != len(positionals):
            return None
        for action, word in zip(positionals, words):
            values[action.dest] = _value(action, word)
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    if not required <= seen:
        return None
    for needed, members in groups:
        given = len(members & seen)
        if given > 1 or (needed and not given):
            return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, tables = _build_parser()
    args = _read_args(argv, tables)
    if args is None:
        args = parser.parse_args(argv)
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

import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import recolorwalk.cli as cli
from recolorwalk import (
    SpecialISParams,
    build_degree_partition,
    degree_partition_from_degeneracy,
    recolor_between,
    serialize_coloring,
)
from recolorwalk.cli import main

import families
from families import serialize_graph

P3 = "3 2\n0 1\n1 2\n"
K3 = "3 3\n0 1\n0 2\n1 2\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
MATCHING = "4 2\n0 1\n2 3\n"
K2 = "2 1\n0 1\n"
EDGELESS5 = "5 0\n"


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)
    return write


def test_mad_exact(files, capsys):
    assert main(["mad", files("k3.txt", K3)]) == 0
    assert capsys.readouterr().out == "2/1\n"


def test_mad_brute(files, capsys):
    assert main(["mad", files("p3.txt", P3), "--mode", "brute"]) == 0
    assert capsys.readouterr().out == "4/3\n"


def test_mad_parse_error(files, capsys):
    assert main(["mad", files("bad.txt", "2 1\n0 0\n")]) == 2
    err = capsys.readouterr().err
    assert "self-loop" in err


def test_mad_missing_file(tmp_path, capsys):
    assert main(["mad", str(tmp_path / "nope.txt")]) == 2


@pytest.mark.parametrize("role", ["graph", "from", "sequence"])
def test_verify_names_the_input_that_is_not_utf8(tmp_path, capsys, role):
    # verify reads three files: the error names the one that does not decode.
    contents = {"graph": b"3 2\n0 1\n1 2\n", "from": b"1 2 1\n", "sequence": b"0 3\n"}
    contents[role] = contents[role][:-1] + b" \xff\n"
    paths = {}
    for name, data in contents.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_bytes(data)
    argv = ["verify", str(paths["graph"]), str(paths["from"]), str(paths["sequence"]),
            "-k", "3"]
    assert main(argv) == 2
    offset = len(contents[role]) - 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read {role} file {paths[role]}: not UTF-8 at byte {offset}"]


def test_mad_brute_cap(files, capsys):
    big = "25 0\n"
    assert main(["mad", files("big.txt", big), "--mode", "brute"]) == 3


def test_partition_matching(files, capsys):
    assert main(["partition", files("m.txt", MATCHING), "-d", "2",
                 "--epsilon", "1/2"]) == 0
    assert capsys.readouterr().out == "1 2\n0 2\n1 3\n"


def test_partition_edgeless(files, capsys):
    assert main(["partition", files("e.txt", EDGELESS5), "-d", "1",
                 "--epsilon", "1/2"]) == 0
    assert capsys.readouterr().out == "0 1\n0 1 2 3 4\n"


def test_partition_dense_graph(files, capsys):
    assert main(["partition", files("k4.txt", K4), "-d", "2",
                 "--epsilon", "1/2"]) == 4
    assert "round 1" in capsys.readouterr().err


def test_partition_rejects_float_epsilon(files, capsys):
    assert main(["partition", files("m.txt", MATCHING), "-d", "2",
                 "--epsilon", "0.5"]) == 2


def test_recolor_verify_round_trip(files, tmp_path, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    to = files("to.txt", "2 1 2\n")
    out = str(tmp_path / "seq.txt")
    stats = str(tmp_path / "stats.json")
    assert main(["recolor", graph, frm, to, "-k", "3", "-d", "2",
                 "--epsilon", "1/2", "--out", out, "--stats", stats]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(["verify", graph, frm, out, "-k", "3"]) == 0
    assert capsys.readouterr().out == "OK final=2 1 2\n"
    payload = json.loads((tmp_path / "stats.json").read_text())
    assert payload["total"] == 4
    assert payload["n"] == 3
    assert sorted(payload) == ["max_per_vertex", "n", "per_vertex", "s", "t", "total"]


def _library_walk_corpus():
    # (graph, alpha, beta, k, CLI partition flags, the same partition built
    # by the library): seeded trees on the theorem route with d=3, k=4, and
    # sparse graphs on the degeneracy fallback with k = s+3.
    rng = random.Random(8181)
    for i in range(12):
        if i % 2 == 0:
            g = families.random_tree(rng, rng.randint(2, 60))
            part = build_degree_partition(g, SpecialISParams(3, Fraction(1, 2)))
            k, flags = 4, ["-d", "3", "--epsilon", "1/2"]
        else:
            g = families.random_graph(rng, rng.randint(2, 16), rng.uniform(0.1, 0.4))
            part = degree_partition_from_degeneracy(g)
            k, flags = part.s + 3, ["--degenerate-fallback"]
        alpha = families.random_proper_coloring(rng, g, k)
        beta = families.random_proper_coloring(rng, g, k)
        yield g, alpha, beta, k, flags, part


def test_recolor_writes_the_library_walk(files, tmp_path, capsys):
    # `--out` holds one "v c" line per step of `recolor_between`'s walk,
    # `--stats` counts exactly those steps per vertex, and `verify` replays
    # the file to beta.
    out, stats = tmp_path / "seq.txt", tmp_path / "stats.json"
    for g, alpha, beta, k, flags, part in _library_walk_corpus():
        steps = recolor_between(g, part, alpha, beta, k).steps
        graph = files("g.txt", serialize_graph(g))
        frm = files("from.txt", serialize_coloring(alpha))
        assert main(["recolor", graph, frm, files("to.txt", serialize_coloring(beta)),
                     "-k", str(k), *flags, "--out", str(out), "--stats", str(stats)]) == 0
        assert capsys.readouterr().out == f"{len(steps)}\n"
        assert main(["verify", graph, frm, str(out), "-k", str(k)]) == 0
        assert capsys.readouterr().out == f"OK final={' '.join(map(str, beta.colors))}\n"
        assert out.read_bytes() == "".join(
            f"{step.vertex} {step.new_color}\n" for step in steps).encode()
        moved = Counter(step.vertex for step in steps)
        payload = json.loads(stats.read_text())
        assert payload["per_vertex"] == [moved[v] for v in range(g.n)]
        assert payload["total"] == len(steps)


def test_recolor_identical_endpoints(files, tmp_path, capsys):
    graph = files("p3.txt", P3)
    frm = files("c.txt", "1 2 1\n")
    out = str(tmp_path / "seq.txt")
    assert main(["recolor", graph, frm, frm, "-k", "3", "-d", "2",
                 "--epsilon", "1/2", "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", graph, frm, out, "-k", "3"]) == 0
    assert capsys.readouterr().out == "OK final=1 2 1\n"


def test_recolor_palette_too_small(files, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    to = files("to.txt", "2 1 2\n")
    assert main(["recolor", graph, frm, to, "-k", "2", "-d", "2",
                 "--epsilon", "1/2"]) == 6


def test_recolor_improper_coloring(files, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 1 2\n")
    to = files("to.txt", "2 1 2\n")
    assert main(["recolor", graph, frm, to, "-k", "3", "-d", "2",
                 "--epsilon", "1/2"]) == 5


def test_recolor_dense_graph_suggests_fallback(files, capsys):
    graph = files("k4.txt", K4)
    frm = files("from.txt", "1 2 3 4\n")
    to = files("to.txt", "2 1 3 4\n")
    assert main(["recolor", graph, frm, to, "-k", "4", "-d", "2",
                 "--epsilon", "1/2"]) == 4
    assert "--degenerate-fallback" in capsys.readouterr().err


def test_recolor_degenerate_fallback(files, tmp_path, capsys):
    graph = files("c5.txt", "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
    frm = files("from.txt", "1 2 1 2 3\n")
    to = files("to.txt", "2 1 2 1 3\n")
    out = str(tmp_path / "seq.txt")
    assert main(["recolor", graph, frm, to, "-k", "4",
                 "--degenerate-fallback", "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", graph, frm, out, "-k", "4"]) == 0
    assert capsys.readouterr().out == "OK final=2 1 2 1 3\n"


def test_recolor_fallback_needs_degeneracy_plus_two_colors(files, capsys):
    graph = files("c5.txt", "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
    frm = files("from.txt", "1 2 1 2 3\n")
    to = files("to.txt", "2 1 2 1 3\n")
    assert main(["recolor", graph, frm, to, "-k", "3",
                 "--degenerate-fallback"]) == 6


def test_recolor_requires_budget_without_fallback(files, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    assert main(["recolor", graph, frm, frm, "-k", "3"]) == 2


@pytest.mark.parametrize("flag", ["--out", "--stats", "--report"])
def test_recolor_unwritable_output(files, tmp_path, capsys, flag):
    path = tmp_path / "missing" / "out.txt"
    assert main(["recolor", files("p3.txt", P3), files("from.txt", "1 2 1\n"),
                 files("to.txt", "2 1 2\n"), "-k", "3", "-d", "2", "--epsilon", "1/2",
                 flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert len(err.splitlines()) == 1
    assert not path.parent.exists()


def _recolor_p3(files, *outputs):
    return main(["recolor", files("p3.txt", P3), files("from.txt", "1 2 1\n"),
                 files("to.txt", "2 1 2\n"), "-k", "3", "-d", "2", "--epsilon", "1/2",
                 *outputs])


def test_rewritten_outputs_keep_no_stale_tail(files, tmp_path, capsys):
    # Outputs are rewritten in place: a longer file already at each path
    # must end up byte for byte what a write to a fresh path gives.
    paths = {flag: tmp_path / name for flag, name in
             [("--out", "seq.txt"), ("--stats", "stats.json"), ("--report", "report.json")]}
    argv = [arg for flag, path in paths.items() for arg in (flag, str(path))]
    assert _recolor_p3(files, *argv) == 0
    fresh = {flag: path.read_bytes() for flag, path in paths.items()}
    for flag, path in paths.items():
        path.write_bytes(b"junk " * (len(fresh[flag]) + 50))
    assert _recolor_p3(files, *argv) == 0
    assert {flag: path.read_bytes() for flag, path in paths.items()} == fresh
    assert capsys.readouterr().out == "4\n4\n"


def test_outputs_to_a_device_that_cannot_be_cut(files, capsys):
    assert _recolor_p3(files, "--out", os.devnull, "--stats", os.devnull,
                       "--report", os.devnull) == 0
    assert capsys.readouterr() == ("4\n", "")


def test_output_to_a_pipe(files, tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    assert _recolor_p3(files, "--out", str(seq)) == 0
    read_end, write_end = os.pipe()
    try:
        assert _recolor_p3(files, "--out", f"/dev/fd/{write_end}") == 0
    finally:
        os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        assert pipe.read() == seq.read_bytes() != b""


def test_directory_as_output(files, tmp_path, capsys):
    assert _recolor_p3(files, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write sequence file ")
    assert len(err.splitlines()) == 1


def test_outputs_are_never_opened_with_truncation(files, tmp_path, capsys, monkeypatch):
    # Truncating a file that holds data and rewriting it makes ext4 start
    # writeback at close; every output open must leave O_TRUNC out, on a
    # fresh path and on one that already holds a file.
    real_open, opened = os.open, []

    def recording_open(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return real_open(path, flags, *args, **kwargs)
    monkeypatch.setattr(os, "open", recording_open)
    outputs = [str(tmp_path / name) for name in ("seq.txt", "stats.json", "report.json")]
    argv = [arg for flag, path in zip(["--out", "--stats", "--report"], outputs)
            for arg in (flag, path)]
    for _ in range(2):
        opened.clear()
        assert _recolor_p3(files, *argv) == 0
        assert sorted(path for path, _ in opened) == sorted(outputs)
        assert not [path for path, flags in opened if flags & os.O_TRUNC]


def test_an_interrupt_during_a_rewrite_lands_after_the_cut(files, tmp_path, monkeypatch):
    # A SIGINT that arrives while an output is rewritten is held back until
    # the file is cut: the interrupt still comes, and the file is whole,
    # not the new steps followed by the old file's well-formed tail.
    seq = tmp_path / "seq.txt"
    assert _recolor_p3(files, "--out", str(seq)) == 0
    fresh = seq.read_bytes()
    seq.write_bytes(b"0 3\n" * 100)

    class InterruptedWrite:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

        def fileno(self):
            return self.f.fileno()

        def truncate(self):
            return self.f.truncate()

        def write(self, data):
            signal.raise_signal(signal.SIGINT)
            return self.f.write(data)
    real_open = open
    monkeypatch.setattr(cli, "open", lambda *args: InterruptedWrite(real_open(*args)),
                        raising=False)
    with pytest.raises(KeyboardInterrupt):
        _recolor_p3(files, "--out", str(seq))
    assert seq.read_bytes() == fresh


def test_verify_detects_corruption(files, tmp_path, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    seq = files("seq.txt", "1 3\n0 3\n")
    assert main(["verify", graph, frm, seq, "-k", "3"]) == 7
    assert "step 1" in capsys.readouterr().err


def test_verify_improper_from_coloring(files, capsys):
    # The same exit as `recolor` on an improper input coloring, before any
    # step is replayed.
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 1 2\n")
    seq = files("seq.txt", "")
    assert main(["verify", graph, frm, seq, "-k", "3"]) == 5
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.startswith("error: from is not a proper coloring")


def test_verify_skips_comments_and_blank_lines(files, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    seq = files("seq.txt", "# a walk\n\n  0 3\n   \n  # two steps\n2 3\n")
    assert main(["verify", graph, frm, seq, "-k", "3"]) == 0
    assert capsys.readouterr().out == "OK final=3 2 3\n"


@pytest.mark.parametrize("bad", ["1", "1 2 3", "x 2"])
def test_verify_rejects_a_malformed_step(files, capsys, bad):
    # Line 3 of the file, after a comment and a valid step.
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    seq = files("seq.txt", f"# walk\n0 3\n{bad}\n2 3\n")
    assert main(["verify", graph, frm, seq, "-k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: expected step 'vertex color'\n"


def test_verify_empty_sequence(files, tmp_path, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    seq = files("seq.txt", "")
    assert main(["verify", graph, frm, seq, "-k", "3"]) == 0
    assert capsys.readouterr().out == "OK final=1 2 1\n"


def test_oracle_diameter(files, capsys):
    assert main(["oracle", files("k2.txt", K2), "-k", "3", "--diameter"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_oracle_disconnected(files, capsys):
    assert main(["oracle", files("k3.txt", K3), "-k", "3", "--diameter"]) == 0
    assert capsys.readouterr().out == "disconnected\n"


def test_oracle_count(files, capsys):
    assert main(["oracle", files("p3.txt", P3), "-k", "3", "--count"]) == 0
    assert capsys.readouterr().out == "12\n"


def test_oracle_distance(files, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    to = files("to.txt", "2 1 2\n")
    assert main(["oracle", graph, "-k", "3", "--distance", frm, to]) == 0
    assert capsys.readouterr().out == "4\n"


def test_oracle_cap_from_environment(files, capsys, monkeypatch):
    monkeypatch.setenv("RECOLOR_STATE_CAP", "10")
    assert main(["oracle", files("p3.txt", P3), "-k", "3", "--count"]) == 3


def test_oracle_cap_must_be_an_integer(files, capsys, monkeypatch):
    monkeypatch.setenv("RECOLOR_STATE_CAP", "1e6")
    assert main(["oracle", files("p3.txt", P3), "-k", "3", "--count"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: RECOLOR_STATE_CAP is not an integer: '1e6'"]


def test_oracle_diameter_cap_counts_colorings(files, capsys, monkeypatch):
    # k^n = 100 fits the cap, but one search per coloring charges 100 x 100.
    monkeypatch.setenv("RECOLOR_STATE_CAP", "1000")
    assert main(["oracle", files("g.txt", "2 0\n"), "-k", "10", "--diameter"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_oracle_distance_cap_counts_vertices(files, capsys, monkeypatch):
    # The search scans every vertex of every state, so it charges k^n x n:
    # the 10^7 states of `7 0` fit the default cap, 7 x 10^7 scans do not.
    frm, to = files("from.txt", "1 " * 7 + "\n"), files("to.txt", "2 " * 7 + "\n")
    assert main(["oracle", files("g.txt", "7 0\n"), "-k", "10", "--distance", frm, to]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: k^n x n = 10^7 x 7 states x vertices "
                            "exceed the state cap 10000000\n")
    # On `3 0`, 10^3 x 3 = 3000 is the smallest cap that answers.
    argv = ["oracle", files("g3.txt", "3 0\n"), "-k", "10", "--distance",
            files("from3.txt", "1 1 1\n"), files("to3.txt", "2 2 2\n")]
    monkeypatch.setenv("RECOLOR_STATE_CAP", "3000")
    assert main(argv) == 0
    assert capsys.readouterr().out == "3\n"
    monkeypatch.setenv("RECOLOR_STATE_CAP", "2999")
    assert main(argv) == 3


def test_oracle_diameter_cap_counts_vertices(files, capsys, monkeypatch):
    # Each of the diameter's searches scans every vertex of every state too:
    # on `7 0` with k = 3, 654 colorings x 3^7 x 7 scans exceed the default
    # cap, so the run stops at once instead of searching for tens of seconds.
    monkeypatch.delenv("RECOLOR_STATE_CAP", raising=False)
    assert main(["oracle", files("g.txt", "7 0\n"), "-k", "3", "--diameter"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: at least 654 colorings x k^n x n = 3^7 x 7 "
                            "states x vertices exceed the state cap 10000000\n")


def test_report_is_deterministic(files, tmp_path, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    to = files("to.txt", "2 1 2\n")
    path = tmp_path / "report.json"
    reports = []
    for _ in range(2):
        assert main(["recolor", graph, frm, to, "-k", "3", "-d", "2",
                     "--epsilon", "1/2", "--report", str(path)]) == 0
        reports.append(path.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    payload = json.loads(reports[0])
    assert payload["exit_status"] == 0
    assert payload["outputs"]["sequence_length"] == 4
    assert "mad" in payload["outputs"]
    assert set(payload["inputs"]) == {"graph", "from", "to"}


@pytest.mark.parametrize("argv, inputs, printed", [
    (["mad", "{graph}"], {"graph"}, lambda out: out["mad"]),
    (["partition", "{graph}", "-d", "2", "--epsilon", "1/2"], {"graph"},
     lambda out: f"{out['s']} {out['t']}"),
    (["verify", "{graph}", "{from}", "{sequence}", "-k", "3"], {"graph", "from", "sequence"},
     lambda out: "OK final=" + out["final"]),
    (["oracle", "{graph}", "-k", "3", "--distance", "{from}", "{to}"], {"graph", "from", "to"},
     lambda out: out["answer"]),
    (["oracle", "{graph}", "-k", "3", "--count"], {"graph"}, lambda out: out["answer"]),
    (["oracle", "{graph}", "-k", "3", "--diameter"], {"graph"}, lambda out: out["answer"]),
], ids=["mad", "partition", "verify", "oracle-distance", "oracle-count", "oracle-diameter"])
def test_report_of_every_subcommand(files, tmp_path, capsys, argv, inputs, printed):
    # The report names exactly the files the command read, and its outputs
    # say what the command printed (the first line, for a partition).
    paths = {"graph": files("p3.txt", P3), "from": files("from.txt", "1 2 1\n"),
             "to": files("to.txt", "2 1 2\n"), "sequence": files("seq.txt", "0 3\n")}
    path = tmp_path / "report.json"
    assert main([arg.format_map(paths) for arg in argv] + ["--report", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["exit_status"] == 0
    assert set(payload["inputs"]) == inputs
    assert printed(payload["outputs"]) == capsys.readouterr().out.splitlines()[0]


def test_report_written_on_an_unexpected_fault(files, tmp_path, capsys, monkeypatch):
    # A fault outside the typed errors propagates unchanged, after the
    # report is written with the exit status its traceback gives.
    fault = RuntimeError("fault in mad")

    def broken_mad(g):
        raise fault
    monkeypatch.setattr(cli, "mad_exact", broken_mad)
    path = tmp_path / "report.json"
    with pytest.raises(RuntimeError) as info:
        main(["recolor", files("p3.txt", P3), files("from.txt", "1 2 1\n"),
              files("to.txt", "2 1 2\n"), "-k", "3", "-d", "2", "--epsilon", "1/2",
              "--report", str(path)])
    assert info.value is fault
    payload = json.loads(path.read_text())
    assert payload["exit_status"] == 1
    assert payload["outputs"]["sequence_length"] == 4


def test_stdout_carries_only_the_answer(files, tmp_path, capsys):
    graph = files("p3.txt", P3)
    frm = files("from.txt", "1 2 1\n")
    to = files("to.txt", "2 1 2\n")
    assert main(["recolor", graph, frm, to, "-k", "3", "-d", "2",
                 "--epsilon", "1/2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "4\n"
    assert captured.err == ""


def test_one_parser_serves_every_call_in_a_process(files, tmp_path, capsys):
    # `main` builds its parser once per process. Each call in a run of mixed
    # commands must still give what it gives as the only call on a freshly
    # built parser: a failed parse, the flags of one call and the oracle's
    # mutually exclusive modes leave nothing behind for the next.
    graph = files("p3.txt", P3)
    frm, to = files("from.txt", "1 2 1\n"), files("to.txt", "2 1 2\n")
    seq, report = str(tmp_path / "seq.txt"), tmp_path / "report.json"
    calls = [
        ["oracle", graph, "-k", "3"],
        ["oracle", graph, "-k", "3", "--count"],
        ["oracle", graph, "-k", "3", "--distance", frm, to],
        ["recolor", graph, frm, to, "-k", "4", "--degenerate-fallback", "--out", seq],
        ["recolor", graph, frm, to, "-k", "3", "-d", "2", "--epsilon", "1/2",
         "--out", seq, "--report", str(report)],
        ["verify", graph, frm, seq, "-k", "3"],
    ]

    def run(argv):
        report.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        written = report.read_text() if report.exists() else None
        return code, captured.out, captured.err, written

    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(argv))
    assert alone[0][0] == ("SystemExit", 2)
    assert [outcome[0] for outcome in alone[1:]] == [0] * 5
    cli._build_parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert cli._build_parser.cache_info().misses == 1


# Runs in a fresh interpreter: this test process has long since loaded
# networkx through other tests. Each run records which watched modules are
# new since before `import recolorwalk.cli`, so one that the interpreter's
# `site` loads is not counted. Exact mad runs last: networkx, where it
# loads, brings dataclasses with it.
_IMPORT_GUARD = """
import contextlib, io, json, sys
before = set(sys.modules)
import recolorwalk.cli as cli

graph, frm, to, seq, report = sys.argv[1:]

def loaded():
    return sorted({"dataclasses", "hashlib", "networkx"} & set(sys.modules) - before)

record = {"import": loaded(), "runs": []}

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    record["runs"].append([argv[0], code, out.getvalue().strip(), loaded()])

run("partition", graph, "-d", "4", "--epsilon", "1/2")
run("recolor", graph, frm, to, "-k", "5", "--degenerate-fallback", "--out", seq)
run("verify", graph, frm, seq, "-k", "5")
run("oracle", graph, "-k", "5", "--distance", frm, to)
run("mad", graph, "--mode", "brute")
run("verify", graph, frm, seq, "-k", "5", "--report", report)
run("mad", graph)
print(json.dumps(record))
"""


def _guarded_runs(graph, frm, to, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, graph, frm, to, str(tmp_path / "seq.txt"),
         str(tmp_path / "report.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["import"] == []
    # Before exact mad, only the --report run loads a watched module: hashlib.
    *cheap, exact = record["runs"]
    assert [(name, code, loaded) for name, code, _, loaded in cheap] == [
        (name, 0, []) for name in ("partition", "recolor", "verify", "oracle", "mad")
    ] + [("verify", 0, ["hashlib"])]
    assert len(json.loads((tmp_path / "report.json").read_text())["inputs"]["sequence"]) == 64
    return cheap[4][2], exact


def test_networkx_loads_only_where_exact_mad_runs(files, tmp_path):
    # K4 with a pendant vertex: its densest part, the K4, is not the whole graph.
    graph = files("k4_pendant.txt", "5 7\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n")
    frm, to = files("from.txt", "1 2 3 4 1\n"), files("to.txt", "2 3 4 5 1\n")
    brute, (_, code, exact, loaded) = _guarded_runs(graph, frm, to, tmp_path)
    assert code == 0 and "networkx" in loaded
    assert exact == brute == "3/1"


def test_exact_mad_on_a_forest_leaves_networkx_unloaded(files, tmp_path):
    # A path is a forest: exact mad reads its largest tree and makes no cut.
    graph = files("p5.txt", "5 4\n0 1\n1 2\n2 3\n3 4\n")
    frm, to = files("from.txt", "1 2 3 4 1\n"), files("to.txt", "2 3 4 5 1\n")
    brute, exact = _guarded_runs(graph, frm, to, tmp_path)
    assert exact == ["mad", 0, brute, ["hashlib"]] and brute == "8/5"


def test_readme_cli_example_runs(tmp_path, capsys, monkeypatch):
    # The shell transcript under the README's "Examples:" runs as written:
    # each `printf ... > file` writes its file, and each `recolorwalk` line
    # runs through `main` and prints exactly the lines shown after it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = readme.split("\nExamples:\n", 1)[1]
    transcript = re.search(r"```sh\n(.*?)```", examples, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    runs = []
    for command in re.split(r"^\$ ", transcript, flags=re.MULTILINE)[1:]:
        line, *shown = command.splitlines()
        argv = shlex.split(line)
        if argv[0] == "printf":
            fmt, redirect, name = argv[1:]
            assert redirect == ">" and not shown, line
            (tmp_path / name).write_text(fmt.encode().decode("unicode_escape"))
            continue
        assert argv[0] == "recolorwalk", line
        assert main(argv[1:]) == 0, line
        assert capsys.readouterr().out.splitlines() == shown, line
        runs.append((argv[1], shown))
    assert runs == [("recolor", ["4"]), ("verify", ["OK final=2 1 2"]),
                    ("oracle", ["4"]), ("mad", ["4/3"])]

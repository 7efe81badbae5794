"""The sequence-file format: `recolor --out` writes it, `verify` reads it."""

import gc
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recolorwalk.cli as cli
import recolorwalk.graphs as graph_module
from recolorwalk import (
    Coloring,
    GraphFormatError,
    RecoloringSequence,
    SpecialISParams,
    build_degree_partition,
    recolor_between,
)
from recolorwalk.cli import main

import families

ALPHA = Coloring((1, 2, 1), 3)


def reference_parse_steps(text: str, alpha: Coloring) -> RecoloringSequence:
    # The line-by-line reader `_parse_steps` replaced, kept verbatim as the
    # reference its results and errors must match.
    vertices, new_colors = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            # Unpacking fails, as int() does, unless there are two fields.
            v, c = map(int, line.split())
        except ValueError:
            raise GraphFormatError("expected step 'vertex color'", line_no) from None
        vertices.append(v)
        new_colors.append(c)
    return RecoloringSequence(alpha, tuple(vertices), tuple(new_colors))


def outcome(parse, text):
    """(vertices, new_colors), or (line number, message) of the error."""
    try:
        seq = parse(text, ALPHA)
    except GraphFormatError as exc:
        return exc.line_no, str(exc)
    return seq.vertices, seq.new_colors


TOKENS = st.one_of(st.integers(0, 99).map(str), st.sampled_from(
    ["+3", "1_0", "-1", "007", "x", "1.5", "0x1", "#", "3#", "_1", "1__0"]))
SPACES = st.sampled_from([" ", "  ", "\t", " \t "])
LINES = st.one_of(
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(lambda vc: f"{vc[0]} {vc[1]}"),
    st.lists(TOKENS, min_size=1, max_size=3).flatmap(
        lambda fields: SPACES.map(lambda sep: sep.join(fields))),
    st.sampled_from(["", " ", "\t", "#", "# a comment", "  # indented", "\t#x 1",
                     "0 3 # mid-line", "0 #", " 4 5 "]),
)
SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", " "])


@st.composite
def sequence_texts(draw):
    lines = draw(st.lists(LINES, max_size=24))
    text = ""
    for line in lines:
        text += line + draw(SEPARATORS)
    return text if draw(st.booleans()) else text.rstrip("\n")


@settings(max_examples=400, deadline=None)
@given(sequence_texts(), st.sampled_from([1, 5, 16, 1 << 16]))
def test_parse_matches_the_line_reader(text, slice_chars):
    # Small slices put slice ends next to every kind of line and separator.
    with mock.patch.object(graph_module, "_SLICE_CHARS", slice_chars):
        assert outcome(cli._parse_steps, text) == outcome(reference_parse_steps, text)


def test_fault_in_the_last_of_several_slices():
    # Comments, blank lines and CRLF line ends in every slice; the one bad
    # line is in the last slice.
    body = "".join(f"{v % 1000} {v % 7 + 1}\r\n" if v % 50 else f"  # step {v}\n\n"
                   for v in range(30_000))
    text = body + "0 1 2\n5 6\n"
    assert len(body) > 2 * graph_module._SLICE_CHARS
    faulty_line = len(body.splitlines()) + 1
    expected = (faulty_line, f"line {faulty_line}: expected step 'vertex color'")
    assert outcome(reference_parse_steps, text) == expected
    assert outcome(cli._parse_steps, text) == expected
    assert outcome(cli._parse_steps, body) == outcome(reference_parse_steps, body)


def test_parse_peak_bytes_per_step():
    # The seeded 10,000-vertex tree's 12,403-step walk, read back from its
    # sequence file: the parse peaks at most at 80 traced bytes per step
    # (72.3 here). The 3000-vertex tree of the same seed walks only 3,595
    # steps, so short a text that the parse's fixed overhead dominates
    # (125 B/step).
    rng = random.Random(1000)
    g = families.random_tree(rng, 10_000)
    p = build_degree_partition(g, SpecialISParams(3, Fraction(1, 2)))
    alpha = families.random_proper_coloring(rng, g, 4)
    beta = families.random_proper_coloring(rng, g, 4)
    seq = recolor_between(g, p, alpha, beta, 4)
    assert len(seq.vertices) == 12_403
    text = "".join(f"{v} {c}\n" for v, c in zip(seq.vertices, seq.new_colors))
    gc.collect()
    tracemalloc.start()
    try:
        parsed = cli._parse_steps(text, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (parsed.vertices, parsed.new_colors) == (seq.vertices, seq.new_colors)
    assert peak / len(seq.vertices) <= 80


def test_writer_cost_does_not_follow_the_color_value(tmp_path, capsys):
    # A walk onto color 10^6: `--out` holds the reference "v c" lines, and
    # the writer's tables hold only the colors the walk writes.
    k = 10 ** 6
    p3 = families.path_graph(3)
    alpha, beta = Coloring((2, 1, 2), k), Coloring((1, k, 1), k)
    seq = recolor_between(p3, build_degree_partition(p3, SpecialISParams(2, Fraction(1, 2))),
                          alpha, beta, k)
    assert k in seq.new_colors
    reference = "".join(f"{v} {c}\n" for v, c in zip(seq.vertices, seq.new_colors))
    files = {}
    for name, text in (("g", "3 2\n0 1\n1 2\n"), ("from", "2 1 2\n"), ("to", f"1 {k} 1\n")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    out = tmp_path / "seq.txt"
    assert main(["recolor", str(files["g"]), str(files["from"]), str(files["to"]),
                 "-k", str(k), "-d", "2", "--epsilon", "1/2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{len(seq.vertices)}\n"
    assert out.read_bytes() == reference.encode()
    tracemalloc.start()
    try:
        assert cli._format_steps(seq, p3.n) == reference
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 12

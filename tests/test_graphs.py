import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recolorwalk.graphs as graph_module
from recolorwalk import (
    Coloring,
    Graph,
    GraphFormatError,
    ImproperInput,
    RecoloringSequence,
    SequenceViolation,
    StateSpaceTooLarge,
    degeneracy_ordering,
    mad_brute,
    mad_exact,
    parse_coloring,
    parse_graph,
    verify_sequence,
)
from recolorwalk.cli import main
from recolorwalk.graphs import check_coloring

import families
from families import serialize_graph
from test_sequence_file import LINES, SEPARATORS, SPACES, TOKENS


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return Graph.from_edges(n, edges)


def degeneracy_brute(g: Graph) -> int:
    """Largest minimum degree over all non-empty induced subgraphs."""
    best = 0
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            inside = set(subset)
            min_deg = min(
                sum(1 for w in g.adjacency[v] if w in inside) for v in subset)
            best = max(best, min_deg)
    return best


class TestParse:
    def test_smallest_path(self):
        g = parse_graph("3 2\n0 1\n1 2")
        assert g.n == 3 and g.m == 2
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_single_vertex(self):
        g = parse_graph("1 0")
        assert g.n == 1 and g.m == 0

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            parse_graph("2 1\n0 0")

    def test_duplicate_edge_is_an_error(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            parse_graph("3 2\n0 1\n0 1")

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("2 1\n0 5")

    def test_requires_u_smaller_than_v(self):
        with pytest.raises(GraphFormatError, match="0 <= u < v"):
            parse_graph("3 1\n2 1")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="expected 2 edges"):
            parse_graph("3 2\n0 1")
        with pytest.raises(GraphFormatError, match="more than 1"):
            parse_graph("3 1\n0 1\n1 2")

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphFormatError, match="at least 1"):
            parse_graph("0 0")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="missing header"):
            parse_graph("# nothing here\n")

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
        assert g.m == 2

    @pytest.mark.parametrize("text,message", [
        ("# n m\n3\n", "line 2: expected header 'n m'"),
        ("3 x\n", "line 1: expected header 'n m'"),
        ("3 -1\n", "line 1: edge count must be non-negative"),
        ("3 1\n0 1 2\n", "line 2: expected edge 'u v'"),
        ("3 1\n\n0 y\n", "line 3: expected edge 'u v'"),
        # A "#" after the first field does not start a comment.
        ("2 1\n0 1 # c\n", "line 2: expected edge 'u v'"),
    ])
    def test_malformed_lines(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("n,edges,message", [
        (0, [], "graph must have at least one vertex"),
        (3, [(0, 3)], "edge (0, 3) out of range"),
        (3, [(1, 1)], "self-loop at vertex 1"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    ])
    def test_from_edges_rejects(self, n, edges, message):
        # The library constructor checks its edges itself, apart from the parser.
        with pytest.raises(ValueError) as info:
            Graph.from_edges(n, edges)
        assert type(info.value) is ValueError and str(info.value) == message

    @settings(max_examples=60)
    @given(graphs())
    def test_serialize_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_parse_coloring(self):
        c = parse_coloring("1 2 1", 3, 3)
        assert c.colors == (1, 2, 1)
        with pytest.raises(GraphFormatError, match="expected 3 colors"):
            parse_coloring("1 2", 3, 3)
        with pytest.raises(GraphFormatError, match="outside 1..2"):
            parse_coloring("1 3 1", 3, 2)
        with pytest.raises(GraphFormatError, match="not an integer"):
            parse_coloring("1 x 1", 3, 3)


def reference_parse_coloring(text: str, n: int, k: int) -> Coloring:
    # The per-vertex reader `parse_coloring` replaced, kept as the reference
    # its results and errors must match; a bad token, or an out-of-range
    # color, past 40 characters is echoed as its first 40 and its length.
    # A palette with no colors is reported as such, before any vertex.
    fields = text.split()
    if len(fields) != n:
        raise GraphFormatError(f"expected {n} colors, found {len(fields)}")
    if k < 1:
        raise ValueError("palette size must be positive")
    colors = []
    for v, field in enumerate(fields):
        try:
            c = int(field)
        except ValueError:
            shown = repr(field) if len(field) <= 40 else \
                f"{field[:40]!r}... ({len(field)} characters)"
            raise GraphFormatError(
                f"color for vertex {v} is not an integer: {shown}") from None
        if not 1 <= c <= k:
            digits = str(c)
            shown = digits if len(digits) <= 40 else \
                f"{digits[:40]}... ({len(digits)} characters)"
            raise GraphFormatError(f"color {shown} for vertex {v} outside 1..{k}")
        colors.append(c)
    return Coloring(tuple(colors), k)


def coloring_outcome(parse, text, n, k):
    try:
        return parse(text, n, k)
    except (GraphFormatError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-1, 5).map(str), TOKENS), max_size=6),
       SPACES, st.integers(0, 4))
def test_parse_coloring_matches_the_per_vertex_reader(fields, space, k):
    # A bad color and a non-integer in one file: the error names the first
    # bad vertex, whichever fault it has.
    text = space.join(fields)
    assert coloring_outcome(parse_coloring, text, len(fields), k) == \
        coloring_outcome(reference_parse_coloring, text, len(fields), k)


@pytest.mark.parametrize("token", ["1" * 5000, "x" * 41, "x" * 40],
                         ids=["5000-digits", "41-chars", "40-chars"])
def test_parse_coloring_echoes_a_long_token_clipped(token):
    # A 5,000-digit color is past int()'s digit limit: the error names the
    # vertex and echoes at most 40 characters of the token.
    text = f"1 {token} 2"
    expected = coloring_outcome(reference_parse_coloring, text, 3, 4)
    assert coloring_outcome(parse_coloring, text, 3, 4) == expected
    message = expected[1]
    assert message.startswith("color for vertex 1 is not an integer: ")
    assert len(message) <= 120
    assert (f"({len(token)} characters)" in message) == (len(token) > 40)


@pytest.mark.parametrize("token", ["7" * 4000, "-" + "7" * 40, "7" * 40],
                         ids=["4000-digits", "41-chars", "40-chars"])
def test_parse_coloring_echoes_a_long_color_clipped(token):
    # A color that int() reads but the palette does not hold: the range
    # error echoes at most 40 characters of it too.
    text = f"1 {token} 2"
    expected = coloring_outcome(reference_parse_coloring, text, 3, 4)
    assert coloring_outcome(parse_coloring, text, 3, 4) == expected
    message = expected[1]
    assert message.startswith(f"color {token[:40]}") and message.endswith(
        " for vertex 1 outside 1..4")
    assert len(message) <= 120
    assert (f"({len(token)} characters)" in message) == (len(token) > 40)


def spelled(value: int):
    """Spellings that int() reads as `value`."""
    sign, digits = "-" if value < 0 else "", str(abs(value))
    spellings = [sign + digits, sign + "0" + digits, (sign or "+") + digits]
    if len(digits) > 1:
        spellings.append(f"{sign}{digits[0]}_{digits[1:]}")
    return st.sampled_from(spellings)


# Lines the line grammar skips: a well-formed file stays well formed with them.
SKIPPED_LINES = st.sampled_from(["", " ", "\t", "#", "# a comment", "  # indented", "\t#x 1",
                                 "#3 x y", " #"])


@st.composite
def graph_texts(draw):
    """Graph files near the format: a valid graph's lines, other spellings
    and spacings of its integers, up to two comment or blank lines, and up
    to two faults. A fault is graph specific (u >= v, an end out of range, a
    duplicate edge, a header m too small or too large, n below 1) or one of
    the sequence file's: a token that is no integer, or a comment, blank or
    malformed line."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [list(e) for e in draw(st.lists(st.sampled_from(pairs), unique=True))] \
        if pairs else []
    m = len(edges)
    faults = draw(st.lists(st.sampled_from(
        ["swap", "loop", "range", "duplicate", "m", "n", "token", "line"]), max_size=2))
    for fault in faults:
        if fault == "m":
            m += draw(st.sampled_from([-2, -1, 1, 2]))
        elif fault == "n":
            n = draw(st.integers(-1, 0))
        elif fault in ("token", "line") or not edges:
            continue
        elif fault == "duplicate":
            edge = draw(st.sampled_from(edges))
            edges.insert(draw(st.integers(0, len(edges))), list(edge))
            m += 1
        else:
            edge = draw(st.sampled_from(edges))
            if fault == "swap":
                edge.reverse()
            elif fault == "loop":
                edge[1] = edge[0]
            else:
                end = draw(st.integers(0, 1))
                edge[end] = draw(st.sampled_from([-2, -1] if end == 0 else [n, n + 3]))
    rows = [[draw(spelled(a)), draw(spelled(b))] for a, b in [[n, m], *edges]]
    for fault in faults:
        if fault == "token":
            draw(st.sampled_from(rows))[draw(st.integers(0, 1))] = draw(TOKENS)
    lines = [a + draw(SPACES) + b for a, b in rows]
    for _ in range(faults.count("line")):
        lines.insert(draw(st.integers(0, len(lines))), draw(LINES))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(SKIPPED_LINES))
    text = ""
    for line in lines:
        # Mostly "\n": a " " separator joins two lines into one bad line.
        text += line + draw(st.one_of(st.just("\n"), SEPARATORS))
    return text if draw(st.booleans()) else text.rstrip("\n")


def parse_outcome(parse, text):
    """The graph with its edges in input order, or (line number, message)."""
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return exc.line_no, str(exc)
    return g, g.us, g.vs


# A tree whose text (26 KB) spans two of `read_pairs`' slices.
TREE_3000 = serialize_graph(families.random_tree(random.Random(5), 3000))


class TestBulkParse:
    # `parse_graph` reads every text in bulk with `read_pairs`, comments
    # and all; `_read_graph_lines` is the line reader it falls back to, and
    # the reference it must match.
    @settings(max_examples=400, deadline=None)
    @given(graph_texts(), st.sampled_from([1, 5, 16, 1 << 16]))
    def test_matches_the_line_reader(self, text, slice_chars):
        # Small slices put slice ends next to every kind of line and comment.
        expected = parse_outcome(graph_module._read_graph_lines, text)
        with mock.patch.object(graph_module, "_SLICE_CHARS", slice_chars), \
                mock.patch.object(graph_module, "_read_graph_lines",
                                  wraps=graph_module._read_graph_lines) as line_reader:
            assert parse_outcome(parse_graph, text) == expected
        # The fallback is the reference, so equal outcomes alone cannot show
        # a text the bulk read rejected wrongly: a text the line reader
        # accepts must not reach it.
        assert line_reader.called != isinstance(expected[0], Graph)

    @pytest.mark.parametrize("text", [
        "3 2\n0 1\n1 2", "3 2\r\n\r\n0 1\r\n1 2\r\n", "1 0", " 4 1 \n\t2  3\n",
        "3 2\x0c0 1\x1c1 2\u2028", "+3 0_2\n00 1\n1 2\n",
        "# c\n3 2\n  # x\n0 1\n\t#\n1 2\n", "#\r\n1 0\r\n",
        # Explicit ids: a test id taken from a whole graph text runs to KBs.
        pytest.param(serialize_graph(families.random_tree(random.Random(3), 1000)),
                     id="tree-1000"),
        pytest.param(serialize_graph(families.random_graph(random.Random(4), 60, 0.3)),
                     id="gnp-60"),
        pytest.param("# a tree\n" + TREE_3000, id="commented-tree-3000"),
    ])
    def test_well_formed_text_never_reaches_the_line_reader(self, text):
        expected = graph_module._read_graph_lines(text)
        with mock.patch.object(graph_module, "_read_graph_lines",
                               side_effect=AssertionError("line reader ran")):
            g = parse_graph(text)
        assert (g, g.us, g.vs) == (expected, expected.us, expected.vs)

    @pytest.mark.parametrize("text", [
        "0 0\n", "-1 0\n", "3 -1\n", "3 1\n", "3 1\n0 1\n1 2\n", "3 1\n0 1\n0 1\n",
        "3 1\n1 0\n", "3 1\n1 1\n", "3 1\n-1 2\n", "3 1\n0 3\n", "3 2\n0 1\n0 1\n",
        "3 1\n0 1 2\n", "3 1\n0 x\n", "3 1\n0\n1\n", "\n\n", "3\n",
        # A duplicate of the first edge, in the tree's second slice.
        pytest.param(TREE_3000.replace(" 2999\n", " 3000\n", 1)
                     + TREE_3000.splitlines()[1] + "\n", id="tree-3000-duplicate"),
    ])
    def test_each_fault_falls_back_to_the_line_reader(self, text):
        # One fault in an otherwise well-formed file: the bulk read must
        # reject it, so the error is the line reader's.
        with pytest.raises(GraphFormatError) as expected:
            graph_module._read_graph_lines(text)
        with pytest.raises(GraphFormatError) as got:
            parse_graph(text)
        assert (got.value.line_no, str(got.value)) == \
            (expected.value.line_no, str(expected.value))

    def test_edges_keep_the_file_order(self):
        g = parse_graph("4 3\n2 3\n0 1\n1 3\n")
        assert (g.us, g.vs) == ((2, 0, 1), (3, 1, 3))
        assert list(g.edges()) == [(0, 1), (1, 3), (2, 3)]
        assert g == Graph.from_edges(4, [(1, 0), (3, 1), (2, 3)])


class TestProperness:
    # `check_coloring` returns None on a proper coloring and raises
    # ImproperInput when some edge is monochromatic.
    def test_path_examples(self):
        p3 = families.path_graph(3)
        assert check_coloring(p3, Coloring((1, 2, 1), 3), "c", 3) is None
        with pytest.raises(ImproperInput, match="^c is not a proper coloring$"):
            check_coloring(p3, Coloring((1, 1, 2), 3), "c", 3)

    def test_triangle(self):
        assert check_coloring(families.complete_graph(3), Coloring((1, 2, 3), 3), "c", 3) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            check_coloring(families.path_graph(3), Coloring((1, 2), 3), "c", 3)

    @pytest.mark.parametrize("colors,k,message", [
        ((), 0, "palette size must be positive"),
        ((1, 3, 1), 2, "vertex 1 has color 3 outside 1..2"),
        ((1, 0), 2, "vertex 1 has color 0 outside 1..2"),
    ])
    def test_coloring_rejects_its_palette(self, colors, k, message):
        with pytest.raises(ValueError) as info:
            Coloring(colors, k)
        assert type(info.value) is ValueError and str(info.value) == message

    @settings(max_examples=40)
    @given(graphs(max_n=6), st.randoms(use_true_random=False))
    def test_matches_direct_enumeration(self, g, rnd):
        colors = tuple(rnd.randint(1, 3) for _ in range(g.n))
        c = Coloring(colors, 3)
        direct = all(colors[u] != colors[v] for u, v in g.edges())
        if direct:
            assert check_coloring(g, c, "c", 3) is None
        else:
            with pytest.raises(ImproperInput):
                check_coloring(g, c, "c", 3)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_improper_start_names_the_lowest_edge(rnd):
    # Edges given in shuffled order, and to `from_edges` in either
    # orientation: the start check still names the lowest monochromatic edge
    # in ascending (u, v) order, and `check_coloring` raises for every
    # improper coloring, whichever way the graph was built.
    n = rnd.randint(2, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.5]
    rnd.shuffle(pairs)
    text = f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    built = Graph.from_edges(n, [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in pairs])
    colors = tuple(rnd.randint(1, 3) for _ in range(n))
    start = Coloring(colors, 3)
    lowest = min(((u, v) for u, v in pairs if colors[u] == colors[v]), default=None)
    for g in (parse_graph(text), built):
        if lowest is None:
            assert verify_sequence(g, RecoloringSequence(start, (), ())) == start
            assert check_coloring(g, start, "c", 3) is None
            continue
        with pytest.raises(SequenceViolation) as info:
            verify_sequence(g, RecoloringSequence(start, (), ()))
        assert info.value.step_index == -1
        assert str(info.value) == f"step -1: initial coloring improper on edge {lowest}"
        with pytest.raises(ImproperInput, match="^c is not a proper coloring$"):
            check_coloring(g, start, "c", 3)


def test_verify_exits_5_on_an_improper_start(tmp_path, capsys):
    # The graph file lists its edges out of order; the from coloring is
    # improper on (1, 2) and (3, 4).
    paths = {}
    for name, text in (("g", "5 4\n3 4\n0 1\n2 3\n1 2\n"), ("from", "1 2 2 1 1\n"),
                       ("seq", "")):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    g = parse_graph(paths["g"].read_text())
    start = parse_coloring(paths["from"].read_text(), g.n, 3)
    with pytest.raises(SequenceViolation, match=r"improper on edge \(1, 2\)$"):
        verify_sequence(g, RecoloringSequence(start, (), ()))
    assert main(["verify", str(paths["g"]), str(paths["from"]), str(paths["seq"]),
                 "-k", "3"]) == 5
    assert capsys.readouterr().err == "error: from is not a proper coloring\n"


class TestDegeneracy:
    def test_path_is_one_degenerate(self):
        assert degeneracy_ordering(families.path_graph(4))[1] == 1

    def test_complete_graph(self):
        assert degeneracy_ordering(families.complete_graph(4))[1] == 3

    def test_five_cycle_against_brute_force(self):
        c5 = families.cycle_graph(5)
        assert degeneracy_brute(c5) == 2
        assert degeneracy_ordering(c5)[1] == 2

    def test_ordering_property_and_minimality(self):
        rng = random.Random(7)
        for _ in range(40):
            g = families.random_graph(rng, rng.randint(1, 7), rng.random())
            ordering, degeneracy = degeneracy_ordering(g)
            position = {v: i for i, v in enumerate(ordering)}
            back = max(
                (sum(1 for w in g.adjacency[v] if position[w] < position[v])
                 for v in range(g.n)),
                default=0)
            assert back <= degeneracy
            assert degeneracy == degeneracy_brute(g)

    def test_agrees_with_the_quadratic_scan(self):
        # The heap must remove the same vertex as a full scan for the
        # smallest (degree, id), on random graphs, ties and complete graphs.
        rng = random.Random(182)
        cases = [families.random_graph(rng, rng.randint(1, 40), rng.random())
                 for _ in range(200)]
        cases += [families.empty_graph(9), families.cycle_graph(12),
                  families.star_graph(7), families.petersen_graph()]
        cases += [families.complete_graph(n) for n in range(1, 9)]
        for g in cases:
            assert degeneracy_ordering(g) == degeneracy_scan(g)


def degeneracy_scan(g: Graph) -> tuple[tuple[int, ...], int]:
    """Reference: scan every live vertex for the smallest (degree, id)."""
    degree = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    removal = []
    degeneracy = 0
    for _ in range(g.n):
        v = min((u for u in range(g.n) if alive[u]), key=lambda u: (degree[u], u))
        degeneracy = max(degeneracy, degree[v])
        alive[v] = False
        removal.append(v)
        for w in g.adjacency[v]:
            if alive[w]:
                degree[w] -= 1
    return tuple(reversed(removal)), degeneracy


class TestMad:
    def test_brute_trivial_values(self):
        assert mad_brute(families.path_graph(3)) == Fraction(4, 3)
        assert mad_brute(families.empty_graph(1)) == 0
        assert mad_brute(families.cycle_graph(4)) == 2

    def test_brute_cap(self):
        with pytest.raises(StateSpaceTooLarge):
            mad_brute(families.empty_graph(21))

    def test_exact_trivial_values(self):
        assert mad_exact(families.complete_graph(3)) == 2
        assert mad_exact(families.star_graph(3)) == Fraction(3, 2)

    def test_petersen(self):
        pet = families.petersen_graph()
        assert mad_brute(pet) == 3
        assert mad_exact(pet) == 3

    def test_exact_agrees_with_brute_on_random_sample(self):
        rng = random.Random(20240810)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 10)
            g = families.random_graph(rng, n, rng.random())
            assert mad_exact(g) == mad_brute(g)
            checked += 1

    # Named graphs: forests, whose largest tree decides, and graphs whose
    # densest part is their 2-core or lies inside it.
    NAMED = {
        "P3 and P5": (8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)], Fraction(8, 5)),
        "edge and isolated vertices": (4, [(1, 2)], 1),
        "star": (6, [(0, v) for v in range(1, 6)], Fraction(5, 3)),
        "K4 with a pendant path": (
            7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)], 3),
        "triangle and K4": (
            7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)], 3),
        # Hubs 0 and 1 joined by 0-2-1, 0-3-4-1 and 0-5-1, with trees hung
        # from 2 and 4; the theta alone is densest.
        "theta with pendant trees": (
            10, [(0, 2), (1, 2), (0, 3), (3, 4), (1, 4), (0, 5), (1, 5),
                 (2, 6), (6, 7), (6, 8), (4, 9)], Fraction(7, 3)),
        # 2-cores that are unions of cycles: every subgraph has e <= v.
        "C3 and C4": (7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)], 2),
        # A 5-cycle with a path hung from 0 and a star from 3.
        "cycle with pendant trees": (
            10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6),
                 (3, 7), (7, 8), (7, 9)], 2),
    }

    @pytest.mark.parametrize("name", NAMED)
    def test_exact_agrees_with_brute_on_named_graphs(self, name):
        n, edges, mad = self.NAMED[name]
        g = Graph.from_edges(n, edges)
        assert mad_exact(g) == mad_brute(g) == mad

    def test_exact_agrees_with_brute_on_trees_with_extra_edges(self):
        # Random trees with 0-3 extra edges and a pendant chain: forests,
        # cores with pendant trees and pure cores, which uniform-p graphs
        # rarely give.
        rng = random.Random(20261019)
        for _ in range(300):
            n = rng.randint(1, 9)
            edges = set(families.random_tree(rng, n).edges())
            for _ in range(rng.randint(0, 3) if n > 1 else 0):
                edges.add(tuple(sorted(rng.sample(range(n), 2))))
            chain = rng.randint(0, 3)
            edges.update((rng.randrange(n) if v == n else v - 1, v) for v in range(n, n + chain))
            g = Graph.from_edges(n + chain, edges)
            assert mad_exact(g) == mad_brute(g)

    @pytest.fixture
    def min_cuts(self, monkeypatch):
        # The networkx.minimum_cut calls made so far, counted the way the
        # benchmark counts them.
        import networkx
        calls = []
        minimum_cut = networkx.minimum_cut

        def counted_minimum_cut(*args, **kwargs):
            calls.append(args)
            return minimum_cut(*args, **kwargs)

        monkeypatch.setattr(networkx, "minimum_cut", counted_minimum_cut)
        return calls

    @pytest.mark.parametrize("name, cuts", [
        ("P3 and P5", 0), ("edge and isolated vertices", 0), ("star", 0),
        ("K4 with a pendant path", 1), ("theta with pendant trees", 1),
        ("C3 and C4", 0), ("cycle with pendant trees", 0)])
    def test_min_cuts_run_on_the_2_core_only(self, min_cuts, name, cuts):
        # A forest or a 2-core of cycles needs no cut. Any other graph whose
        # 2-core is its densest part needs one, the cut that finds nothing
        # denser than the core.
        n, edges, mad = self.NAMED[name]
        assert mad_exact(Graph.from_edges(n, edges)) == mad
        assert len(min_cuts) == cuts

    def test_large_tree_makes_no_cut(self, min_cuts):
        g = families.random_tree(random.Random(1000), 10_000)
        assert mad_exact(g) == Fraction(9_999, 5_000)
        assert min_cuts == []

    def test_degeneracy_density_band(self):
        rng = random.Random(99)
        for _ in range(60):
            g = families.random_graph(rng, rng.randint(1, 9), rng.random())
            degeneracy = degeneracy_ordering(g)[1]
            mad = mad_exact(g)
            assert degeneracy <= mad < 2 * (degeneracy + 1)

import re
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trisect import diagio
from trisect.ac import BalancedPresentation, ak_presentation
from trisect.catalog import (FIGURE_ONE, FIGURE_TWO, genus_one_diagram,
                             genus_zero_diagram)
from trisect.diagram import (HeegaardDiagram, TrisectionDiagram,
                             curve_from_template, curve_from_word,
                             standard_heegaard, system_from_templates)
from trisect.kirby import FramedComponent, HeegaardKirbyDiagram, LinkingMatrix
from trisect.moves import handleslide


def test_catalog_diagrams_round_trip_byte_stably():
    for name in FIGURE_ONE + FIGURE_TWO:
        t = genus_one_diagram(name)
        text = diagio.format_diagram(t)
        again = diagio.parse_diagram(text)
        assert again == t
        assert diagio.format_diagram(again) == text


def test_equal_systems_file_gives_the_s1xs3_pattern():
    text = ("trisection genus=1\n"
            "alpha: @1(1,0)\n"
            "beta: @1(1,0)\n"
            "gamma: @1(1,0)\n")
    t = diagio.parse_diagram(text)
    ref = genus_one_diagram("S1xS3")
    assert t.systems() == ref.systems()
    assert t.declared_params is None


def test_heegaard_round_trip():
    d = standard_heegaard(2, 1)
    text = diagio.format_diagram(d)
    assert text.startswith("heegaard genus=2\n")
    assert diagio.parse_diagram(text) == d
    assert diagio.format_diagram(diagio.parse_diagram(text)) == text


def test_heegaard_kirby_round_trip():
    H = HeegaardKirbyDiagram(
        1, standard_heegaard(1, 0),
        (FramedComponent(curve_from_template(1, 1, 1, 0)),), 1)
    text = diagio.format_diagram(H)
    assert "link: @1(1,0) framing=surface" in text
    assert "target m=1" in text
    assert diagio.parse_diagram(text) == H


def test_integer_framing_round_trip():
    H = HeegaardKirbyDiagram(
        1, standard_heegaard(1, 0),
        (FramedComponent(curve_from_template(1, 1, 1, 0), 3),), 0)
    text = diagio.format_diagram(H)
    assert "framing=3" in text
    assert diagio.parse_diagram(text) == H


def test_empty_link_is_omitted_from_output():
    H = HeegaardKirbyDiagram(1, standard_heegaard(1, 1), (), 1)
    text = diagio.format_diagram(H)
    assert "link:" not in text
    assert diagio.parse_diagram(text) == H


def test_word_curves_round_trip():
    alpha = system_from_templates(2, [(1, 1, 0), (2, 1, 0)])
    beta = diagio._parse_system(2, "x2 y2 X2 Y2 x1 ; @2(1,0)", 1, 1)
    t = TrisectionDiagram(2, alpha, beta, alpha)
    text = diagio.format_diagram(t)
    assert "x2 y2 X2 Y2 x1" in text
    assert diagio.parse_diagram(text) == t


def test_linking_round_trip():
    m = LinkingMatrix.from_rows([[0, 1, 2], [1, -1, 0], [2, 0, 5]])
    text = diagio.format_linking(m)
    assert diagio.parse_linking(text) == m
    assert diagio.format_linking(diagio.parse_linking(text)) == text


def test_presentation_round_trip():
    p = ak_presentation(2)
    text = diagio.format_presentation(p)
    assert diagio.parse_presentation(text) == p
    assert diagio.format_presentation(diagio.parse_presentation(text)) == text


def test_comments_and_blank_lines_are_ignored():
    text = ("# a catalog diagram\n"
            "\n"
            "trisection genus=1 params=(0,0,0)  # header\n"
            "alpha: @1(1,0)\n"
            "\n"
            "beta: @1(0,1)   # dual slope\n"
            "gamma: @1(1,1)\n")
    assert diagio.parse_diagram(text) == genus_one_diagram("CP2")


def test_sections_accepted_in_any_order():
    text = ("trisection genus=1\n"
            "gamma: @1(1,1)\n"
            "alpha: @1(1,0)\n"
            "beta: @1(0,1)\n")
    t = diagio.parse_diagram(text)
    assert t.alpha.curves[0].template.slope == (1, 0)
    assert t.gamma.curves[0].template.slope == (1, 1)


def test_sniff_kind():
    assert diagio.sniff_kind("# c\nlinking size=1\nrow: 0\n") == "linking"
    assert diagio.sniff_kind("trisection genus=1\n") == "trisection"
    assert diagio.sniff_kind("nonsense stuff\n") is None
    assert diagio.sniff_kind("   \n# only comments\n") is None


def test_parse_any_dispatches_on_header():
    assert isinstance(diagio.parse_any("linking size=1\nrow: 0\n"),
                      LinkingMatrix)
    assert isinstance(diagio.parse_any("presentation generators=0\n"),
                      type(ak_presentation(1)))
    assert isinstance(
        diagio.parse_any(diagio.format_diagram(standard_heegaard(1, 0))),
        HeegaardDiagram)


def _error(text):
    with pytest.raises(diagio.ParseError) as e:
        diagio.parse_any(text)
    return e.value


def test_non_coprime_slope_is_rejected_with_position():
    err = _error("trisection genus=1\n"
                 "alpha: @1(2,4)\n"
                 "beta: @1(0,1)\n"
                 "gamma: @1(1,1)\n")
    assert (err.line, err.col) == (2, 8)
    assert "not primitive" in err.message


def test_bad_letter_is_rejected_with_position():
    err = _error("heegaard genus=1\n"
                 "alpha: @1(1,0)\n"
                 "beta: x1 z3\n")
    assert (err.line, err.col) == (3, 10)


def test_letter_beyond_genus_is_rejected():
    err = _error("heegaard genus=1\nalpha: @1(1,0)\nbeta: y2\n")
    assert err.line == 3
    assert "exceeds genus" in err.message


def test_wrong_curve_count_is_rejected():
    err = _error("heegaard genus=1\nalpha: @1(1,0)\nbeta: @1(1,0) ; @1(0,1)\n")
    assert err.line == 3
    assert "exactly 1" in err.message


def test_non_lagrangian_system_is_rejected():
    # two curves meeting once cannot cut a handlebody
    err = _error("heegaard genus=2\n"
                 "alpha: @1(1,0) ; @1(0,1)\n"
                 "beta: @1(1,0) ; @2(1,0)\n")
    assert err.line == 2
    assert "cut system" in err.message or "isotropic" in err.message


def test_header_errors():
    assert "header" in _error("trisection genus=x\n").message
    assert "kind" in _error("triangulation genus=1\n").message
    assert "empty" in _error("# nothing here\n").message


def test_section_errors():
    assert "missing section" in _error("trisection genus=1\n"
                                       "alpha: @1(1,0)\n"
                                       "beta: @1(0,1)\n").message
    assert "duplicate" in _error("heegaard genus=1\n"
                                 "alpha: @1(1,0)\n"
                                 "alpha: @1(1,0)\n"
                                 "beta: @1(0,1)\n").message
    assert "unknown section" in _error("heegaard genus=1\n"
                                       "alpha: @1(1,0)\n"
                                       "delta: @1(0,1)\n").message


def test_declared_params_out_of_range_is_rejected():
    err = _error("trisection genus=1 params=(2,0,0)\n"
                 "alpha: @1(1,0)\nbeta: @1(0,1)\ngamma: @1(1,1)\n")
    assert "out of range" in err.message


def test_target_line_rules():
    assert "target" in _error("trisection genus=1\n"
                              "alpha: @1(1,0)\nbeta: @1(0,1)\n"
                              "gamma: @1(1,1)\ntarget m=0\n").message
    assert "target" in _error("heegaard-kirby genus=1\n"
                              "alpha: @1(1,0)\nbeta: @1(0,1)\n").message


def test_link_component_needs_framing():
    err = _error("heegaard-kirby genus=1\n"
                 "alpha: @1(1,0)\nbeta: @1(0,1)\n"
                 "link: @1(1,0)\ntarget m=1\n")
    assert "framing" in err.message


def test_linking_errors():
    assert "symmetric" in _error("linking size=2\nrow: 0 1\nrow: 2 0\n").message
    assert "expected 2" in _error("linking size=2\nrow: 0 1 5\nrow: 1 0\n").message
    assert "expected 2" in _error("linking size=2\nrow: 0 1\n").message
    assert "integers" in _error("linking size=1\nrow: x\n").message


def test_presentation_errors():
    err = _error("presentation generators=1\nrelator: x2\n")
    assert "exceeds generator count" in err.message
    err = _error("presentation generators=2\nrelator: x1\n")
    assert "balanced" in err.message


@pytest.mark.parametrize("text, want", [
    # an unknown relator token, on an indented line
    ("presentation generators=2\n  relator: x1 q2\nrelator: x2\n",
     (2, 15, "bad generator letter 'q2'")),
    ("presentation generators=2\nrelator: x1\nrelator: x2  X3\n",
     (3, 14, "letter X3 exceeds generator count 2")),
    ("linking size=2\nrow: 0 1\nrow: 1 y\n",
     (3, 1, "rows must be integers")),
    ("linking size=1\n  rows: 0\n",
     (2, 1, "expected a 'row: ...' line")),
])
def test_token_and_line_errors_keep_their_positions(text, want):
    err = _error(text)
    assert (err.line, err.col, err.message) == want


def test_parse_error_string_carries_position():
    err = _error("linking size=1\nrow: x\n")
    assert str(err).startswith("line 2, col 1:")


def test_genus_zero_diagrams_round_trip():
    t = genus_zero_diagram()
    text = diagio.format_diagram(t)
    assert diagio.parse_diagram(text) == t
    d = HeegaardDiagram(0, t.alpha, t.beta)
    assert diagio.parse_diagram(diagio.format_diagram(d)) == d
    H = HeegaardKirbyDiagram(0, d, (), 0)
    assert diagio.parse_diagram(diagio.format_diagram(H)) == H


def test_an_empty_system_above_genus_zero_is_a_positioned_error():
    err = _error("heegaard genus=1\nalpha:\nbeta: @1(0,1)\n")
    assert (err.line, err.col) == (2, 7)
    assert "exactly 1" in err.message


# -- property tests of the file grammar ---------------------------------------

_SLOPES = [(p, q) for p in range(-4, 5) for q in range(-4, 5)
           if gcd(p, q) == 1]


@st.composite
def _systems(draw, genus):
    """A cut system of one slope per handle, in a drawn handle order,
    with up to two slides that turn curves into word curves."""
    handles = draw(st.permutations(range(1, genus + 1)))
    cs = system_from_templates(genus, [(h,) + draw(st.sampled_from(_SLOPES))
                                       for h in handles])
    if genus >= 2:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.lists(st.integers(1, genus), min_size=2,
                                 max_size=2, unique=True))
            cs = handleslide(cs, i, j, sign=draw(st.sampled_from((1, -1))))
    return cs


@st.composite
def _trisections(draw):
    g = draw(st.integers(0, 4))
    declared = draw(st.none() | st.tuples(*[st.integers(0, g)] * 3))
    return TrisectionDiagram(g, draw(_systems(g)), draw(_systems(g)),
                             draw(_systems(g)), declared)


@st.composite
def _heegaard_kirby(draw):
    t = draw(_trisections())
    picks = draw(st.lists(st.integers(1, t.genus), unique=True,
                          max_size=t.genus)) if t.genus else []
    framings = st.just("surface") | st.integers(-9, 9)
    link = tuple(FramedComponent(t.gamma.curve(i), draw(framings))
                 for i in picks)
    return HeegaardKirbyDiagram(t.genus, HeegaardDiagram(t.genus, t.alpha,
                                                         t.beta),
                                link, draw(st.integers(0, 9)))


@st.composite
def _linking(draw):
    n = draw(st.integers(0, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-9, 9))
    return LinkingMatrix.from_rows(rows)


@st.composite
def _presentations(draw):
    n = draw(st.integers(0, 3))
    letter = st.sampled_from([v for k in range(1, n + 1) for v in (k, -k)])
    return BalancedPresentation(n, tuple(
        tuple(draw(st.lists(letter, max_size=6))) if n else ()
        for _ in range(n)))


_FILES = st.one_of(
    _trisections(),
    _trisections().map(lambda t: HeegaardDiagram(t.genus, t.alpha, t.beta)),
    _heegaard_kirby(), _linking(), _presentations())


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_FILES)
def test_format_parse_format_is_stable(obj):
    text = diagio.format_any(obj)
    assert diagio.format_any(diagio.parse_any(text)) == text
    assert diagio.kind_of(obj) == diagio.sniff_kind(text)


_MUTATION_CHARS = "0123456789 -,;:=@()#\nxyXYabgklmprs"


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_FILES, st.lists(st.tuples(st.sampled_from(("delete", "insert",
                                                   "swap")),
                                  st.integers(0, 10 ** 6),
                                  st.sampled_from(_MUTATION_CHARS)),
                        min_size=1, max_size=3))
def test_a_mutated_file_raises_only_parse_errors(obj, mutations):
    text = diagio.format_any(obj)
    for op, pos, ch in mutations:
        pos %= len(text) + 1
        if op == "delete":
            text = text[:pos] + text[pos + 1:]
        elif op == "insert":
            text = text[:pos] + ch + text[pos:]
        elif pos + 1 < len(text):
            text = text[:pos] + text[pos + 1] + text[pos] + text[pos + 2:]
    # a genus or size in the thousands is legal but slow; keep them small
    assume(all(int(n) <= 50 for n in re.findall(r"\d+", text)))
    try:
        diagio.parse_any(text)
    except diagio.ParseError:
        pass

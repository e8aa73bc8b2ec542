"""Random command lines never crash, and every report replays.

An ``ac-search`` example draws an input (``--ak N``, a small ``.pres``
file, both or neither), the three budgets (positive, zero, negative,
non-integer or missing, with ``--max-states`` at most 2,000 and ``--ak``
at most 3 so that every search stays small), ``--stable`` and stray
arguments.  An example of the diagram commands draws ``slide`` (curve
indices of any sign or type, a guide word, a sign, a system that may not
exist), ``stabilize --type``, ``tri-to-hk --picks`` or ``connect-sum``,
each on small catalog files of any kind.  An example of the other
commands draws ``catalog`` (a figure name, right or wrong),
``hk-to-tri`` or ``gprc-check`` (a file of the right kind or any other,
or none), an output path that may not be writable, and a dropped or
stray argument.  Every command line runs through ``cli.run_command`` in
process.  Exit code 5 (internal error) must never occur.  A report that
exits 0-2 must replay to the same exit code, from the files it names; a
``catalog`` report names none, so replay refuses it and the figure is
emitted again instead.

A ``replay`` example takes the report of one of a fixed set of commands
(verified, refuted and unknown; one input and two) and replays it with an
input missing, added, swapped, renamed or edited, from a truncated or
edited report (a character, or one field set to another value or
deleted), from a file that is not a report or does not exist, or with a
stray argument.  Replay never exits 5.  It exits 3 when the inputs do not
match the recorded digests, and when it confirms, it confirms the status
the report records, and a decided status only where the command decided
it.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from trisect import diagio
from trisect.ac import ak_presentation
from trisect.catalog import genus_one_diagram
from trisect.cli import EXIT_INTERNAL, run_command
from trisect.diagram import standard_heegaard
from trisect.moves import connected_sum

PRESENTATIONS = {
    "ak1.pres": "presentation generators=2\n"
                "relator: x2 x1 x2 X1 X2 X1\n"
                "relator: x1 x1 X2\n",
    "trivial.pres": "presentation generators=2\nrelator: x2\nrelator: x1\n",
    "det2.pres": "presentation generators=2\nrelator: x1 x1\nrelator: x2\n",
    "cube.pres": "presentation generators=1\nrelator: x1 x1 x1\n",
    "empty.pres": "presentation generators=0\n",
    "unreduced.pres": "presentation generators=2\n"
                      "relator: x1 x2 X1\nrelator: x1\n",
    "three.pres": "presentation generators=3\n"
                  "relator: x1 x2 X3 X1\nrelator: x2 x3\nrelator: x3 x1 X2\n",
}

NOT_INTEGERS = ["", "x", "1.5", "1e3", "--", "0x10", " 3"]
STRAY = ["--frobnicate", "-x", "--ak", "--max-states", "--stable", "--json",
         "extra.pres", "-1", "--", "7"]


def _value(draw, high):
    """A budget value: positive most of the time, else zero, negative or
    not an integer."""
    how = draw(st.sampled_from(("positive",) * 10 + ("low", "text")))
    if how == "positive":
        return str(draw(st.integers(1, high)))
    if how == "low":
        return str(draw(st.integers(-2, 0)))
    return draw(st.sampled_from(NOT_INTEGERS))


@st.composite
def command_lines(draw):
    """An ``ac-search`` argv and the presentation files it may read."""
    argv = ["ac-search"]
    files = {}
    source = draw(st.sampled_from(("ak",) * 3 + ("file",) * 3
                                  + ("both", "neither")))
    if source in ("ak", "both"):
        argv += ["--ak", _value(draw, 3)]
    if source in ("file", "both"):
        name = draw(st.sampled_from(sorted(PRESENTATIONS)))
        files[name] = PRESENTATIONS[name]
        argv.append(name)
    for flag, high in (("--max-length", 40), ("--max-depth", 25)):
        if draw(st.integers(0, 3)):
            argv += [flag, _value(draw, high)]
    # always given: the default state cap is ten times the fuzz's bound
    argv += ["--max-states", _value(draw, 2000)]
    if draw(st.booleans()):
        argv.append("--stable")
    if not draw(st.integers(0, 4)):
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(STRAY)))
    return argv + ["--json"], files


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_ac_search_command_lines_never_crash_and_their_reports_replay(
        tmp_path, monkeypatch, case):
    argv, files = case
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = _run(argv)
    assert code != EXIT_INTERNAL, (argv, err)
    event("exit %d" % code)
    if code not in (0, 1, 2):
        return
    doc = json.loads(out)
    (entry,) = doc["inputs"]
    label = entry["name"]
    if label.startswith("ak-"):
        label = "input.pres"
        (tmp_path / label).write_text(diagio.format_presentation(
            ak_presentation(int(entry["name"][3:]))))
    (tmp_path / "report.json").write_text(out)
    replay_code, _, replay_err = _run(["replay", "report.json", label])
    assert replay_code == code, (argv, replay_err)


DIAGRAM_FILES = {
    "cp2.tri": diagio.format_diagram(genus_one_diagram("CP2")),
    "s4.tri": diagio.format_diagram(genus_one_diagram("S4STAB3")),
    "sum.tri": diagio.format_diagram(connected_sum(
        genus_one_diagram("CP2"), genus_one_diagram("CP2R"))),
    "h.hee": diagio.format_diagram(standard_heegaard(2, 0)),
    "u.hkt": "heegaard-kirby genus=1\n"
             "alpha: @1(1,0)\n"
             "beta: @1(0,1)\n"
             "link: @1(1,0) framing=surface\n"
             "target m=1\n",
    "ak1.pres": PRESENTATIONS["ak1.pres"],
    "m.lnk": "linking size=1\nrow: 0\n",
}
# trisections most of the time (the genus-2 sum has two curves to slide),
# any other kind otherwise
DIAGRAMS = ["sum.tri"] * 4 + ["cp2.tri", "s4.tri"] * 2 + sorted(DIAGRAM_FILES)
SYSTEMS = ["alpha", "beta", "gamma"] * 3 + ["delta", ""]
GUIDES = ["", "x1", "Y1", "x1 y2", "y2 X1 x2", "x3", "x0", "q", "x1,y1"]
TYPES = ["1", "2", "3", "heegaard", "balanced", "0", "4", "x"]
PICKS = ["1:1"] * 4 + ["1:1,2:2"] * 2 + [
    "2:1", "1:2", "2:2", "1:1,1:1", "0:7", "-1:2", "1", ":", "", ",", "a:b",
    "1:1:1", " 1 : 1 "]


def _index(draw):
    """A curve index: small and positive most of the time, else zero,
    negative or not an integer."""
    how = draw(st.sampled_from(("small",) * 6 + ("low", "text")))
    if how == "small":
        return str(draw(st.integers(1, 3)))
    if how == "low":
        return str(draw(st.integers(-2, 0)))
    return draw(st.sampled_from(NOT_INTEGERS))


@st.composite
def diagram_command_lines(draw):
    """A ``slide``, ``stabilize``, ``tri-to-hk`` or ``connect-sum`` argv."""
    command = draw(st.sampled_from(("slide", "stabilize", "tri-to-hk",
                                    "connect-sum")))
    argv = [command, draw(st.sampled_from(DIAGRAMS))]
    if command == "connect-sum":
        argv.append(draw(st.sampled_from(DIAGRAMS)))
    elif command == "slide":
        argv += ["--system", draw(st.sampled_from(SYSTEMS)),
                 "--from", _index(draw), "--over", _index(draw)]
        if draw(st.booleans()):
            argv += ["--guide", draw(st.sampled_from(GUIDES))]
        if draw(st.booleans()):
            argv += ["--sign", draw(st.sampled_from(("+", "-", "x")))]
    elif command == "stabilize":
        argv += ["--type", draw(st.sampled_from(TYPES))]
    else:
        argv += ["--picks", draw(st.sampled_from(PICKS))]
    if not draw(st.integers(0, 3)):
        argv += ["-o", "out.txt"]
    if not draw(st.integers(0, 5)):
        # drop one argument (a required flag's value, perhaps) or add one
        k = draw(st.integers(1, len(argv) - 1))
        if draw(st.booleans()):
            del argv[k]
        else:
            argv.insert(k, draw(st.sampled_from(STRAY + ["cp2.tri"])))
    return argv + ["--json"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(diagram_command_lines())
def test_diagram_command_lines_never_crash_and_their_reports_replay(
        tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in DIAGRAM_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = _run(argv)
    assert code != EXIT_INTERNAL, (argv, err)
    event("%s exit %d" % (argv[0], code))
    if code not in (0, 1, 2):
        return
    doc = json.loads(out)
    (tmp_path / "report.json").write_text(out)
    inputs = [entry["name"] for entry in doc["inputs"]]
    replay_code, _, replay_err = _run(["replay", "report.json"] + inputs)
    assert replay_code == code, (argv, replay_err)


# besides u.hkt (the 0-framed unknot over S3, verified) and m.lnk
KIRBY_FILES = {
    # the unknot with a wrong target: refuted
    "m0.hkt": DIAGRAM_FILES["u.hkt"].replace("m=1", "m=0"),
    # a word-only link: unknown
    "word.hkt": DIAGRAM_FILES["u.hkt"].replace("@1(1,0) framing",
                                               "x1 framing"),
    # two crossing link components: refuted
    "cross.hkt": "heegaard-kirby genus=2\n"
                 "alpha: @1(1,0) ; @2(1,0)\n"
                 "beta: @1(0,1) ; @2(0,1)\n"
                 "link: @1(1,0) framing=surface ; @1(1,1) framing=surface\n"
                 "target m=2\n",
    "zero.lnk": "linking size=2\nrow: 0 0\nrow: 0 0\n",
    "hopf.lnk": "linking size=2\nrow: 0 1\nrow: 1 0\n",
    "five.lnk": "linking size=1\nrow: 5\n",
}
ALL_FILES = {**DIAGRAM_FILES, **KIRBY_FILES, **PRESENTATIONS}
HK_NAMES = ["u.hkt", "m0.hkt", "word.hkt", "cross.hkt"]
LINKING_NAMES = ["m.lnk", "zero.lnk", "hopf.lnk", "five.lnk"]
# the right kind most of the time, else any file or none at all
OTHER_INPUTS = {
    "hk-to-tri": HK_NAMES * 3 + sorted(ALL_FILES) + ["missing.hkt", "."],
    "gprc-check": LINKING_NAMES * 3 + sorted(ALL_FILES)
    + ["missing.lnk", "."],
    "catalog": ["figure1", "figure2"] * 4 + [
        "figure3", "Figure1", "figure", "", "cp2.tri"],
}
# a file, a file in a directory that does not exist, a directory
OUTPUTS = ["out.txt"] * 3 + ["no-such-dir/out.txt", "."]


def _write_files(tmp_path):
    for name, text in ALL_FILES.items():
        (tmp_path / name).write_text(text)


@st.composite
def other_command_lines(draw):
    """A ``catalog``, ``hk-to-tri`` or ``gprc-check`` argv."""
    command = draw(st.sampled_from(sorted(OTHER_INPUTS)))
    argv = [command, draw(st.sampled_from(OTHER_INPUTS[command]))]
    if not draw(st.integers(0, 3)):
        argv += ["-o", draw(st.sampled_from(OUTPUTS))]
    if not draw(st.integers(0, 4)):
        # drop one argument (the input, perhaps) or add one
        k = draw(st.integers(1, len(argv) - 1))
        if draw(st.booleans()):
            del argv[k]
        else:
            argv.insert(k, draw(st.sampled_from(STRAY + ["u.hkt", "figure2"])))
    return argv + ["--json"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(other_command_lines())
def test_other_command_lines_never_crash_and_their_reports_replay(
        tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    code, out, err = _run(argv)
    assert code != EXIT_INTERNAL, (argv, err)
    event("%s exit %d" % (argv[0], code))
    if code not in (0, 1, 2):
        return
    doc = json.loads(out)
    (tmp_path / "report.json").write_text(out)
    inputs = [entry["name"] for entry in doc["inputs"]]
    replay_code, _, replay_err = _run(["replay", "report.json"] + inputs)
    if argv[0] == "catalog":
        # a catalog report names no input, so replay refuses it (exit 3);
        # its figure is checked by emitting it again
        assert (code, inputs, replay_code) == (0, [], 3), (argv, replay_err)
        figure = doc["verdict"]["witness"]["args"]["figure"]
        again = json.loads(_run(["catalog", figure, "--json"])[1])
        assert again["verdict"]["witness"] == doc["verdict"]["witness"]
    else:
        assert replay_code == code, (argv, replay_err)


# commands whose reports replay from their input files, with the exit code
# each gives: verified, refuted and unknown, one and two inputs
REPORTED = [
    (["classify", "sum.tri"], 0),
    (["validate", "s4.tri"], 0),
    (["connect-sum", "cp2.tri", "s4.tri"], 0),
    (["connect-sum", "cp2.tri", "cp2.tri"], 0),
    (["slide", "sum.tri", "--system", "alpha", "--from", "1", "--over", "2"],
     0),
    (["tri-to-hk", "cp2.tri", "--picks", "1:1"], 0),
    (["hk-to-tri", "u.hkt"], 0),
    (["hk-to-tri", "m0.hkt"], 1),
    (["hk-to-tri", "word.hkt"], 2),
    (["gprc-check", "zero.lnk"], 0),
    (["gprc-check", "hopf.lnk"], 1),
    (["ac-search", "ak1.pres", "--max-states", "500"], 0),
    (["ac-search", "det2.pres"], 1),
    (["ac-search", "ak1.pres", "--max-states", "5"], 2),
]
STATUS_CODES = {"verified": 0, "refuted": 1, "unknown": 2}
REPLACEMENTS = ['"', "{", "}", "[", "]", ",", ":", "0", "1", "-", "a", "x",
                " ", "\\", "e", "null"]
JSON_VALUES = [None, 0, 1, -1, "", "x", [], {}, [1, 2], True, "verified",
               "refuted", "unknown"]


@st.composite
def replay_cases(draw):
    """A report's source command and how its replay is tampered with:
    ``(k, how, detail)``."""
    k = draw(st.integers(0, len(REPORTED) - 1))
    how = draw(st.sampled_from(
        ("as is", "renamed input", "missing input", "extra input",
         "swapped inputs", "edited input", "truncated report",
         "edited report", "edited report", "edited field", "edited field",
         "no report file", "input as report", "stray")))
    if how == "edited field":
        # a field path into the report, then its new value
        detail = (draw(st.sampled_from(
            (("verdict", "status"), ("verdict", "witness"),
             ("verdict", "witness", "kind"), ("verdict", "witness", "*"),
             ("verdict",), ("inputs",), ("inputs", 0, "sha256"),
             ("operation",), ("payload",), ("payload", "*")))),
            draw(st.sampled_from(JSON_VALUES)), draw(st.booleans()))
    elif how == "edited report":
        detail = (draw(st.floats(0, 1, exclude_max=True)),
                  draw(st.sampled_from(REPLACEMENTS)))
    else:
        detail = (draw(st.floats(0, 1, exclude_max=True)),
                  draw(st.sampled_from(STRAY + ["cp2.tri"])))
    return k, how, detail


def _edit_field(doc, path, value, delete):
    """Set (or delete) the report's field at ``path``, where ``*`` is the
    first key of a dict; False when there is no such field."""
    *steps, last = path
    node = doc
    try:
        for step in steps:
            node = node[step]
        if last == "*":
            last = min(node)
        if delete:
            del node[last]
        else:
            node[last] = value
    except (KeyError, IndexError, TypeError, ValueError):
        return False
    return True


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(replay_cases())
def test_tampered_replays_never_crash_and_never_confirm_other_inputs(
        tmp_path, monkeypatch, case):
    k, how, detail = case
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    argv, want = REPORTED[k]
    code, out, err = _run(argv + ["--json"])
    assert code == want, (argv, err)
    doc = json.loads(out)
    inputs = [entry["name"] for entry in doc["inputs"]]
    report = out
    expect = None  # the exit code replay must give, when it is known
    if how == "renamed input":
        # the digest pins the content, not the name
        (tmp_path / "renamed").write_text(ALL_FILES[inputs[0]])
        inputs[0] = "renamed"
        expect = code
    elif how == "missing input":
        del inputs[int(detail[0] * len(inputs))]
        expect = 3
    elif how == "extra input":
        inputs.insert(int(detail[0] * (len(inputs) + 1)), "cp2.tri")
        expect = 3
    elif how == "swapped inputs":
        inputs.reverse()
        same = len({ALL_FILES[name] for name in inputs}) == 1
        expect = code if same else 3
    elif how == "edited input":
        i = int(detail[0] * len(inputs))
        text = ALL_FILES[inputs[i]]
        (tmp_path / "edited").write_text("# edited\n" + text)
        inputs[i] = "edited"
        expect = 3
    elif how == "truncated report":
        report = out[:int(detail[0] * len(out))]
    elif how == "edited report":
        at = int(detail[0] * len(out))
        report = out[:at] + detail[1] + out[at + 1:]
    elif how == "edited field":
        path, value, delete = detail
        if not _edit_field(doc, path, value, delete):
            return
        report = json.dumps(doc)
    (tmp_path / "report.json").write_text(report)
    rargv = ["replay", "report.json"] + inputs
    if how == "no report file":
        rargv[1] = "no-such-report.json"
        expect = 4
    elif how == "input as report":
        rargv[1] = inputs[0]
        expect = 4
    elif how == "stray":
        rargv.insert(1 + int(detail[0] * len(rargv)), detail[1])
    replay_code, replay_out, replay_err = _run(rargv)
    assert replay_code != EXIT_INTERNAL, (argv, how, detail, replay_err)
    event("%s: exit %d" % (how, replay_code))
    if expect is not None:
        assert replay_code == expect, (argv, how, detail, replay_err)
    if how == "as is":
        assert replay_code == code
    if replay_code in (0, 1, 2):
        # a replay confirms the status its report records, and a verified
        # or refuted one only where the command itself decided so
        try:
            status = json.loads(report)["verdict"]["status"]
        except (ValueError, KeyError, TypeError):
            status = None
        assert STATUS_CODES.get(status) == replay_code, \
            (argv, how, detail, replay_out)
        assert replay_code in (code, 2), (argv, how, detail, replay_out)

"""Random command lines never crash, and every report replays.

An ``ac-search`` example draws an input (``--ak N``, a small ``.pres``
file, both or neither), the three budgets (positive, zero, negative,
non-integer or missing, with ``--max-states`` at most 2,000 and ``--ak``
at most 3 so that every search stays small), ``--stable`` and stray
arguments.  An example of the diagram commands draws ``slide`` (curve
indices of any sign or type, a guide word, a sign, a system that may not
exist), ``stabilize --type``, ``tri-to-hk --picks`` or ``connect-sum``,
each on small catalog files of any kind.  Every command line runs
through ``cli.run_command`` in process.  Exit code 5 (internal error)
must never occur.  A report that exits 0-2 must replay to the same exit
code, from the files it names.
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

"""Random ``ac-search`` command lines never crash, and every report replays.

Each example draws an input (``--ak N``, a small ``.pres`` file, both or
neither), the three budgets (positive, zero, negative, non-integer or
missing, with ``--max-states`` at most 2,000 and ``--ak`` at most 3 so
that every search stays small), ``--stable`` and stray arguments, and
runs the command line through ``cli.run_command`` in process.  Exit code
5 (internal error) must never occur.  A report that exits 0-2 must replay
to the same exit code, from the presentation it names.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from trisect import diagio
from trisect.ac import ak_presentation
from trisect.cli import EXIT_INTERNAL, run_command

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

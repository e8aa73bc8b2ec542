"""Mutated input files never crash a command, and every report replays.

Valid ``.tri``, ``.hkt``, ``.lnk`` and ``.pres`` files are mutated by
deleting or duplicating lines, replacing tokens and changing numbers,
then run through ``cli.run_command`` in process.  Exit code 5 (internal
error) must never occur: bad input is a usage error (3) or a parse error
(4).  A report that exits 0-2 with a verdict must replay to the same exit
code; one without a verdict (``invariants`` on a linking matrix or a
presentation) exits 0 and has nothing to replay.
"""

import contextlib
import io
import json
import re

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from trisect import diagio
from trisect.cli import EXIT_INTERNAL, run_command

SEEDS = {
    "sum.tri": "trisection genus=2 params=(1,1,1)\n"
               "alpha: @1(1,0) ; @2(1,0)\n"
               "beta: @1(0,1) ; @2(1,0)\n"
               "gamma: @1(1,1) ; @2(1,0)\n",
    "words.tri": "trisection genus=2\n"
                 "alpha: @1(1,0) ; x2 X1\n"
                 "beta: @1(1,0) ; @2(0,1)\n"
                 "gamma: @1(0,1) ; @2(1,1)\n",
    "unknot.hkt": "heegaard-kirby genus=2\n"
                  "alpha: @1(1,0) ; @2(1,0)\n"
                  "beta: @1(1,0) ; @2(0,1)\n"
                  "link: @2(1,0) framing=surface\n"
                  "target m=2\n",
    "framed.hkt": "heegaard-kirby genus=1\n"
                  "alpha: @1(1,0)\n"
                  "beta: @1(1,0)\n"
                  "link: @1(0,1) framing=-1\n"
                  "target m=1\n",
    # integer-framed over an S3 background, where the framing caveat
    # leaves the homology undecided and target m= mutations reach
    # hk-to-tri's assembly
    "s3-framed.hkt": "heegaard-kirby genus=1\n"
                     "alpha: @1(1,0)\n"
                     "beta: @1(0,1)\n"
                     "link: @1(1,0) framing=-1\n"
                     "target m=1\n",
    "hopf.lnk": "linking size=2\nrow: 0 1\nrow: 1 0\n",
    "framed.lnk": "linking size=3\nrow: 1 0 2\nrow: 0 0 1\nrow: 2 1 -1\n",
    "ak1.pres": "presentation generators=2\n"
                "relator: x2 x1 x2 X1 X2 X1\n"
                "relator: x1 x1 X2\n",
    "ak2.pres": "presentation generators=2\n"
                "relator: x2 x1 x2 X1 X2 X1\n"
                "relator: x1 x1 x1 X2 X2\n",
    "det2.pres": "presentation generators=2\nrelator: x1 x1\nrelator: x2\n",
}

VALIDATE, INVARIANTS = ["validate"], ["invariants"]
AC_SEARCH = ["ac-search", "--max-states", "300"]
# the commands that read each seed's kind; any command may meet any file
COMMANDS = {
    "tri": [VALIDATE, INVARIANTS, ["classify"]],
    "hkt": [VALIDATE, INVARIANTS, ["hk-to-tri"]],
    "lnk": [INVARIANTS, ["gprc-check"]],
    "pres": [INVARIANTS, AC_SEARCH],
}
ALL_COMMANDS = [VALIDATE, INVARIANTS, ["classify"], ["hk-to-tri"],
                ["gprc-check"], AC_SEARCH]

TOKENS = ["x1", "X1", "y1", "x2", "X2", "Y2", "x3", "@1(1,0)", "@2(0,1)",
          "@3(2,1)", "@0(1,0)", "@1(0,0)", "@1(2,4)", ";", ":", "(", ")",
          "genus=3", "params=(0,0,0)", "framing=surface", "framing=x",
          "relator:", "row:", "link:", "target", "m=", "0", "-1", "#", ""]

_NUMBER = re.compile(r"-?\d+")


@st.composite
def mutated(draw):
    """A seed name, its mutated text and a command to run on it."""
    name = draw(st.sampled_from(sorted(SEEDS)))
    command = draw(st.sampled_from(COMMANDS[name.split(".")[1]])
                   | st.sampled_from(ALL_COMMANDS))
    lines = SEEDS[name].splitlines()
    for _ in range(draw(st.integers(1, 2))):
        # a changed number keeps a file parseable more often than the
        # other mutations, so it is drawn as often as all of them together
        op = draw(st.sampled_from(["delete", "duplicate", "token", "number",
                                   "number", "number"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "token":
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
        else:
            spans = [m.span() for m in _NUMBER.finditer(lines[i])]
            if spans:
                lo, hi = spans[draw(st.integers(0, len(spans) - 1))]
                value = draw(st.integers(-2, 3) | st.integers(-70, 70))
                lines[i] = lines[i][:lo] + str(value) + lines[i][hi:]
    return name, "\n".join(lines) + "\n", command


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=800, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated())
def test_mutated_files_never_crash_and_their_reports_replay(tmp_path, case):
    name, text, command = case
    path = tmp_path / name
    path.write_text(text)
    code, out, err = _run(command + [str(path), "--json"])
    assert code != EXIT_INTERNAL, (text, command, err)
    event("exit %d" % code)
    if code not in (0, 1, 2):
        return
    doc = json.loads(out)
    if doc["verdict"] is None:
        assert code == 0
        return
    report = tmp_path / (name + ".json")
    report.write_text(out)
    replay_code, _, replay_err = _run(["replay", str(report), str(path)])
    assert replay_code == code, (text, command, replay_err)


def test_the_seed_files_parse():
    for text in SEEDS.values():
        assert diagio.format_any(diagio.parse_any(text)).strip() == \
            text.strip()

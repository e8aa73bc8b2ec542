"""Each trisect command loads only the engine modules its code path runs.

Every case starts a fresh interpreter that calls
``trisect.cli.run_command`` and lists the ``trisect.*`` modules loaded
afterwards.  A command and the replay of its report must leave the
modules named in the case unloaded, and the replay must exit with the
code of the recorded status.  Neither may load ``dataclasses`` or
``inspect``: the engine's value classes are built on ``verdict.Frozen``,
and those two modules alone would cost every process several
milliseconds of start-up.  Importing ``trisect.cli`` alone may load
nothing beyond six ``trisect`` modules and the standard modules of the
benchmark's process probe.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trisect
from trisect import diagio
from trisect.ac import BalancedPresentation, ak_presentation
from trisect.catalog import genus_one_diagram
from trisect.diagram import (HeegaardDiagram, curve_from_template,
                             standard_heegaard, system_from_templates)
from trisect.kirby import FramedComponent, HeegaardKirbyDiagram, LinkingMatrix
from trisect.moves import connected_sum

SRC = str(Path(trisect.__file__).resolve().parent.parent)
EXIT_FOR_STATUS = {"verified": 0, "refuted": 1, "unknown": 2}

PROBE = """
import contextlib, io, json, sys
import trisect.cli
argv = json.loads(sys.argv[1])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = trisect.cli.run_command(argv)
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "modules": sorted(name.split(".", 1)[1]
                                    for name in sys.modules
                                    if name.startswith("trisect.")),
                  "heavy": sorted(set(sys.modules) & {"dataclasses",
                                                      "inspect"})}))
"""


def _fresh(argv):
    """Exit code, standard output, loaded engine modules and loaded heavy
    standard modules of one run."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _cp2_s1xs3():
    return connected_sum(genus_one_diagram("CP2"), genus_one_diagram("S1xS3"))


def _unknot_over_s1xs2():
    link = (FramedComponent(curve_from_template(2, 2, 1, 0)),)
    return HeegaardKirbyDiagram(2, standard_heegaard(2, 1), link, 2)


def _crossing_link():
    link = tuple(FramedComponent(curve_from_template(2, 1, p, q))
                 for p, q in ((1, 0), (1, 1)))
    return HeegaardKirbyDiagram(2, standard_heegaard(2, 0), link, 2)


def _lens_space():
    d = standard_heegaard(1, 0)
    return HeegaardDiagram(1, d.alpha, system_from_templates(1, [(1, 1, 2)]))


TRI_ONLY = {"ac", "catalog", "kirby", "moves"}
BRIDGE = {"ac", "catalog", "moves"}
LINKING = BRIDGE | {"diagram", "homology", "presentations"}
AC_ONLY = {"catalog", "diagram", "homology", "kirby", "moves",
           "presentations"}

# (command and its flags, input file name, input object, status it
# answers, modules that neither the command nor its replay may load)
CASES = [
    ("ac-search", "ak1.pres", ak_presentation(1), "verified", AC_ONLY),
    ("ac-search", "det2.pres", BalancedPresentation(2, ((1, 1), (2,))),
     "refuted", AC_ONLY),
    ("validate", "sum.tri", _cp2_s1xs3(), "verified", TRI_ONLY),
    ("invariants", "sum.tri", _cp2_s1xs3(), "verified", TRI_ONLY),
    ("classify", "sum.tri", _cp2_s1xs3(), "verified", {"ac", "kirby"}),
    ("gprc-check", "zero.lnk", LinkingMatrix.zero(2), "verified", LINKING),
    ("gprc-check", "hopf.lnk", LinkingMatrix.from_rows([[0, 1], [1, 0]]),
     "refuted", LINKING),
    ("hk-to-tri", "unknot.hkt", _unknot_over_s1xs2(), "verified", BRIDGE),
    ("tri-to-hk --picks 1:1", "s4stab3.tri", genus_one_diagram("S4STAB3"),
     "verified", BRIDGE),
    ("validate", "cross.hkt", _crossing_link(), "refuted", BRIDGE),
    ("validate", "lens.heeg", _lens_space(), "refuted", TRI_ONLY),
]


# the standard modules of the benchmark's process probe, which scales its
# process times, so that whatever start-up costs beyond them is the
# engine's own
IMPORT_PROBE = """
import json, sys
import argparse, collections, dataclasses, hashlib, re, __future__
known = set(sys.modules)
import trisect.cli
print(json.dumps(sorted(set(sys.modules) - known)))
"""


def test_importing_the_cli_loads_no_engine_module():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "trisect", "trisect.cli", "trisect.diagio", "trisect.reports",
        "trisect.verdict", "trisect.words"]


@pytest.mark.parametrize(
    "command,name,obj,status,unloaded", CASES,
    ids=["%s-%s" % (case[0].split()[0], case[1]) for case in CASES])
def test_a_command_and_its_replay_load_only_their_modules(
        tmp_path, command, name, obj, status, unloaded):
    path = tmp_path / name
    path.write_text(diagio.format_any(obj))
    command, *flags = command.split()
    made = _fresh([command, str(path)] + flags + ["--json"])
    doc = json.loads(made["stdout"])
    assert doc["verdict"]["status"] == status
    assert made["code"] == EXIT_FOR_STATUS[status]
    assert unloaded.isdisjoint(made["modules"]), made["modules"]
    assert made["heavy"] == []

    report = tmp_path / (name + ".json")
    report.write_text(made["stdout"])
    replayed = _fresh(["replay", str(report), str(path)])
    assert replayed["code"] == EXIT_FOR_STATUS[status]
    assert unloaded.isdisjoint(replayed["modules"]), replayed["modules"]
    assert replayed["heavy"] == []

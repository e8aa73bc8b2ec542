"""The four benchmark workloads: seeded case generators, runners and checks.

Every case carries its known answer, fixed by how the case was built:

* ``ac-ak``: AC-trivial by construction (the AK(n) members are named
  cases whose answer is "not refuted": their exponent determinant is 1);
* ``std-plain`` / ``std-guided``: the summand multiset of the catalog sum
  that was scrambled;
* ``cli-replay``: the exit codes the producer command may give, and the
  classification name where the command names one.

The in-process workloads draw their scrambles from a fixed pool, and the
seed draws each case's presentation: curve order and orientation for a
diagram; relabeling, relator order, rotation and inversion for a
presentation.  Seeds then change every input but not the mix of search
difficulties.  With fresh scrambles per seed, the median and 90th
percentile of 100-300 cases moved by 13-60% from seed to seed, more than
any bound the benchmark could hold.  ``cli-replay`` does the same: the
seed reorders link components and permutes linking matrices as well.

A workload object has ``setup(seed, seconds, workdir) -> cases``,
``run(case) -> outcome`` (the timed call), ``check(case, outcome) ->
problem or None`` and ``counters(outcomes) -> dict``.  Outcomes hold the
verdict status and witness (for the digest) and ``verdict_s``, the time
from the case's start to its verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

from trisect import (ac, catalog, cli, diagio, diagram, kirby, moves, reports,
                     words)

EXIT_FOR_STATUS = {"verified": 0, "refuted": 1, "unknown": 2}

# catalog summands that keep the first parameter at g-1 or above; sums are
# drawn as in the standardization acceptance criterion
HIGH = ("S1xS3", "S4STAB1")
LOW = ("CP2", "CP2R", "S4STAB2", "S4STAB3")

MIN_CASES = 100  # so that ten verdict times lie beyond the 90th percentile

clock = time.perf_counter


def rounds_for(seconds, per_round, rounds_per_second):
    """Case rounds for a run of ``seconds``; a fixed function of the
    arguments, so the case list never depends on machine speed."""
    floor = -(-MIN_CASES // per_round)
    return max(floor, round(seconds * rounds_per_second))


def sum_of(names):
    t = catalog.genus_one_diagram(names[0])
    for name in names[1:]:
        t = moves.connected_sum(t, catalog.genus_one_diagram(name))
    return t


def catalog_summands(rng, g):
    names = [rng.choice(HIGH) for _ in range(g)]
    if rng.random() < 0.5:
        names[rng.randrange(g)] = rng.choice(LOW)
    return names


def scrambled(t, rng, slides, guided):
    """Slide-scramble every system; a guided slide uses a random surface
    word of length 2-3 as its guide."""
    systems = []
    for cs in t.systems():
        cur = cs
        for _ in range(slides):
            i = rng.randrange(1, cur.genus + 1)
            j = rng.randrange(1, cur.genus + 1)
            while j == i:
                j = rng.randrange(1, cur.genus + 1)
            guide = ()
            if guided:
                guide = tuple(rng.choice((1, -1))
                              * rng.randrange(1, 2 * cur.genus + 1)
                              for _ in range(rng.randrange(2, 4)))
            cur = moves.handleslide(cur, i, j, guide=guide,
                                    sign=rng.choice((1, -1)))
        systems.append(cur)
    return diagram.TrisectionDiagram(t.genus, *systems,
                                     declared_params=t.declared_params)


def ac_scramble(rng, n, multiplies, min_length, max_length):
    """A balanced presentation reached from the trivial one by random
    multiplies, inversions and conjugations, so AC-trivial by
    construction; redrawn until its total length is in the range."""
    while True:
        p = ac.trivial_presentation(n)
        for _ in range(multiplies):
            i = rng.randrange(1, n + 1)
            j = rng.randrange(1, n + 1)
            while j == i:
                j = rng.randrange(1, n + 1)
            if rng.random() < 0.5:
                p = ac.apply_ac_move(p, ("invert", j))
            if rng.random() < 0.5:
                p = ac.apply_ac_move(p, ("conjugate", i, rng.randrange(1, n + 1),
                                         rng.choice((1, -1))))
            p = ac.apply_ac_move(p, ("multiply", i, j))
        if min_length <= p.total_length() <= max_length \
                and not p.is_trivial_form():
            return p


def ac_image(rng, p):
    """``p`` under a random choice of the symmetries the search quotients
    out: a signed relabeling of the generators, relator order, rotation
    and inversion.  Each is an isomorphism or an AC move, so the image is
    AC-trivial exactly when ``p`` is."""
    n = p.generators
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    table = {g: (rng.choice((1, -1)) * perm[g - 1],) for g in range(1, n + 1)}
    rels = []
    for r in p.relators:
        w = words.map_letters(r, table)
        k = rng.randrange(len(w)) if w else 0
        w = w[k:] + w[:k]
        rels.append(words.inverse(w) if rng.random() < 0.5 else w)
    rng.shuffle(rels)
    return ac.BalancedPresentation(n, tuple(rels))


def diagram_image(rng, t):
    """``t`` with the curves of each system in a random order and random
    orientations: the same cut systems, so the same summands."""
    systems = []
    for cs in t.systems():
        curves = []
        for c in cs.curves:
            if rng.random() < 0.5:
                if c.template is None:
                    c = diagram.curve_from_word(t.genus, words.inverse(c.word))
                else:
                    c = diagram.curve_from_template(
                        t.genus, c.template.handle, -c.template.p,
                        -c.template.q)
            curves.append(c)
        rng.shuffle(curves)
        systems.append(diagram.CutSystem(t.genus, tuple(curves)))
    return diagram.TrisectionDiagram(t.genus, *systems,
                                     declared_params=t.declared_params)


def slide_count(tree):
    """Handleslides recorded in a decomposition tree."""
    if not isinstance(tree, dict):
        return 0
    total = 0
    if tree.get("op") == "unscramble":
        total += sum(len(script) for script in tree["slides"].values())
    for key in ("next", "left_tree", "right_tree", "next_tree"):
        total += slide_count(tree.get(key))
    return total


def replay_problem(obj, status, witness):
    """The engine's own witness replay; None when it confirms."""
    if status == "unknown":
        return None
    try:
        reports.replay_verdict((obj,), {"status": status,
                                        "witness": witness})
    except reports.ReplayError as e:
        return "witness does not replay: %s" % e
    return None


# -- ac-ak ---------------------------------------------------------------------

AC_MAX_LENGTH = 32
AC_MAX_DEPTH = 20
AK3_STATE_CAP = 5000
SCRAMBLE_STATE_CAP = 2000
# (generators, multiplies, total length range, scrambles per round)
AC_SCRAMBLES = ((2, 4, (1, 12), 1), (3, 2, (8, 10), 4))


class AcAk:
    name = "ac-ak"
    in_process = True

    def setup(self, seed, seconds, workdir):
        pool_rng = random.Random("ac-ak:pool")
        rng = random.Random("ac-ak:%d" % seed)
        per_round = sum(k for *_, k in AC_SCRAMBLES)
        cases = [
            {"id": "AK(1)", "p": ac.ak_presentation(1), "stable": False,
             "cap": ac.DEFAULT_MAX_STATES},
            {"id": "AK(2)", "p": ac.ak_presentation(2), "stable": False,
             "cap": ac.DEFAULT_MAX_STATES},
            {"id": "stable AK(2)", "p": ac.ak_presentation(2),
             "stable": True, "cap": ac.DEFAULT_MAX_STATES},
            {"id": "AK(3)", "p": ac.ak_presentation(3), "stable": False,
             "cap": AK3_STATE_CAP},
        ]
        for r in range(rounds_for(seconds, per_round, 2.7)):
            for n, mults, (lo, hi), count in AC_SCRAMBLES:
                for k in range(count):
                    p = ac_scramble(pool_rng, n, mults, lo, hi)
                    cases.append({"id": "scramble n=%d #%d.%d" % (n, r, k),
                                  "p": ac_image(rng, p), "stable": False,
                                  "cap": SCRAMBLE_STATE_CAP})
        return cases

    def run(self, case):
        start = clock()
        res = ac.ac_search(case["p"], AC_MAX_LENGTH, AC_MAX_DEPTH,
                           stable=case["stable"], max_states=case["cap"])
        elapsed = clock() - start
        v = res.verdict
        return {"status": v.status, "witness": v.witness, "verdict_s": elapsed,
                "stats": res.stats}

    def check(self, case, out):
        if out["status"] == "refuted":
            return "refuted an AC-trivial presentation"
        return replay_problem(case["p"], out["status"], out["witness"])

    def counters(self, outcomes):
        got = Counter()
        for out in outcomes:
            for key in ("visited", "stored", "pruned_length"):
                got["ac." + key] += out.get("stats", {}).get(key, 0)
        return dict(got)


# -- std-plain / std-guided ------------------------------------------------------

GENERA = tuple(range(2, 13))


class Standardize:
    in_process = True

    def __init__(self, name, guided, rounds_per_second):
        self.name = name
        self.guided = guided
        self.rounds_per_second = rounds_per_second

    def setup(self, seed, seconds, workdir):
        pool_rng = random.Random("%s:pool" % self.name)
        rng = random.Random("%s:%d" % (self.name, seed))
        cases = []
        for r in range(rounds_for(seconds, len(GENERA),
                                  self.rounds_per_second)):
            for g in GENERA:
                names = catalog_summands(pool_rng, g)
                t = scrambled(sum_of(names), pool_rng,
                              pool_rng.randrange(1, 7), self.guided)
                cases.append({"id": "g=%d #%d" % (g, r),
                              "t": diagram_image(rng, t),
                              "names": sorted(names)})
        return cases

    def run(self, case):
        start = clock()
        found, v = moves.standardize(case["t"])
        elapsed = clock() - start
        return {"status": v.status, "witness": v.witness, "verdict_s": elapsed,
                "found": sorted(found)}

    def check(self, case, out):
        if out["status"] == "refuted":
            return "refuted a catalog sum"
        if out["status"] == "verified" and out["found"] != case["names"]:
            return "found %s, built from %s" % (out["found"], case["names"])
        return replay_problem(case["t"], out["status"], out["witness"])

    def counters(self, outcomes):
        return {"moves.decomposition_slides": sum(
            slide_count((out.get("witness") or {}).get("tree"))
            for out in outcomes if out.get("status") == "verified")}


# -- cli-replay ------------------------------------------------------------------

CLI_AC_BUDGET = ["--max-length", "16", "--max-depth", "8",
                 "--max-states", "2000"]


def trisect_argv():
    """The trisect command; run.py puts the engine on PYTHONPATH."""
    return [sys.executable, "-m", "trisect.cli"]


def hk_case(rng):
    """A surface-framed unlink over a (g,k)-standard background.  The
    surgery target is m = k + c; one in four cases declares a wrong m,
    which the surgered homology refutes."""
    g = rng.randrange(1, 5)
    k = rng.randrange(0, g + 1)
    free = list(range(k + 1, g + 1))
    handles = sorted(rng.sample(free, rng.randrange(0, len(free) + 1)))
    link = tuple(kirby.FramedComponent(diagram.curve_from_template(g, h, 1, 0))
                 for h in handles)
    m = k + len(handles)
    wrong = rng.random() < 0.25
    if wrong:
        m += rng.choice((1, 2)) if m == 0 else rng.choice((-1, 1))
    H = kirby.HeegaardKirbyDiagram(g, diagram.standard_heegaard(g, k), link, m)
    return H, ([1] if wrong else [0, 2])


def linking_case(rng):
    """Zero matrices pass the check; any nonzero entry refutes it."""
    n = rng.randrange(1, 5)
    if rng.random() < 0.5:
        return kirby.LinkingMatrix.zero(n), [0]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(-2, 3)
    if all(v == 0 for r in rows for v in r):
        rows[0][0] = 1
    return kirby.LinkingMatrix.from_rows(rows), [1]


def presentation_case(rng):
    """An AC scramble of the trivial presentation, or one whose exponent
    matrix has determinant 2, which the search refutes outright."""
    if rng.random() < 0.75:
        return ac_scramble(rng, 2, 2, 1, 8), [0, 2]
    return ac.BalancedPresentation(2, ((1, 1), (2,))), [1]


class CliReplay:
    name = "cli-replay"
    in_process = False
    per_round = 6

    def setup(self, seed, seconds, workdir):
        pool_rng = random.Random("cli-replay:pool")
        rng = random.Random("cli-replay:%d" % seed)
        cases = []

        def add(cid, command, obj, expect, ext, name=None):
            path = os.path.join(workdir, "%s.%s" % (cid, ext))
            with open(path, "w", encoding="utf-8") as f:
                f.write(diagio.format_any(obj))
            cases.append({"id": cid, "argv": [command, path],
                          "inputs": [path], "expect": expect, "name": name,
                          "report": os.path.join(workdir, cid + ".json")})

        for r in range(rounds_for(seconds, self.per_round, 1.0)):
            for command in ("validate", "invariants", "classify"):
                g = pool_rng.randrange(2, 9)
                names = catalog_summands(pool_rng, g)
                t = scrambled(sum_of(names), pool_rng,
                              pool_rng.randrange(1, 5), False)
                add("%s-%d" % (command, r), command, diagram_image(rng, t),
                    [0, 2], "tri",
                    moves.sum_name(names) if command == "classify" else None)
            H, expect = hk_case(pool_rng)
            link = tuple(rng.sample(H.link, len(H.link)))
            add("hk-to-tri-%d" % r, "hk-to-tri",
                kirby.HeegaardKirbyDiagram(H.genus, H.background, link, H.m),
                expect, "hkt")
            m, expect = linking_case(pool_rng)
            order = rng.sample(range(m.size), m.size)
            add("gprc-check-%d" % r, "gprc-check",
                kirby.LinkingMatrix.from_rows(
                    [[m.rows[i][j] for j in order] for i in order]),
                expect, "lnk")
            p, expect = presentation_case(pool_rng)
            add("ac-search-%d" % r, "ac-search", ac_image(rng, p), expect,
                "pres")
            cases[-1]["argv"] += CLI_AC_BUDGET
        return cases

    def warm_up(self):
        """One untimed process, so the first timed one does not pay for
        cold file caches."""
        subprocess.run(trisect_argv() + ["catalog", "figure1", "--json"],
                       capture_output=True, timeout=120, check=True)

    def run(self, case):
        start = clock()
        prod = subprocess.run(trisect_argv() + case["argv"] + ["--json"],
                              capture_output=True, text=True, timeout=120)
        verdict_s = clock() - start
        with open(case["report"], "w", encoding="utf-8") as f:
            f.write(prod.stdout)
        start = clock()
        rep = subprocess.run(trisect_argv() + ["replay", case["report"]]
                             + case["inputs"], capture_output=True,
                             text=True, timeout=120)
        replay_s = clock() - start
        return self._outcome(prod.returncode, prod.stdout, rep.returncode,
                             verdict_s, replay_s)

    def run_in_process(self, case):
        """The same argv through ``trisect.cli.run_command``."""
        start = clock()
        code, text = _captured(case["argv"] + ["--json"])
        verdict_s = clock() - start
        with open(case["report"], "w", encoding="utf-8") as f:
            f.write(text)
        start = clock()
        rcode, _ = _captured(["replay", case["report"]] + case["inputs"])
        replay_s = clock() - start
        return self._outcome(code, text, rcode, verdict_s, replay_s)

    @staticmethod
    def _outcome(code, text, replay_code, verdict_s, replay_s):
        doc = json.loads(text)
        v = doc["verdict"]
        return {"status": v["status"], "witness": v["witness"],
                "verdict_s": verdict_s, "replay_s": replay_s,
                "exit": code, "replay_exit": replay_code,
                "payload": doc["payload"]}

    def check(self, case, out):
        want = EXIT_FOR_STATUS[out["status"]]
        if out["exit"] not in case["expect"]:
            return "exit %d, expected one of %s" % (out["exit"],
                                                   case["expect"])
        if out["exit"] != want:
            return "exit %d for a %s report" % (out["exit"], out["status"])
        if out["replay_exit"] != want:
            return "replay exit %d for a %s report" % (out["replay_exit"],
                                                       out["status"])
        if case["name"] is not None and out["status"] == "verified" \
                and out["payload"].get("name") != case["name"]:
            return "named %r, built as %r" % (out["payload"].get("name"),
                                              case["name"])
        return None

    def counters(self, outcomes):
        got = Counter()
        for out in outcomes:
            payload = out.get("payload", {})
            witness = out.get("witness") or {}
            got["ac.visited"] += payload.get("visited", 0)
            got["ac.stored"] += payload.get("stored", 0)
            got["moves.decomposition_slides"] += slide_count(
                witness.get("tree"))
            for pair in witness.get("pairs") or []:
                got["presentations.tietze_trace_moves"] += \
                    len(pair.get("trace", []))
        return dict(got)


def _captured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (
    AcAk(),
    Standardize("std-plain", False, 2.0),
    Standardize("std-guided", True, 1.6),
    CliReplay(),
)}

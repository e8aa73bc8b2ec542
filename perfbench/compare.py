"""Compare benchmark result files, or check the spread of one set.

    python3 perfbench/compare.py BASE [NEW]

BASE and NEW are result files or directories of them (``run.py`` keeps
them under ``.perfbench/results/``).  Untraced runs give the end-to-end
numbers; traced runs are used only for the drift check.

* Drift: runs with the same workload, seed and seconds must have
  byte-identical verdict digests and counters, within a side and across
  sides.  Any difference is a failure.
* With NEW: for each workload and end-to-end metric, the change of the
  median against the metric's bound in BENCHMARK.json.  A metric whose
  run-to-run spread (interquartile distance over median) exceeds its
  bound on either side is unresolved, unless every NEW run beats every
  BASE run.
* With BASE alone: each metric's median and spread, flagged when the
  spread is above a third of its bound.

Exit code 1 on drift, a failed check or a regression beyond a bound,
else 0.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    out = []
    for name in files:
        with open(name, encoding="utf-8") as f:
            out.append(json.load(f))
    return out


def spread(values):
    """Interquartile distance over the median; None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(runs):
    """Messages for runs of one (workload, seed, seconds) that disagree."""
    groups = {}
    for r in runs:
        key = (r["workload"], r["seed"], r["seconds"])
        groups.setdefault(key, []).append(r)
    out = []
    for key, group in sorted(groups.items()):
        first = group[0]
        for r in group[1:]:
            for field in ("verdict_digest", "counters", "statuses"):
                if r[field] != first[field]:
                    out.append("%s seed %d: %s differs" % (key[0], key[1],
                                                           field))
    return out


def by_workload(runs):
    out = {}
    for r in runs:
        if not r["trace"]:
            out.setdefault(r["workload"], []).append(r)
    return out


def fmt(x):
    return "-" if x is None else "%.3f" % x


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sides = [load(p) for p in argv]
    problems = drift([r for side in sides for r in side])
    problems += ["%s seed %d: %d failed checks" % (r["workload"], r["seed"],
                                                   len(r["failures"]))
                 for side in sides for r in side if r["failures"]]
    bad = False

    base = by_workload(sides[0])
    new = by_workload(sides[1]) if len(sides) == 2 else None
    for workload in sorted(base):
        runs_b = base[workload]
        runs_n = (new or {}).get(workload, [])
        print("%s: %d base runs%s" % (workload, len(runs_b),
              "" if new is None else ", %d new runs" % len(runs_n)))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vb = [r["metrics"][name] for r in runs_b]
            sb = spread(vb)
            if new is None:
                flag = ""
                if sb is not None and name != "setup_s":
                    flag = "  over bound" if sb > bound else \
                        "  over a third of bound" if sb > bound / 3 else ""
                print("  %-16s median %12.4f %-5s spread %s (bound %.2f)%s"
                      % (name, statistics.median(vb), m["unit"], fmt(sb),
                         bound, flag))
                continue
            if not runs_n:
                continue
            vn = [r["metrics"][name] for r in runs_n]
            sn = spread(vn)
            mb, mn = statistics.median(vb), statistics.median(vn)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mn - mb) / mb
            all_better = all(sign * (x - y) < 0 for x in vn for y in vb)
            if all_better:
                verdict = "better"
            elif (sb or 0) > bound or (sn or 0) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                bad = True
            else:
                verdict = "within bound"
            print("  %-16s %12.4f -> %12.4f %-5s %+7.1f%% worse "
                  "(bound %.0f%%, spreads %s / %s) %s"
                  % (name, mb, mn, m["unit"], 100 * worse, 100 * bound,
                     fmt(sb), fmt(sn), verdict))
        line = "  %-16s %s" % ("failed_ratio", fmt(statistics.median(
            r["failed_ratio"] for r in runs_b)))
        if runs_n:
            line += " -> %s" % fmt(statistics.median(r["failed_ratio"]
                                                     for r in runs_n))
        print(line)
    for p in problems:
        print("DRIFT %s" % p)
    return 1 if problems or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

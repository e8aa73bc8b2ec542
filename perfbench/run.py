"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run happens in a fresh child
process (``worker.py``), so module state never carries over from one run
to the next and ``peak_rss_mb`` is that process's own peak.  The result
is kept under ``.perfbench/results/``; the report is printed by name and
unit, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "trisect", "cli.py")):
        fail("no trisect sources under %s" % os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    workdir = os.path.join(STATE, "work", str(os.getpid()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out, "--workdir", workdir]
    # its own process group, so a timeout also stops the trisect processes
    # the worker started
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the run took longer than %d s" % WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not os.path.isfile(out):
        fail("the worker exited with code %d" % code)
    with open(out, encoding="utf-8") as f:
        result = json.load(f)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["per_layer"] if args.trace else result["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in source]
    if missing:
        fail("the run did not measure %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in listed}

    print("workload %s  seed %d  seconds %d  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("cases %d  verdict samples %d  statuses %s" % (
        result["attempted"], result["samples"],
        json.dumps(result["statuses"], sort_keys=True)))
    for name, m in metrics.items():
        print("  %-44s %14.6f %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("raw, before speed scaling (the speed probe took %.4f ms, "
              "reference %.1f ms):" % (result["speed_probe_ms"],
                                       result["speed_ref_ms"]))
        for name, value in sorted(result["raw_metrics"].items()):
            print("  %-44s %14.6f %s" % (name, value, metrics[name]["unit"]))
        print("  %-44s %14.6f %s" % ("failed_ratio", result["failed_ratio"],
                                      "ratio"))
    print("verdict_digest %s" % result["verdict_digest"])
    print("counters %s" % json.dumps(result["counters"], sort_keys=True))
    for line in result["failures"][:20]:
        print("FAILED %s" % line)
    print("result file %s" % os.path.relpath(out, ROOT))
    print(json.dumps({"correct": not result["failures"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

"""One benchmark run in a fresh process; ``run.py`` starts it.

Set-up (five fresh-process imports of the engine and three case
generations; the two medians are summed), the timed closed loop over the
case list, the correctness gate, and with ``--trace 1`` a traced pass
over the same cases.  The result goes to the JSON file named by
``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

SETUP_REPEATS = 3
IMPORT_PROBES = 5

# The host of a small VM changes speed by 20-40% over seconds to minutes,
# in wall and CPU time alike, which is more than any bound could absorb.
# So a speed probe runs before each case, and each measured time is
# scaled by the probe's reference time over the median probe time around
# it: the end-to-end times read as on a machine where the probe takes its
# reference time (about what it takes on the 2-vCPU Xeon VM the benchmark
# was defined on).  In-process work is probed by a fixed pure-Python
# loop, process-bound work by an interpreter that imports the standard
# modules the engine imports.  Host slow-downs hit process start-up harder
# than loops (x1.8 against x1.5 in one measured phase change), and a
# bare interpreter start tracks a trisect process less closely than one
# with imports does (their ratio varied by 10% and 5%), so each kind of
# work has its own probe.  Raw times are kept next to the scaled ones.
LOOP_ITERATIONS = 10000
LOOP_REF_MS = 1.0
PROCESS_REF_MS = 90.0
PROCESS_PROBE = "import argparse, collections, dataclasses, hashlib, json, re"
PROBE_WINDOW = 5
PROCESS_PROBE_EVERY = 3
LOOP_PASSES_AFTER_SETUP = 5


def loop_pass_ms():
    """One pass of the speed loop: tuples and a small dict, like the
    engine's own work."""
    start = clock()
    table = {}
    chain = ()
    for i in range(LOOP_ITERATIONS):
        chain = (i, chain) if i % 7 else ()
        table[i & 255] = chain
    return (clock() - start) * 1e3


def process_pass_ms():
    """Start and wait for an interpreter that imports what the engine
    imports from the standard library."""
    start = clock()
    subprocess.run([sys.executable, "-c", PROCESS_PROBE], check=True,
                   timeout=60)
    return (clock() - start) * 1e3


def speed_factors(passes, count, ref_ms, every):
    """Per-case scale: the reference over the median of the probes taken
    near the case.  ``passes`` holds (case index, probe ms) pairs."""
    factors = []
    for i in range(count):
        near = [ms for idx, ms in passes
                if abs(idx - i) <= PROBE_WINDOW * every]
        factors.append(ref_ms / statistics.median(near))
    return factors


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest(cases, outcomes):
    """sha256 over the canonical JSON of every case's status and witness."""
    rows = [[case["id"], out.get("status"), out.get("witness")]
            for case, out in zip(cases, outcomes)]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_phase(wl, cases, runner, tracer=None, probe=None, every=1):
    """Closed loop: each case starts when the previous verdict is in.
    Returns the outcomes, the wall time (the sum of the case times), the
    speed-probe times and the failure messages."""
    outcomes = []
    passes = []
    for idx, case in enumerate(cases):
        if tracer is not None:
            tracer.case = idx
        if probe is not None and idx % every == 0:
            passes.append((idx, probe()))
        start = clock()
        try:
            out = runner(case)
        except Exception as e:  # a crash is a failed case, not a dead run
            out = {"error": "%s: %r" % (type(e).__name__, e)}
        out["case_s"] = clock() - start
        outcomes.append(out)
    wall = sum(out["case_s"] for out in outcomes)
    if tracer is not None:
        tracer.mark_verdicts_done()
    failures = []
    for idx, (case, out) in enumerate(zip(cases, outcomes)):
        if tracer is not None:
            tracer.case = idx
        problem = out.get("error")
        if problem is None:
            try:
                problem = wl.check(case, out)
            except Exception as e:
                problem = "check raised %s: %r" % (type(e).__name__, e)
        if problem is not None:
            failures.append("%s: %s" % (case["id"], problem))
    return {"outcomes": outcomes, "wall_s": wall, "failures": failures,
            "digest": digest(cases, outcomes), "passes": passes}


def verdict_times_ms(phase, key="verdict_s"):
    return [out[key] * 1e3 for out in phase["outcomes"] if key in out]


def import_probes():
    """Times of fresh ``python -c "import trisect.cli"`` processes, each
    with a process probe before it; returns both medians.  The engine is
    found through the PYTHONPATH that run.py sets."""
    times, passes = [], []
    for _ in range(IMPORT_PROBES):
        passes.append(process_pass_ms())
        start = clock()
        subprocess.run([sys.executable, "-c", "import trisect.cli"],
                       check=True, timeout=60)
        times.append((clock() - start) * 1e3)
    return statistics.median(times), statistics.median(passes)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    import_ms, import_pass_ms = import_probes()

    os.makedirs(args.workdir, exist_ok=True)
    gen_times, gen_scaled = [], []
    fingerprints = set()
    for _ in range(SETUP_REPEATS):
        start = clock()
        cases = wl.setup(args.seed, args.seconds, args.workdir)
        gen_times.append(clock() - start)
        passes = [loop_pass_ms() for _ in range(LOOP_PASSES_AFTER_SETUP)]
        gen_scaled.append(gen_times[-1] * LOOP_REF_MS
                          / statistics.median(passes))
        fingerprints.add(repr([case["id"] for case in cases]))
    setup_s = import_ms / 1e3 + statistics.median(gen_times)
    setup_scaled = (import_ms * PROCESS_REF_MS / import_pass_ms / 1e3
                    + statistics.median(gen_scaled))
    if hasattr(wl, "warm_up"):
        wl.warm_up()

    # a loop pass takes 1 ms and a process probe 90 ms, so processes are
    # probed before every third case only
    probe, ref_ms, every = (loop_pass_ms, LOOP_REF_MS, 1) if wl.in_process \
        else (process_pass_ms, PROCESS_REF_MS, PROCESS_PROBE_EVERY)
    timed = run_phase(wl, cases, wl.run, probe=probe, every=every)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = self_kb if wl.in_process else child_kb

    failures = list(timed["failures"])
    if len(fingerprints) != 1:
        failures.append("case generation is not deterministic")
    outcomes = timed["outcomes"]
    statuses = [out.get("status") for out in outcomes]
    decided = sum(1 for s in statuses if s in ("verified", "refuted"))
    times = verdict_times_ms(timed)
    factors = speed_factors(timed["passes"], len(cases), ref_ms, every)
    scaled = [out["verdict_s"] * 1e3 * f
              for out, f in zip(outcomes, factors) if "verdict_s" in out]
    counters = wl.counters(outcomes)
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": len(cases), "failed": len(timed["failures"]),
        "samples": len(times),
        "verdict_digest": timed["digest"],
        "decided_ratio": decided / len(cases),
        "failed_ratio": len(timed["failures"]) / len(cases),
        "statuses": dict(sorted((s, statuses.count(s))
                                for s in set(statuses) if s)),
        "counters": counters,
        "case_verdicts": [[case["id"], out.get("status"),
                           out["verdict_s"] * 1e3 if "verdict_s" in out
                           else None]
                          for case, out in zip(cases, outcomes)],
        "speed_probe_ms": statistics.median(ms for _, ms in timed["passes"]),
        "speed_ref_ms": ref_ms,
        "metrics": {
            "setup_s": setup_scaled,
            "wall_s": sum(out["case_s"] * f
                          for out, f in zip(outcomes, factors)),
            "verdict_ms_p50": statistics.median(scaled),
            "verdict_ms_p90": percentile(scaled, 90),
            "decided_ratio": decided / len(cases),
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "raw_metrics": {
            "setup_s": setup_s,
            "wall_s": timed["wall_s"],
            "verdict_ms_p50": statistics.median(times),
            "verdict_ms_p90": percentile(times, 90),
        },
    }
    if args.trace:
        result["per_layer"] = traced_run(wl, cases, timed, result,
                                         failures, args)
        result["per_layer"]["cli.import_ms"] = import_ms
    result["failures"] = failures
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)


def traced_run(wl, cases, timed, result, failures, args):
    """Per-layer metrics from a traced pass over the same cases.  On
    cli-replay the traced pass runs in process, so an untraced in-process
    pass is its reference for overhead and digest."""
    from tracer import Tracer

    layers = {}
    if wl.in_process:
        runner, reference = wl.run, timed
    else:
        runner = wl.run_in_process
        reference = run_phase(wl, cases, runner)
        failures.extend("in process: " + f for f in reference["failures"])
        if reference["digest"] != timed["digest"]:
            failures.append("in-process digest differs from the "
                            "per-process digest")
        layers["cli.process_overhead_ms"] = (
            statistics.median(verdict_times_ms(timed))
            - statistics.median(verdict_times_ms(reference)))
        layers["cli.replay_ms_p50"] = statistics.median(
            verdict_times_ms(timed, "replay_s"))

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(wl, cases, runner, tracer)
    finally:
        tracer.uninstall()
    failures.extend("traced: " + f for f in traced["failures"])
    if traced["digest"] != reference["digest"]:
        failures.append("traced digest differs from the untraced digest")
    result["traced_digest"] = traced["digest"]

    spans_dir = os.path.join(os.path.dirname(args.out), "..", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    tracer.write_spans(os.path.join(spans_dir, os.path.basename(args.out)))

    counts = tracer.counts
    counters = result["counters"]
    # keys built by the searches, not by the witness checks after them
    key_calls = tracer.verdict_calls("ac.canonical_key")
    layers.update(tracer.layers())
    layers.update({
        "presentations.tietze_verified_ratio":
            counts["tietze_verified"] / counts["tietze_calls"]
            if counts["tietze_calls"] else 0.0,
        "presentations.tietze_trace_moves": counts["tietze_trace_moves"],
        "moves.decomposition_slides":
            counters.get("moves.decomposition_slides", 0),
        "ac.visited": counters.get("ac.visited", 0),
        "ac.stored": counters.get("ac.stored", 0),
        "ac.pruned_length": counters.get("ac.pruned_length", 0),
        "ac.presentations_built": counts["presentations_built"],
        "ac.key_new_ratio":
            counters.get("ac.stored", 0) / key_calls if key_calls else 0.0,
        "diagio.bytes_parsed": counts["bytes_parsed"],
        "trace.overhead_s": traced["wall_s"] - reference["wall_s"],
        "verdict.failed_ratio": result["failed_ratio"],
    })
    layers.setdefault("cli.process_overhead_ms", 0.0)
    layers.setdefault("cli.replay_ms_p50", 0.0)
    return layers


if __name__ == "__main__":
    main()

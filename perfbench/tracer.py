"""Span recorder for the traced benchmark run.

The tracer wraps named engine functions.  Each call becomes a span with a
name, a start and end time, the span that was open when it started, and
the id of the benchmark case it belongs to.  Calls and self time (duration
minus the time covered by child spans) are summed for every call; the
first SPAN_CAP spans are kept in memory and written out when the run
ends.

A function is patched in every loaded ``trisect`` module that binds it,
not only in the module that defines it: ``from .diagram import detect_k``
gives ``kirby`` and ``cli`` their own binding, and calls through those
bindings would be missed otherwise.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (defining module, function) pairs that get spans
TRACED = (
    ("trisect.words", "free_reduce"),
    ("trisect.words", "cyclic_reduce"),
    ("trisect.words", "cyclic_min"),
    ("trisect.words", "map_letters"),
    ("trisect.intmatrix", "smith_normal_form"),
    ("trisect.homology", "lagrangian_verdict"),
    ("trisect.presentations", "tietze_simplify"),
    ("trisect.presentations", "replay_tietze"),
    ("trisect.diagram", "trisection_params"),
    ("trisect.diagram", "detect_k"),
    ("trisect.moves", "standardize"),
    ("trisect.moves", "unscramble"),
    ("trisect.moves", "handleslide"),
    ("trisect.moves", "find_stabilization_certificate"),
    ("trisect.moves", "replay_decomposition"),
    ("trisect.catalog", "match_genus_one"),
    ("trisect.ac", "ac_search"),
    ("trisect.ac", "canonical_key"),
    ("trisect.ac", "replay_ac_path"),
    ("trisect.kirby", "validate_hk"),
    ("trisect.kirby", "hk_to_trisection"),
    ("trisect.diagio", "parse_any"),
    ("trisect.diagio", "format_any"),
    ("trisect.reports", "replay_verdict"),
    ("trisect.reports", "report_to_json"),
    ("trisect.cli", "run_command"),
)

SPAN_FIELDS = ("id", "name", "case", "parent", "start_ns", "end_ns")
SPAN_CAP = 200000  # six int64 fields each: about 10 MB in memory


def layer_name(module, func):
    return "%s.%s" % (module.split(".", 1)[1], func)


class Tracer:
    """Patches the traced functions on ``install`` and restores them on
    ``uninstall``; ``case`` names the benchmark case of new spans."""

    def __init__(self):
        self.names = [layer_name(m, f) for m, f in TRACED]
        self.calls = [0] * len(TRACED)
        self.self_ns = [0] * len(TRACED)
        self.counts = {"tietze_calls": 0, "tietze_verified": 0,
                       "tietze_trace_moves": 0, "bytes_parsed": 0,
                       "presentations_built": 0}
        self.case = -1
        self.spans = array("q")
        self.span_count = 0
        self._stack = []
        self._next_id = 0
        self._undo = []
        self._verdict_calls = self.calls

    # -- patching ------------------------------------------------------------

    def install(self):
        engine = [mod for name, mod in list(sys.modules.items())
                  if name == "trisect" or name.startswith("trisect.")]
        for idx, (modname, func) in enumerate(TRACED):
            original = getattr(sys.modules[modname], func)
            wrapper = self._wrap(idx, original)
            for mod in engine:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        # constructions are counted, not spanned: there are too many
        ac = sys.modules["trisect.ac"]
        post_init = ac.BalancedPresentation.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            counts["presentations_built"] += 1
            post_init(obj)

        ac.BalancedPresentation.__post_init__ = counted_post_init
        self._undo.append((ac.BalancedPresentation, "__post_init__",
                           post_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap(self, idx, fn):
        tracer = self
        stack = self._stack
        observe = self._observer(TRACED[idx][1])
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.span_count += 1
                if tracer.span_count <= SPAN_CAP:
                    tracer.spans.extend((span_id, idx, tracer.case, parent,
                                         start, end))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observer(self, func):
        counts = self.counts
        if func == "tietze_simplify":
            def observe(args, result):
                _, verdict = result
                counts["tietze_calls"] += 1
                if verdict.is_verified:
                    counts["tietze_verified"] += 1
                    counts["tietze_trace_moves"] += \
                        len(verdict.witness["trace"])
            return observe
        if func == "parse_any":
            def observe(args, result):
                counts["bytes_parsed"] += len(args[0].encode("utf-8"))
            return observe
        return None

    # -- results -------------------------------------------------------------

    def layers(self):
        """Per-function calls and self time, keyed like the metrics."""
        out = {}
        for idx, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[idx]
            out[name + ".self_s"] = self.self_ns[idx] / 1e9
        return out

    def mark_verdicts_done(self):
        self._verdict_calls = list(self.calls)

    def verdict_calls(self, name):
        """Calls made before the checks began."""
        return self._verdict_calls[self.names.index(name)]

    def write_spans(self, path):
        """Write the kept spans as one JSON document."""
        n = len(SPAN_FIELDS)
        rows = [list(self.spans[i:i + n])
                for i in range(0, len(self.spans), n)]
        for row in rows:
            row[1] = self.names[row[1]]
        doc = {"fields": list(SPAN_FIELDS), "spans": rows,
               "recorded": self.span_count,
               "kept": len(rows)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))

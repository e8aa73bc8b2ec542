"""Certificate reports and witness replay.

A Report wraps one operation run: what ran, on which inputs (by digest),
what the verdict was, and the witness.  ``replay_verdict`` re-derives a
Verified or Refuted verdict from the recorded witness and the original
input alone, so stored certificates stay checkable.

One rule covers every report: it replays through the producer of the
command that wrote it, the one function that derives the command's
payload lines, verdict and output text (``OPERATIONS``).  The command
calls the producer with no witness; replay calls it with the recorded
witness and payload, and requires the recorded status, the whole
recorded witness, the whole recorded payload and, when one is recorded,
the reason.  So no forged or added field or payload line replays, and
neither does a sound witness other than the one the engine writes.  A
producer reads the witness only at its one search step, where it replays
what the search found instead of searching: each Tietze trace
(``tietze_simplify``) of a ``detect-k``, ``params`` or ``heegaard-kirby``
witness, the slides of a ``classification`` (``standardize``) and the
moves of an ``ac-path``, whose depth is checked for type and range.  It
derives every other line and field from the input as the command does,
so no replay runs a search.  Two payload entries are read, not derived:
the ``picks`` of a ``tri-to-hk`` report, which its command line gives,
and the counters of an ``ac-search`` report, which only the search
knows.  The counters are the one payload taken as written; a missing or
added counter line still fails.

``OPERATIONS`` binds each command to the file kinds its input may have
and its producer; ``CHECKERS`` binds each witness kind to the status it
certifies and the operation whose producer checks it when a caller names
no operation.  A new command is one line in the first and a new witness
kind one line in the second: ``replay_verdict`` checks the inputs
against the tables and the CLI reads them.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__
from .diagio import format_any, kind_of
from .verdict import Frozen

ENGINE = "trisect %s" % __version__


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def with_output(payload, text):
    """Report lines ``payload`` followed by the digest of the command's
    output ``text``."""
    return payload + [("output-sha256", sha256_text(text))]


class Report(Frozen):
    """One operation run, ready to print or serialize.

    ``inputs`` holds (label, sha256) pairs and ``payload`` (key, value)
    pairs in print order.
    """
    _fields = ("operation", "inputs", "payload", "verdict", "elapsed_ms",
               "engine")
    _defaults = {"verdict": None, "elapsed_ms": 0.0, "engine": ENGINE}

    def exit_code(self):
        if self.verdict is None:
            return 0
        return {"verified": 0, "refuted": 1, "unknown": 2}[self.verdict.status]


def format_report(r):
    lines = ["operation: %s" % r.operation, "engine: %s" % r.engine]
    for label, digest in r.inputs:
        lines.append("input: %s sha256=%s" % (label, digest))
    lines.append("elapsed-ms: %.3f" % r.elapsed_ms)
    for key, value in r.payload:
        lines.append("%s: %s" % (key, value))
    if r.verdict is not None:
        lines.append("verdict: %s" % r.verdict.status)
        lines.append("reason: %s" % r.verdict.reason)
        if r.verdict.witness is not None:
            lines.append("witness: %s" %
                         json.dumps(r.verdict.witness, sort_keys=True))
    return "\n".join(lines) + "\n"


def report_to_json(r):
    doc = {
        "operation": r.operation,
        "engine": r.engine,
        "inputs": [{"name": label, "sha256": digest}
                   for label, digest in r.inputs],
        "elapsed_ms": r.elapsed_ms,
        "payload": {key: value for key, value in r.payload},
        "verdict": r.verdict.to_dict() if r.verdict is not None else None,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class ReplayError(Exception):
    """A witness failed to re-derive its recorded verdict."""


def _need(cond, detail):
    if not cond:
        raise ReplayError(detail)


# -- producers -------------------------------------------------------------
# A producer returns its command's payload lines, verdict and output text
# (None when it writes no diagram).  The command calls it with no witness;
# replay calls it as producer(input, recorded, payload), with the recorded
# witness and payload (None when the caller has none).  It imports the
# engine functions it calls, so a process loads only the modules its
# command needs.

def validate(d, recorded=None, payload=None, invariant=False):
    """validate's report on a diagram file; invariants' adds chi and H1."""
    kind = kind_of(d)
    lines = [("kind", kind), ("genus", d.genus)]
    if kind == "trisection":
        from .diagram import (euler_characteristic, trisection_h1,
                              trisection_params)
        params, v = trisection_params(d, recorded)
        lines.append(("params", str(params)))
        if invariant:
            lines += [("chi", euler_characteristic(params)),
                      ("h1", str(trisection_h1(d)))]
    elif kind == "heegaard":
        from .diagram import detect_k, heegaard_h1
        k, v = detect_k(d, recorded=recorded)
        lines.append(("k", k))
        if invariant:
            lines.append(("h1", str(heegaard_h1(d))))
    else:
        from .kirby import validate_hk
        v = validate_hk(d, recorded)
        lines += [("components", d.c), ("target-m", d.m)]
    return lines, v, None


def invariants(d, recorded=None, payload=None):
    return validate(d, recorded, payload, invariant=True)


def classify(t, recorded=None, payload=None):
    from .moves import standardize

    v = standardize(t, recorded)[1]
    lines = [("genus", t.genus)]
    if v.is_verified:
        lines.append(("name", v.witness["name"]))
    return lines, v, None


def gprc_check(m, recorded=None, payload=None):
    from .kirby import gprc_necessary_check, surgery_h1

    return [("size", m.size),
            ("framings", " ".join(str(f) for f in m.framings())),
            ("surgery-h1", str(surgery_h1(m)))], gprc_necessary_check(m), None


def ac_search(p, recorded=None, payload=None, bounds=None):
    """ac-search's report: a search within ``bounds`` (the arguments of
    ``ac.ac_search`` after ``p``) or, given a recorded witness, the
    search's refutation from the exponent matrix or else the recorded
    path replayed, with the counters read from ``payload``."""
    from . import ac

    lines = [("generators", p.generators),
             ("total-length", p.total_length())]
    if recorded is None:
        res = ac.ac_search(p, *bounds)
        v = res.verdict
        lines += [(key.replace("_", "-"), value)
                  for key, value in res.stats.items()]
    else:
        v = ac.ab_det_refutation(p)
        if v is None:
            moves, depth = recorded["moves"], recorded["depth"]
            final = ac.replay_ac_path(p, [tuple(m) for m in moves])
            _need(final.is_trivial_form(), "path does not end in trivial form")
            # each search edge is one move or more, and a start in trivial
            # form has depth 0
            _need(type(depth) is int and 0 <= depth <= len(moves),
                  "depth %r is not a count from 0 to the %d moves"
                  % (depth, len(moves)))
            v = ac.path_verdict(moves, depth)
        for key in () if payload is None else ac.STATS:
            line = key.replace("_", "-")
            _need(line in payload,
                  "the recorded payload has no %s counter" % line)
            lines.append((line, payload[line]))
    if v.is_verified:
        lines.append(("path-moves", len(v.witness["moves"])))
    return lines, v, None


def hk_to_tri(H, recorded=None, payload=None):
    from .kirby import hk_to_trisection

    t, v = hk_to_trisection(H, recorded)
    lines = [("genus", H.genus), ("components", H.c), ("target-m", H.m)]
    if t is None:
        return lines, v, None
    lines.append(("params", "(%d;%d,%d,%d)" %
                  ((t.genus,) + t.declared_params)))
    text = format_any(t)
    return with_output(lines, text), v, text


def tri_to_hk(t, recorded=None, payload=None, picks=None):
    """tri-to-hk's report along ``picks``, which the command gives and
    replay reads from the recorded payload."""
    from .kirby import format_picks, parse_picks, trisection_to_hk

    if picks is None:
        try:
            picks = parse_picks(str(payload.get("picks")))
        except ValueError as e:
            raise ReplayError("cannot rebuild the derived object: %s" % e)
    H, v = trisection_to_hk(t, picks, recorded)
    lines = [("picks", format_picks(picks))]
    if H is None:
        return lines, v, None
    text = format_any(H)
    return with_output(lines + [("components", H.c), ("target-m", H.m)],
                       text), v, text


_DIAGRAMS = ("trisection", "heegaard", "heegaard-kirby")
# operation -> (the file kinds of its one input, its producer)
OPERATIONS = {
    "validate": (_DIAGRAMS, validate),
    "invariants": (_DIAGRAMS, invariants),
    "classify": (("trisection",), classify),
    "gprc-check": (("linking",), gprc_check),
    "ac-search": (("presentation",), ac_search),
    "hk-to-tri": (("heegaard-kirby",), hk_to_tri),
    "tri-to-hk": (("trisection",), tri_to_hk),
}

# witness kind -> (the status it certifies, the operation whose producer
# checks it when the caller names none); a None status marks the one kind
# whose witness tells which status holds (a linking matrix is zero or not)
CHECKERS = {
    "params": ("verified", "validate"),
    "params-mismatch": ("refuted", "validate"),
    "torsion": ("refuted", "validate"),
    "detect-k": ("verified", "validate"),
    "classification": ("verified", "classify"),
    "heegaard-kirby": ("verified", "validate"),
    "background": ("refuted", "validate"),
    "framing": ("refuted", "validate"),
    "link-crossing": ("refuted", "validate"),
    "link-extension": ("refuted", "validate"),
    "surgery-homology": ("refuted", "validate"),
    "linking": (None, "gprc-check"),
    "ab-det": ("refuted", "ac-search"),
    "ac-path": ("verified", "ac-search"),
}

# what a malformed witness field or an input of the wrong type raises
# inside a check
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def replay_verdict(objs, vdict, operation=None, payload=None):
    """Re-derive a recorded verdict from its witness and the parsed inputs.

    ``objs`` is the tuple of parsed input objects in command order, and
    ``operation`` and ``payload`` (a dict) are the report's.  The check
    is the producer of ``operation``, or of the operation ``CHECKERS``
    names for the witness kind, run with the recorded witness and
    payload; when ``payload`` is given it must re-derive the whole
    payload (compared as sorted-key JSON, so true is not 1).  Returns the
    re-derived verdict; raises KeyError for an operation or witness kind
    that has no entry (before any check runs), and ReplayError when the
    witness certifies another status than the recorded one, is given
    inputs of another kind than the producer reads, has malformed
    fields, or differs, as sorted-key JSON, from the witness the producer
    re-derives, or when the producer re-derives another status or, where
    ``vdict`` records a reason, another reason.
    """
    status = vdict["status"]
    if status == "unknown":
        raise ReplayError("unknown verdicts carry no witness to replay")
    w = vdict.get("witness")
    if w is None:
        raise ReplayError("verdict has no witness")
    kind = w["kind"]
    certified, checked_by = CHECKERS[kind]
    reads, producer = OPERATIONS[checked_by if operation is None
                                  else operation]
    mismatch = "a %s witness certifies %s, not %s"
    _need(certified in (None, status), mismatch % (kind, certified, status))
    _need(len(objs) == 1 and kind_of(objs[0]) in reads,
          "a %s witness needs one %s input" % (kind, " or ".join(reads)))
    try:
        lines, got, _ = producer(objs[0], w, payload)
    except _MALFORMED as e:
        raise ReplayError("the %s witness does not replay: %s: %s"
                          % (kind, type(e).__name__, e))
    if payload is not None:
        derived = json.dumps(dict(lines), sort_keys=True)
        _need(derived == json.dumps(payload, sort_keys=True),
              "the recorded payload does not replay: the re-derived "
              "payload is %s" % derived)
    recomputed = json.dumps(got.witness, sort_keys=True)
    _need(recomputed == json.dumps(w, sort_keys=True),
          "the %s witness does not replay: the recomputed witness is %s"
          % (kind, recomputed))
    _need(got.status == status, mismatch % (kind, got.status, status))
    _need(vdict.get("reason", got.reason) == got.reason,
          "the %s witness does not replay: the re-derived reason is %r"
          % (kind, got.reason))
    return got

"""Certificate reports and witness replay.

A Report wraps one operation run: what ran, on which inputs (by digest),
what the verdict was, and the witness.  ``replay_verdict`` re-derives a
Verified or Refuted verdict from the recorded witness and the original
input alone, so stored certificates stay checkable.  Every kind it
checks is one that some command writes.  One rule covers every witness
kind: its check is the producer that wrote it, run again on the input,
and replay requires the recorded status, the whole recorded witness
and, when one is recorded, the reason.  So no forged or added field
replays, and neither does a sound witness other than the one the
engine writes.  A producer that runs no search simply reruns.  A
producer that searches is given the recorded witness and, at its one
search step, replays what the search found instead of searching: each
Tietze trace (``tietze_simplify``) of a ``detect-k``, ``params`` or
``heegaard-kirby`` witness, and the slides of a ``classification``
(``standardize``).  It derives every other field from the input as the
search run does, so each of those witnesses is written in one place.
An ``ac-path`` is replayed move by move, with its depth checked for
type and range, and its verdict written by ``ac.path_verdict``.  A
report of a bridge command (``hk-to-tri``, ``tri-to-hk``) replays
through the function that wrote its payload, verdict and output
(``hk_to_tri``, ``tri_to_hk``) whatever its witness kind: it replays the
traces of a ``params`` (``hk-to-tri``) or ``heegaard-kirby``
(``tri-to-hk``) witness, reruns every other step, none of which
searches, reads the ``--picks`` of the payload and must re-derive the
whole payload.  So no replay runs a search.

``CHECKERS`` binds each witness kind to the status it certifies, the file
kind its check reads and the check that re-derives it; ``BRIDGES`` binds
each bridge command to its input's file kind and its check.  A new kind
is one line there: ``replay_verdict`` checks the inputs against the
tables and the CLI reads them.
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


# Each check is called as check(witness, *inputs), once replay_verdict has
# checked the inputs against the file kind the check reads (CHECKERS), and
# returns its producer's verdict (or None, as a producer may):
# replay_verdict requires its status and its whole witness.
# ``_recomputed`` makes the check of a search-free kind from its producer,
# called as producer(*inputs).  The check of a search kind calls its
# producer with the recorded witness, which raises one of _MALFORMED when
# what the search found does not apply.  A check imports the engine
# functions it calls, so a replay loads only the modules its witness kind
# needs.

def _recomputed(producer):
    return lambda w, *objs: producer(*objs)


def _pair_refutation(obj):
    from .diagram import heegaard_h1, pair_homology, torsion_refutation

    if kind_of(obj) == "heegaard":
        return torsion_refutation(heegaard_h1(obj))
    return pair_homology(obj)[2]


def _surgery_data(H):
    from .diagram import heegaard_h1
    from .kirby import surgery_data_check

    return surgery_data_check(H, heegaard_h1(H.background))


def _linking(m):
    from .kirby import gprc_necessary_check

    return gprc_necessary_check(m)


def _ab_det(p):
    from .ac import ab_det_refutation

    return ab_det_refutation(p)


def _detect_k(w, d):
    from .diagram import detect_k

    return detect_k(d, recorded=w)[1]


def _params(w, t):
    from .diagram import trisection_params

    return trisection_params(t, w)[1]


def _classification(w, t):
    from .moves import standardize

    return standardize(t, w)[1]


def _hk(w, H):
    from .kirby import validate_hk

    return validate_hk(H, w)


def _replay_ac_path(w, p):
    from .ac import path_verdict, replay_ac_path

    final = replay_ac_path(p, [tuple(m) for m in w["moves"]])
    _need(final.is_trivial_form(), "path does not end in trivial form")
    # each search edge is one move or more, and a start in trivial form
    # has depth 0
    depth = w["depth"]
    _need(type(depth) is int and 0 <= depth <= len(w["moves"]),
          "depth %r is not a count from 0 to the %d moves"
          % (depth, len(w["moves"])))
    return path_verdict(w["moves"], depth)


# kind -> (the status its witness certifies, the file kind of the one
# input its check reads, its check).  A None status marks the one kind
# whose witness itself tells which status holds: a linking matrix is zero
# or has a nonzero entry.  A None file kind marks the checks that take
# several kinds of input and tell them apart themselves.
_SURGERY_DATA = _recomputed(_surgery_data)
CHECKERS = {
    "params": ("verified", "trisection", _params),
    "params-mismatch": ("refuted", "trisection",
                        _recomputed(_pair_refutation)),
    "torsion": ("refuted", None, _recomputed(_pair_refutation)),
    "detect-k": ("verified", "heegaard", _detect_k),
    "classification": ("verified", "trisection", _classification),
    "heegaard-kirby": ("verified", "heegaard-kirby", _hk),
    "background": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "framing": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "link-crossing": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "link-extension": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "surgery-homology": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "linking": (None, "linking", _recomputed(_linking)),
    "ab-det": ("refuted", "presentation", _recomputed(_ab_det)),
    "ac-path": ("verified", "presentation", _replay_ac_path),
}

# -- the surgery bridge --------------------------------------------------------
# A bridge command's verdict may speak of the diagram it derives, so the
# function that writes its payload lines, verdict and output text (None
# when it derives no diagram) is also its check: the CLI calls it with no
# witness, and replay with the recorded one, through BRIDGES.

def hk_to_tri(H, recorded=None):
    from .kirby import hk_to_trisection

    t, v = hk_to_trisection(H, recorded)
    payload = [("genus", H.genus), ("components", H.c), ("target-m", H.m)]
    if t is None:
        return payload, v, None
    payload.append(("params", "(%d;%d,%d,%d)" %
                    ((t.genus,) + t.declared_params)))
    text = format_any(t)
    return with_output(payload, text), v, text


def tri_to_hk(t, picks, recorded=None):
    from .kirby import format_picks, trisection_to_hk

    H, v = trisection_to_hk(t, picks, recorded)
    payload = [("picks", format_picks(picks))]
    if H is None:
        return payload, v, None
    text = format_any(H)
    return with_output(payload + [("components", H.c), ("target-m", H.m)],
                       text), v, text


def _recorded_picks(payload):
    from .kirby import parse_picks

    try:
        return parse_picks(str(payload.get("picks")))
    except ValueError as e:
        raise ReplayError("cannot rebuild the derived object: %s" % e)


# operation -> (the file kind of its one input, its check), a check being
# called as check(witness, input, payload)
BRIDGES = {
    "hk-to-tri": ("heegaard-kirby", lambda w, H, payload: hk_to_tri(H, w)),
    "tri-to-hk": ("trisection", lambda w, t, payload:
                  tri_to_hk(t, _recorded_picks(payload), w)),
}

# what a malformed witness field or an input of the wrong type raises
# inside a check
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def replay_verdict(objs, vdict, operation=None, payload=None):
    """Re-derive a recorded verdict from its witness and the parsed inputs.

    ``objs`` is the tuple of parsed input objects in command order, and
    ``operation`` and ``payload`` (a dict) are the report's; the check is
    the operation's in ``BRIDGES``, which must re-derive the whole
    payload (compared as sorted-key JSON, so true is not 1), or else the
    witness kind's.  Returns the re-derived verdict; raises KeyError for
    a witness kind that has no checker (before any check runs), and
    ReplayError when the witness certifies another status than the
    recorded one, is given inputs of another kind than its check reads,
    has malformed fields, or differs, as sorted-key JSON, from the
    witness its check re-derives, or when that check re-derives another
    status or, where ``vdict`` records a reason, another reason.
    """
    status = vdict["status"]
    if status == "unknown":
        raise ReplayError("unknown verdicts carry no witness to replay")
    w = vdict.get("witness")
    if w is None:
        raise ReplayError("verdict has no witness")
    kind = w["kind"]
    certified, reads, check = CHECKERS[kind]
    if operation in BRIDGES:
        reads, bridge = BRIDGES[operation]

        def check(w, obj):
            lines, v, _ = bridge(w, obj, payload)
            derived = json.dumps(dict(lines), sort_keys=True)
            _need(derived == json.dumps(payload, sort_keys=True),
                  "cannot rebuild the derived object: its payload is %s"
                  % derived)
            return v
    mismatch = "a %s witness certifies %s, not %s"
    _need(certified in (None, status), mismatch % (kind, certified, status))
    _need(reads is None or len(objs) == 1 and kind_of(objs[0]) == reads,
          "a %s witness needs one %s input" % (kind, reads))
    try:
        got = check(w, *objs)
    except _MALFORMED as e:
        raise ReplayError("the %s witness does not replay: %s: %s"
                          % (kind, type(e).__name__, e))
    recomputed = json.dumps(got and got.witness, sort_keys=True)
    _need(recomputed == json.dumps(w, sort_keys=True),
          "the %s witness does not replay: the recomputed witness is %s"
          % (kind, recomputed))
    _need(got.status == status, mismatch % (kind, got.status, status))
    _need(vdict.get("reason", got.reason) == got.reason,
          "the %s witness does not replay: the re-derived reason is %r"
          % (kind, got.reason))
    return got

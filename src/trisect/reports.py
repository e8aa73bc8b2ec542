"""Certificate reports and witness replay.

A Report wraps one operation run: what ran, on which inputs (by digest),
what the verdict was, and the witness.  ``replay_verdict`` re-derives a
Verified or Refuted verdict from the recorded witness and the original
input alone, so stored certificates stay checkable.  One rule covers
every witness kind: its check is the producer that wrote it, run again
on the input, and replay requires the recorded status and the whole
recorded witness.  So no forged or added field replays, and neither
does a sound witness other than the one the engine writes.  A producer
that runs no search simply reruns; for ``standard-pair`` and
``nonstandard`` that reruns the pairing backtracking of
``is_standard_pair``.  A producer that searches is given the recorded
witness and, at its one search step, replays what the search found
instead of searching: each Tietze trace (``tietze_simplify``) of a
``detect-k``, ``params`` or ``heegaard-kirby`` witness, and the slides
of a ``classification`` (``standardize``).  It derives every other field
from the input as the search run does, so each of those witnesses is
written in one place.  An ``ac-path`` is replayed move by move, with
its depth checked for type and range, and a ``construction`` is rebuilt
by ``construct``, which also writes it for the CLI.  A report of a bridge
command (``hk-to-tri``, ``tri-to-hk``) replays through that command's
producer whatever its witness kind: it replays the traces of a
``heegaard-kirby`` witness, reruns every other step, and reads the
``--picks`` of the payload.

``CHECKERS`` binds each witness kind to the status it certifies, the file
kind its check reads and the check that re-derives it; ``BRIDGES`` binds
each bridge command to its input's file kind and its check;
``CONSTRUCTIONS`` binds each construction command (stabilize, slide and
connect-sum) to the file kinds it reads, the argument keys its builder
reads with their types, and its builder.  A new kind is one line there:
``replay_verdict`` and ``apply_construction`` check the inputs against
the tables, the CLI reads them, and a ``construction`` witness replays
through ``CONSTRUCTIONS``.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__, words
from .diagio import format_any, kind_of
from .verdict import Frozen, verified

ENGINE = "trisect %s" % __version__


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def _standard_pair(d):
    from .diagram import is_standard_pair

    return is_standard_pair(d)


def _classified_params(t):
    from .diagram import TrisectionParams, pair_homology
    from .moves import check_classified_params

    return check_classified_params(
        TrisectionParams(t.genus, *pair_homology(t)[1]))


def _surgery_data(H):
    from .diagram import heegaard_h1
    from .kirby import surgery_data_check

    return surgery_data_check(H, heegaard_h1(H.background))[0]


def _primitive_pairs(t):
    from .kirby import find_primitive_pairs

    return find_primitive_pairs(t)[1]


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
    from .ac import replay_ac_path

    final = replay_ac_path(p, [tuple(m) for m in w["moves"]])
    _need(final.is_trivial_form(), "path does not end in trivial form")
    # each search edge is one move or more, and a start in trivial form
    # has depth 0
    depth = w["depth"]
    _need(type(depth) is int and 0 <= depth <= len(w["moves"]),
          "depth %r is not a count from 0 to the %d moves"
          % (depth, len(w["moves"])))
    return verified("replayed", {"kind": "ac-path", "moves": w["moves"],
                                 "depth": depth})


# kind -> (the status its witness certifies, the file kind of the one
# input its check reads, its check).  A None status marks the kinds whose
# witness itself tells which status holds (a constraint case holds or
# fails, a linking matrix is zero or has a nonzero entry).  A None file
# kind marks the checks that take several kinds of input and tell them
# apart themselves.
_SURGERY_DATA = _recomputed(_surgery_data)
_STANDARD_PAIR = _recomputed(_standard_pair)
CHECKERS = {
    "params": ("verified", "trisection", _params),
    "params-mismatch": ("refuted", "trisection",
                        _recomputed(_pair_refutation)),
    "torsion": ("refuted", None, _recomputed(_pair_refutation)),
    "detect-k": ("verified", "heegaard", _detect_k),
    "classification": ("verified", "trisection", _classification),
    "standard-pair": ("verified", "heegaard", _STANDARD_PAIR),
    "nonstandard": ("refuted", "heegaard", _STANDARD_PAIR),
    "param-constraint": (None, "trisection",
                         _recomputed(_classified_params)),
    "heegaard-kirby": ("verified", "heegaard-kirby", _hk),
    "background": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "framing": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "link-crossing": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "link-extension": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "surgery-homology": ("refuted", "heegaard-kirby", _SURGERY_DATA),
    "primitive-pairs": ("verified", "trisection",
                        _recomputed(_primitive_pairs)),
    "linking": (None, "linking", _recomputed(_linking)),
    "ab-det": ("refuted", "presentation", _recomputed(_ab_det)),
    "ac-path": ("verified", "presentation", _replay_ac_path),
    "construction": ("verified", None,
                     lambda w, *objs: construct(w["op"], w["args"], objs)[2]),
}

# -- the surgery bridge --------------------------------------------------------
# A bridge command's verdict may speak of the diagram it derives, so its
# check, called as check(witness, input, payload), is its producer.

def _hk_to_tri(w, H, payload):
    from .kirby import hk_to_trisection

    return hk_to_trisection(H, w)[1]


def _tri_to_hk(w, t, payload):
    """Replay on the report's --picks, which must read as tri-to-hk
    writes them and give the recorded target-m (compared as JSON, so
    true is not 1)."""
    from .kirby import format_picks, parse_picks, trisection_to_hk

    spec = payload.get("picks")
    try:
        picks = parse_picks(str(spec))
        if format_picks(picks) != spec:
            raise ValueError("picks %r are not as tri-to-hk writes them"
                             % (spec,))
    except ValueError as e:
        raise ReplayError("cannot rebuild the derived object: %s" % e)
    H, v = trisection_to_hk(t, picks, w)
    m = json.dumps(H and H.m)
    _need(json.dumps(payload.get("target-m")) == m,
          "cannot rebuild the derived object: its target-m is %s" % m)
    return v


# operation -> (the file kind of its one input, its check)
BRIDGES = {
    "hk-to-tri": ("heegaard-kirby", _hk_to_tri),
    "tri-to-hk": ("trisection", _tri_to_hk),
}

# what a malformed witness field or an input of the wrong type raises
# inside a check
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def replay_verdict(objs, vdict, operation=None, payload=None):
    """Re-derive a recorded verdict from its witness and the parsed inputs.

    ``objs`` is the tuple of parsed input objects in command order, and
    ``operation`` and ``payload`` (a dict) are the report's; the check is
    the operation's in ``BRIDGES`` or else the witness kind's.  Returns
    None on success; raises KeyError for a witness kind that has no
    checker (before any check runs), and ReplayError when the witness
    certifies another status than the recorded one, is given inputs of
    another kind than its check reads, has malformed fields, or differs,
    as sorted-key JSON, from the witness its check re-derives, or when
    that check re-derives another status.
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
        check = lambda w, obj: bridge(w, obj, payload)
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


# -- deterministic constructions ----------------------------------------------
# build(args, objs) raises ValueError on inputs it cannot build from.
# Every builder is search-free, so construction witnesses replay by
# digest.  Like the checks, a builder imports what it calls.

def _stabilize(args, objs):
    from .moves import heegaard_stabilize, i_stabilize

    kind = args["type"]
    t = objs[0]
    if kind == "heegaard":
        if kind_of(t) != "heegaard":
            raise ValueError("heegaard stabilization needs a heegaard file")
        return heegaard_stabilize(t)
    if kind_of(t) != "trisection":
        raise ValueError("stabilization type %s needs a trisection" % kind)
    if kind == "balanced":
        for i in (1, 2, 3):
            t = i_stabilize(t, i)
        return t
    return i_stabilize(t, int(kind))


def _slide(args, objs):
    from .moves import handleslide

    d = objs[0]
    system = args["system"]
    kind = kind_of(d)
    if kind == "trisection":
        if system not in ("alpha", "beta", "gamma"):
            raise ValueError("system must be alpha, beta, or gamma")
    elif kind == "heegaard":
        if system not in ("alpha", "beta"):
            raise ValueError("a heegaard diagram has alpha and beta only")
    else:
        raise ValueError("slide needs a diagram file")
    guide = tuple(words.parse_surface_word(args.get("guide", "")))
    cs = handleslide(getattr(d, system), args["from"], args["over"],
                     guide=guide, sign=args.get("sign", 1))
    fields = {name: getattr(d, name) for name in d._fields}
    fields[system] = cs
    return type(d)(**fields)


def _connect_sum(args, objs):
    from .moves import connected_sum

    return connected_sum(*objs)


# op -> (the file kinds of its inputs, in order, the argument keys its
# builder reads with their types, as the CLI writes them, its builder),
# one entry for each construction command.  A None file kind marks the
# builders that take several kinds and tell them apart themselves.
CONSTRUCTIONS = {
    "stabilize": (None, {"type": str}, _stabilize),
    "slide": (None, {"system": str, "from": int, "over": int, "guide": str,
                     "sign": int}, _slide),
    "connect-sum": (("trisection", "trisection"), {}, _connect_sum),
}


def apply_construction(op, args, objs):
    """Rebuild a constructive operation's output from inputs and arguments;
    raise ValueError when it cannot, or when an argument is one its
    builder does not read or of another type."""
    if op not in CONSTRUCTIONS:
        raise ValueError("unknown construction %r" % op)
    reads, takes, build = CONSTRUCTIONS[op]
    if reads is not None and tuple(map(kind_of, objs)) != reads:
        raise ValueError("%s needs %s" % (
            op, " and ".join("a %s file" % k for k in reads)))
    for key, value in args.items():
        if type(value) is not takes.get(key):
            raise ValueError("%s takes %s, not %s=%r" % (
                op, ", ".join("%s (%s)" % (k, t.__name__)
                              for k, t in takes.items()) or "no arguments",
                key, value))
    return build(args, objs)


def construct(op, args, objs, reason="replayed"):
    """The output of construction ``op``, its text, and the verdict that
    certifies the output by its digest; raises ValueError as
    ``apply_construction`` does."""
    out = apply_construction(op, args, objs)
    text = format_any(out)
    return out, text, verified(reason, {
        "kind": "construction", "op": op, "args": args,
        "output_sha256": sha256_text(text)})

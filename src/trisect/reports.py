"""Certificate reports and witness replay.

A Report wraps one operation run: what ran, on which inputs (by digest),
what the verdict was, and the witness.  ``replay_verdict`` re-derives a
Verified or Refuted verdict from the recorded witness and the original
input alone, so stored certificates stay checkable.  One rule covers
every witness kind: its check re-derives the verdict, and replay
requires the recorded status and the whole recorded witness, so no
forged or added field replays.  A kind whose producer runs no search is
re-derived by running that producer on the input again, so a sound
witness other than the one the engine writes does not replay either;
for ``standard-pair`` and ``nonstandard`` that reruns the pairing
backtracking of ``is_standard_pair``.  A kind that comes from a search
re-derives every field from the input except what the search found,
which it takes from the witness once it replays: a Tietze trace, a
slide script, an AC path and its search depth, or a construction's
operation and arguments, whose output digest it recomputes.

``CHECKERS`` binds each witness kind to the status it certifies, the file
kind its check reads and the check that re-derives it; ``CONSTRUCTIONS``
binds each deterministic construction (stabilize, slide, connect-sum and
the two kirby bridges) to the file kinds it reads and its builder.  A new
kind is one line there: ``replay_verdict`` and ``apply_construction``
check the inputs against the tables, the CLI reads them, and a
``construction`` witness replays through ``CONSTRUCTIONS``.
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
# returns the verdict it re-derives (or None, as a producer may):
# replay_verdict requires its status and its whole witness.
# ``_recomputed`` makes the check of a search-free kind from its producer,
# called as producer(*inputs).  The check of a search kind raises
# ReplayError when what the search found does not replay.  A producer or
# check imports the engine functions it calls, so a replay loads only the
# modules its witness kind needs.

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


def _tietze(trace, rank, genus, systems):
    """The Tietze witness that pi1 of the genus-``genus`` surface modulo
    ``systems`` is free of ``rank``, once ``trace`` replays to that rank."""
    from .diagram import quotient_presentation
    from .presentations import replay_tietze

    got = replay_tietze(quotient_presentation(genus, systems), trace)
    _need(got == rank, "the Tietze trace ends at free rank %d, not %d"
          % (got, rank))
    return {"kind": "tietze", "rank": rank, "trace": trace}


def _replay_detect(w, d, h1=None):
    from .diagram import heegaard_h1

    if h1 is None:
        h1 = heegaard_h1(d)
    _need(h1.is_free, "H1 is %s, which has torsion" % h1)
    got = {"kind": "detect-k", "k": h1.free_rank, "h1": str(h1)}
    if d.genus > 1:  # pi1 is H1 at genus <= 1
        got["trace"] = _tietze(w["trace"], h1.free_rank, d.genus,
                               [d.alpha, d.beta])["trace"]
    return verified("replayed", got)


def _replay_params(w, t):
    from .diagram import pair_diagrams, pair_homology

    h1s, ks, bad = pair_homology(t)
    if bad is not None:
        return bad
    # strict: three pair certificates, or a ValueError
    pairs = [_replay_detect(pw, d, h1).witness for pw, d, h1
             in zip(w["pairs"], pair_diagrams(t), h1s, strict=True)]
    return verified("replayed",
                    {"kind": "params", "ks": list(ks), "pairs": pairs})


def _replay_classification(w, t):
    from .diagram import pair_homology
    from .moves import replay_decomposition, sum_name

    bad = pair_homology(t)[2]  # as standardize refutes first
    if bad is not None:
        return bad
    names = replay_decomposition(t, w)
    slides = w["tree"]["slides"]
    return verified("replayed", {
        "kind": "classification", "name": sum_name(names), "names": names,
        "tree": {"op": "unscramble",
                 "slides": {s: slides[s] for s in ("alpha", "beta", "gamma")}}})


def _replay_hk(w, H):
    from .diagram import heegaard_h1
    from .kirby import complete_link_to_system, surgery_data_check

    h1 = heegaard_h1(H.background)
    background = _replay_detect(w["background"], H.background, h1).witness
    bad, inexact_pairs = surgery_data_check(H, h1)
    _need(bad is None, "surgery data fails: %s" % (bad and bad.reason))
    _need(inexact_pairs == 0 and
          all(comp.curve.template is not None for comp in H.link),
          "a link component has no exact slope model")
    gamma = complete_link_to_system(H)
    _need(gamma is not None, "link completion is gone")
    return verified("replayed", {
        "kind": "heegaard-kirby", "n": background["k"], "c": H.c, "m": H.m,
        "background": background,
        "pi1": _tietze(w["pi1"]["trace"], H.m, H.genus,
                       [H.background.alpha, gamma])})


def _replay_ac_path(w, p):
    from .ac import replay_ac_path

    final = replay_ac_path(p, [tuple(m) for m in w["moves"]])
    _need(final.is_trivial_form(), "path does not end in trivial form")
    return verified("replayed", {"kind": "ac-path", "moves": w["moves"],
                                 "depth": w["depth"]})


def _replay_construction(w, *objs):
    out = apply_construction(w["op"], w["args"], objs)
    return verified("replayed", {
        "kind": "construction", "op": w["op"], "args": w["args"],
        "output_sha256": sha256_text(format_any(out))})


# kind -> (the status its witness certifies, the file kind of the one
# input its check reads, its check).  A None status marks the kinds whose
# witness itself tells which status holds (a constraint case holds or
# fails, a linking matrix is zero or has a nonzero entry).  A None file
# kind marks the checks that take several kinds of input and tell them
# apart themselves.
_SURGERY_DATA = _recomputed(_surgery_data)
_STANDARD_PAIR = _recomputed(_standard_pair)
CHECKERS = {
    "params": ("verified", "trisection", _replay_params),
    "params-mismatch": ("refuted", "trisection",
                        _recomputed(_pair_refutation)),
    "torsion": ("refuted", None, _recomputed(_pair_refutation)),
    "detect-k": ("verified", "heegaard", _replay_detect),
    "classification": ("verified", "trisection", _replay_classification),
    "standard-pair": ("verified", "heegaard", _STANDARD_PAIR),
    "nonstandard": ("refuted", "heegaard", _STANDARD_PAIR),
    "param-constraint": (None, "trisection",
                         _recomputed(_classified_params)),
    "heegaard-kirby": ("verified", "heegaard-kirby", _replay_hk),
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
    "construction": ("verified", None, _replay_construction),
}

# what a malformed witness field or an input of the wrong type raises
# inside a check
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def replay_verdict(objs, vdict):
    """Re-derive a recorded verdict from its witness and the parsed inputs.

    ``objs`` is the tuple of parsed input objects in command order.  Returns
    None on success; raises KeyError for a witness kind that has no checker
    (before any check runs), and ReplayError when the witness certifies
    another status than the recorded one, is given inputs of another kind
    than its check reads, has malformed fields, or differs, as sorted-key
    JSON, from the witness its check re-derives, or when that check
    re-derives another status.
    """
    status = vdict["status"]
    if status == "unknown":
        raise ReplayError("unknown verdicts carry no witness to replay")
    w = vdict.get("witness")
    if w is None:
        raise ReplayError("verdict has no witness")
    kind = w["kind"]
    certified, reads, check = CHECKERS[kind]
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
    cs = handleslide(getattr(d, system), int(args["from"]), int(args["over"]),
                     guide=guide, sign=int(args.get("sign", 1)))
    fields = {name: getattr(d, name) for name in d._fields}
    fields[system] = cs
    return type(d)(**fields)


def _connect_sum(args, objs):
    from .moves import connected_sum

    return connected_sum(*objs)


def _hk_to_tri(args, objs):
    from .kirby import bridge_trisection

    t = bridge_trisection(objs[0])
    if t is None:
        raise ValueError("no template completion of the link")
    return t


def _tri_to_hk(args, objs):
    from .kirby import bridge_hk

    return bridge_hk(objs[0], args["picks"], int(args["m"]))


# op -> (the file kinds of its inputs, in order, its builder).  None marks
# the builders that take several kinds and tell them apart themselves.
CONSTRUCTIONS = {
    "stabilize": (None, _stabilize),
    "slide": (None, _slide),
    "connect-sum": (("trisection", "trisection"), _connect_sum),
    "hk-to-tri": (("heegaard-kirby",), _hk_to_tri),
    "tri-to-hk": (("trisection",), _tri_to_hk),
}


def apply_construction(op, args, objs):
    """Rebuild a constructive operation's output from inputs and arguments;
    raise ValueError when it cannot."""
    if op not in CONSTRUCTIONS:
        raise ValueError("unknown construction %r" % op)
    reads, build = CONSTRUCTIONS[op]
    if reads is not None and tuple(map(kind_of, objs)) != reads:
        raise ValueError("%s needs %s" % (
            op, " and ".join("a %s file" % k for k in reads)))
    return build(args, objs)

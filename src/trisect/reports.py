"""Certificate reports and witness replay.

A Report wraps one operation run: what ran, on which inputs (by digest),
what the verdict was, and the witness.  ``replay_verdict`` re-derives a
Verified or Refuted verdict from the recorded witness and the original
input alone, never re-running any search, so stored certificates stay
checkable.  One rule covers every witness kind whose producer runs no
search: replay runs that producer on the input again and requires the
whole witness, field for field, so no forged field can replay, and a
sound witness other than the one the engine writes does not replay
either.  A kind that comes from a search replays what it recorded: a
Tietze trace, a slide script, a pairing, an AC path, or the digest of a
construction's output.

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
from .verdict import Frozen

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
# checked the inputs against the file kind the check reads (CHECKERS).  It
# raises ReplayError when the witness does not re-derive its claim; the
# checks of kinds that certify either status return the status they
# re-derived.  ``_recomputed`` makes the check of a search-free kind from
# its producer, called as producer(*inputs), which returns the verdict the
# engine gives that input (or None).  A producer or check imports the
# engine functions it calls, so a replay loads only the modules its
# witness kind needs.

def _recomputed(producer):
    def check(w, *objs):
        v = producer(*objs)
        got = json.dumps(v and v.witness, sort_keys=True)
        _need(got == json.dumps(w, sort_keys=True),
              "the recomputed witness is %s" % got)
        return v.status
    return check


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


def _replay_detect(w, d):
    from .diagram import heegaard_h1, quotient_presentation
    from .presentations import replay_tietze

    _need(w["kind"] == "detect-k", "a %r witness is no detect-k" % w["kind"])
    h1 = heegaard_h1(d)
    _need(w["h1"] == str(h1), "H1 is %s, witness claims %s" % (h1, w["h1"]))
    _need(h1.is_free and h1.free_rank == w["k"],
          "H1 is %s, witness claims free rank %d" % (h1, w["k"]))
    if d.genus > 1 or "trace" in w:  # pi1 is H1 at genus <= 1
        rank = replay_tietze(
            quotient_presentation(d.genus, [d.alpha, d.beta]), w["trace"])
        _need(rank == w["k"],
              "trace ends at free rank %d, witness claims %d" % (rank, w["k"]))


def _replay_params(w, t):
    from .diagram import pair_diagrams

    ks = list(w["ks"])
    # strict: three pair certificates and three ranks, or a ValueError
    for d, pw, k in zip(pair_diagrams(t), w["pairs"], ks, strict=True):
        _need(pw["k"] == k, "pair certificate rank disagrees with ks")
        _replay_detect(pw, d)
    if t.declared_params is not None:
        _need(list(t.declared_params) == ks,
              "declared parameters disagree with the witness")


def _replay_classification(w, t):
    from .moves import replay_decomposition, sum_name

    name = sum_name(replay_decomposition(t, w))
    _need(name == w["name"],
          "replayed summands name %r, witness claims %r" % (name, w["name"]))


def _replay_standard_pair(w, d):
    from .diagram import geometric_intersection, same_curve

    g = d.genus
    pairing = [j - 1 for j in w["pairing"]]
    _need(sorted(pairing) == list(range(g)), "pairing is not a permutation")
    k = 0
    for i, j in enumerate(pairing):
        for j2 in range(g):
            count, exact = geometric_intersection(d.alpha.curves[i],
                                                  d.beta.curves[j2])
            if j2 == j:
                if same_curve(d.alpha.curves[i], d.beta.curves[j2]):
                    k += 1
                    continue
                _need(exact and count == 1,
                      "matched pair (%d, %d) does not meet once" % (i + 1, j + 1))
            else:
                _need(exact and count == 0,
                      "unmatched pair (%d, %d) is not disjoint" % (i + 1, j2 + 1))
    _need(k == w["k"], "recounted k=%d, witness claims %d" % (k, w["k"]))


def _replay_hk(w, H):
    from .diagram import heegaard_h1, quotient_presentation
    from .kirby import complete_link_to_system, surgery_data_check
    from .presentations import replay_tietze

    _replay_detect(w["background"], H.background)
    h1 = heegaard_h1(H.background)
    _need(w["n"] == h1.free_rank, "background rank disagrees")
    _need(w["c"] == H.c and w["m"] == H.m, "link size or target disagrees")
    bad, inexact_pairs = surgery_data_check(H, h1)
    _need(bad is None, "surgery data fails: %s" % (bad and bad.reason))
    _need(inexact_pairs == 0 and
          all(comp.curve.template is not None for comp in H.link),
          "a link component has no exact slope model")
    gamma = complete_link_to_system(H)
    _need(gamma is not None, "link completion is gone")
    pi1 = w["pi1"]
    _need(pi1["kind"] == "tietze" and pi1["rank"] == H.m,
          "pi1 witness claims rank %r, not %d" % (pi1["rank"], H.m))
    rank = replay_tietze(
        quotient_presentation(H.genus, [H.background.alpha, gamma]),
        pi1["trace"])
    _need(rank == H.m, "pi1 trace ends at rank %d, not %d" % (rank, H.m))


def _replay_ac_path(w, p):
    from .ac import replay_ac_path

    final = replay_ac_path(p, [tuple(m) for m in w["moves"]])
    _need(final.is_trivial_form(), "path does not end in trivial form")


def _replay_construction(w, *objs):
    out = apply_construction(w["op"], w.get("args", {}), objs)
    digest = sha256_text(format_any(out))
    _need(digest == w["output_sha256"],
          "reconstructed output digest %s, witness claims %s"
          % (digest, w["output_sha256"]))


# kind -> (the status its witness certifies, the file kind of the one
# input its check reads, its check).  A None status marks the kinds whose
# witness itself tells which status holds (a constraint case holds or
# fails, a linking matrix is zero or has a nonzero entry).  A None file
# kind marks the checks that take several kinds of input and tell them
# apart themselves.
_SURGERY_DATA = _recomputed(_surgery_data)
CHECKERS = {
    "params": ("verified", "trisection", _replay_params),
    "params-mismatch": ("refuted", "trisection",
                        _recomputed(_pair_refutation)),
    "torsion": ("refuted", None, _recomputed(_pair_refutation)),
    "detect-k": ("verified", "heegaard", _replay_detect),
    "classification": ("verified", "trisection", _replay_classification),
    "standard-pair": ("verified", "heegaard", _replay_standard_pair),
    "nonstandard": ("refuted", "heegaard", _recomputed(_standard_pair)),
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
    (before any check runs), and ReplayError when the witness fails to
    reproduce the recorded status, certifies another status than the
    recorded one, is given inputs of another kind than its check reads, or
    has malformed fields.
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
    if certified is None:
        _need(got == status, mismatch % (kind, got, status))


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

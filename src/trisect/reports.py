"""Certificate reports and witness replay.

A Report wraps one operation run: what ran, on which inputs (by digest),
what the verdict was, and the witness.  ``replay_verdict`` re-derives a
Verified or Refuted verdict from the recorded witness and the original
input alone, never re-running any search, so stored certificates stay
checkable.

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


# Each check below is called as check(witness, *inputs), once
# replay_verdict has checked the inputs against the file kind the check
# reads (CHECKERS).  It raises ReplayError when the witness does not
# re-derive its claim; the checks of kinds that certify either status
# return the status they re-derived.  A check imports the engine functions
# it calls, so a replay loads only the modules its witness kind needs.

def _replay_detect(w, d):
    from .diagram import heegaard_h1, quotient_presentation
    from .presentations import replay_tietze

    h1 = heegaard_h1(d)
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


def _replay_params_mismatch(w, t):
    from .diagram import pair_homology

    computed = list(pair_homology(t)[1])
    _need(computed == list(w["computed"]),
          "recomputed ranks %s, witness claims %s" % (computed, w["computed"]))
    _need(t.declared_params is not None and
          list(t.declared_params) == list(w["declared"]),
          "declared parameters disagree with the witness")
    _need(computed != list(w["declared"]), "declared and computed agree")


def _replay_torsion(w, obj):
    from .diagram import heegaard_h1, pair_homology

    kind = kind_of(obj)
    if kind == "heegaard":
        h1s = [heegaard_h1(obj)]
    elif kind == "trisection":
        h1s = pair_homology(obj)[0]
    elif kind == "heegaard-kirby":
        h1s = [heegaard_h1(obj.background)]
    else:
        raise ReplayError("torsion witness needs a diagram")
    for h1 in h1s:
        if not h1.is_free and list(h1.torsion) == list(w["factors"]):
            return
    raise ReplayError("no boundary pair shows torsion %s" % (w["factors"],))


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


def _replay_nonstandard(w, d):
    from .diagram import geometric_intersection, is_standard_pair

    matrix = [[geometric_intersection(a, b) for b in d.beta.curves]
              for a in d.alpha.curves]
    _need(all(ex for row in matrix for (_, ex) in row),
          "intersection data is not exact")
    counts = [[c for (c, _) in row] for row in matrix]
    _need(counts == w["matrix"],
          "recomputed counts disagree with the witness")
    _need(is_standard_pair(d).is_refuted, "a standard pairing exists after all")


def _replay_param_constraint(w, obj):
    from .diagram import TrisectionParams, pair_homology
    from .moves import check_classified_params

    if kind_of(obj) == "trisection":
        ks = list(pair_homology(obj)[1])
    else:
        _need(isinstance(obj, TrisectionParams),
              "param-constraint witness needs a trisection")
        ks = list(obj.ks)
    _need(ks == list(w["ks"]),
          "recomputed parameters %s, witness claims %s" % (ks, w["ks"]))
    v = check_classified_params(TrisectionParams(obj.genus, *ks))
    _need(v.witness is not None and v.witness.get("case") == w["case"],
          "constraint case disagrees")
    return v.status


def _replay_hk(w, H):
    from .diagram import quotient_presentation
    from .kirby import (_beta_extension_check, _link_embedding_check,
                        _surgery_homology, complete_link_to_system)
    from .presentations import replay_tietze

    _replay_detect(w["background"], H.background)
    _need(w["n"] == w["background"]["k"], "background rank disagrees")
    _need(w["c"] == H.c and w["m"] == H.m, "link size or target disagrees")
    _need(all(comp.is_surface_framed for comp in H.link),
          "a verified diagram cannot carry integer framings")
    _need(_link_embedding_check(H) == (None, 0),
          "link components are not all exactly disjoint")
    _need(all(comp.curve.template is not None for comp in H.link),
          "a link component has no exact slope model")
    _need(not H.link or _beta_extension_check(H) is None,
          "link classes do not extend beta primitively")
    h1 = _surgery_homology(H)
    _need(h1.is_free and h1.free_rank == H.m,
          "surgered homology is %s, not Z^%d" % (h1, H.m))
    gamma = complete_link_to_system(H)
    _need(gamma is not None, "link completion is gone")
    rank = replay_tietze(
        quotient_presentation(H.genus, [H.background.alpha, gamma]),
        w["pi1"]["trace"])
    _need(rank == H.m, "pi1 trace ends at rank %d, not %d" % (rank, H.m))


def _replay_background(w, H):
    _replay_torsion(w["inner"], H.background)


def _replay_framing(w, H):
    from .diagram import heegaard_h1

    integer_framed = [k + 1 for k, comp in enumerate(H.link)
                      if not comp.is_surface_framed]
    _need(integer_framed == list(w["components"]),
          "integer-framed components disagree")
    h1 = heegaard_h1(H.background)
    _need(h1.is_free and h1.free_rank == w["n"] and w["n"] > 0,
          "background is not a #^n with n > 0")


def _entry(seq, i, what):
    # witness indices are 1-based: 0 or -1 must not wrap around
    _need(isinstance(i, int) and 1 <= i <= len(seq),
          "%s %r is not in 1..%d" % (what, i, len(seq)))
    return seq[i - 1]


def _replay_link_crossing(w, H):
    from .diagram import geometric_intersection
    from .homology import algebraic_intersection

    i, j = w["pair"]
    _need(i != j, "a component does not cross itself")
    a = _entry(H.link, i, "link component").curve
    b = _entry(H.link, j, "link component").curve
    count, exact = geometric_intersection(a, b)
    if exact:
        _need(count == w["count"] and count != 0,
              "recomputed crossing count disagrees")
    else:
        alg = algebraic_intersection(a.homology, b.homology)
        _need(alg == w["count"] and alg != 0,
              "recomputed algebraic count disagrees")


def _replay_link_extension(w, H):
    from .kirby import _beta_extension_check

    bad = _beta_extension_check(H)
    _need(bad is not None, "the family is primitive after all")
    _need(bad.witness["factors"] == list(w["factors"]),
          "invariant factors disagree")


def _replay_surgery_homology(w, H):
    from .kirby import _surgery_homology

    h1 = _surgery_homology(H)
    _need(str(h1) == w["h1"], "recomputed homology %s disagrees" % h1)
    _need(not (h1.is_free and h1.free_rank == w["target_m"]),
          "homology matches the target after all")


def _replay_primitive_pairs(w, t):
    from .kirby import find_primitive_pairs

    pairs, v = find_primitive_pairs(t)
    _need(v.is_verified, "intersection data is no longer exact")
    _need([list(p) for p in pairs] == w["pairs"], "pair list disagrees")


def _replay_linking(w, m):
    if "entry" in w:
        i, j = w["entry"]
        value = _entry(_entry(m.rows, i, "row"), j, "column")
        _need(value == w["value"] and value != 0,
              "entry (%d, %d) disagrees" % (i, j))
        return "refuted"
    _need(m.is_zero() and m.size == w["size"], "matrix is not zero")
    return "verified"


def _replay_ab_det(w, p):
    from .ac import ab_det

    d = ab_det(p)
    _need(d == w["det"], "recomputed determinant %d disagrees" % d)
    _need(abs(d) != 1, "determinant is a unit after all")


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
# fails, a linking matrix is zero or has a nonzero entry); their checks
# return it.  A None file kind marks the checks that take several kinds of
# input and tell them apart themselves.
CHECKERS = {
    "params": ("verified", "trisection", _replay_params),
    "params-mismatch": ("refuted", "trisection", _replay_params_mismatch),
    "torsion": ("refuted", None, _replay_torsion),
    "detect-k": ("verified", "heegaard", _replay_detect),
    "classification": ("verified", "trisection", _replay_classification),
    "standard-pair": ("verified", "heegaard", _replay_standard_pair),
    "nonstandard": ("refuted", "heegaard", _replay_nonstandard),
    "param-constraint": (None, None, _replay_param_constraint),
    "heegaard-kirby": ("verified", "heegaard-kirby", _replay_hk),
    "background": ("refuted", "heegaard-kirby", _replay_background),
    "framing": ("refuted", "heegaard-kirby", _replay_framing),
    "link-crossing": ("refuted", "heegaard-kirby", _replay_link_crossing),
    "link-extension": ("refuted", "heegaard-kirby", _replay_link_extension),
    "surgery-homology": ("refuted", "heegaard-kirby",
                         _replay_surgery_homology),
    "primitive-pairs": ("verified", "trisection", _replay_primitive_pairs),
    "linking": (None, "linking", _replay_linking),
    "ab-det": ("refuted", "presentation", _replay_ab_det),
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

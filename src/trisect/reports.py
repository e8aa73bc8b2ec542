"""Certificate reports and witness replay.

A Report wraps one operation run: what ran, on which inputs (by digest),
what the verdict was, and the witness.  ``replay_verdict`` re-derives a
Verified or Refuted verdict from the recorded witness and the original
input alone, never re-running any search, so stored certificates stay
checkable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import __version__, words
from .ac import ab_det, canonical_key, replay_ac_path, trivial_presentation
from .catalog import triangle_sign
from .diagram import (HeegaardDiagram, TrisectionDiagram, TrisectionParams,
                      geometric_intersection, heegaard_h1,
                      quotient_presentation)
from .homology import algebraic_intersection
from .intmatrix import IntegerMatrix, invariant_factors
from .kirby import (HeegaardKirbyDiagram, LinkingMatrix, _surgery_homology,
                    complete_link_to_system, find_primitive_pairs)
from .moves import (connected_sum, handleslide, heegaard_stabilize,
                    i_stabilize, replay_decomposition, sum_name)
from .presentations import replay_tietze

ENGINE = "trisect %s" % __version__


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Report:
    """One operation run, ready to print or serialize."""
    operation: str
    inputs: tuple          # ((label, sha256), ...)
    payload: tuple         # ((key, value), ...) in print order
    verdict: object = None
    elapsed_ms: int = 0
    engine: str = field(default=ENGINE)

    def exit_code(self):
        if self.verdict is None:
            return 0
        return {"verified": 0, "refuted": 1, "unknown": 2}[self.verdict.status]


def format_report(r):
    lines = ["operation: %s" % r.operation, "engine: %s" % r.engine]
    for label, digest in r.inputs:
        lines.append("input: %s sha256=%s" % (label, digest))
    lines.append("elapsed-ms: %d" % r.elapsed_ms)
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


def _pair_diagrams(t):
    return (HeegaardDiagram(t.genus, t.alpha, t.beta),
            HeegaardDiagram(t.genus, t.beta, t.gamma),
            HeegaardDiagram(t.genus, t.gamma, t.alpha))


def _replay_detect(d, w):
    h1 = heegaard_h1(d)
    _need(h1.is_free and h1.free_rank == w["k"],
          "H1 is %s, witness claims free rank %d" % (h1, w["k"]))
    try:
        rank = replay_tietze(quotient_presentation(d.genus, [d.alpha, d.beta]),
                             w["trace"])
    except ValueError as e:
        raise ReplayError("simplification trace does not apply: %s" % e)
    _need(rank == w["k"],
          "trace ends at free rank %d, witness claims %d" % (rank, w["k"]))


def _replay_params(t, w):
    _need(isinstance(t, TrisectionDiagram), "params witness needs a trisection")
    ks = list(w["ks"])
    pairs = w["pairs"]
    _need(len(pairs) == 3, "params witness needs three pair certificates")
    for d, pw, k in zip(_pair_diagrams(t), pairs, ks):
        _need(pw["k"] == k, "pair certificate rank disagrees with ks")
        _replay_detect(d, pw)
    if t.declared_params is not None:
        _need(list(t.declared_params) == ks,
              "declared parameters disagree with the witness")


def _replay_params_mismatch(t, w):
    computed = [heegaard_h1(d).free_rank for d in _pair_diagrams(t)]
    _need(computed == list(w["computed"]),
          "recomputed ranks %s, witness claims %s" % (computed, w["computed"]))
    _need(t.declared_params is not None and
          list(t.declared_params) == list(w["declared"]),
          "declared parameters disagree with the witness")
    _need(computed != list(w["declared"]), "declared and computed agree")


def _replay_torsion(obj, w):
    if isinstance(obj, HeegaardDiagram):
        candidates = [obj]
    elif isinstance(obj, TrisectionDiagram):
        candidates = list(_pair_diagrams(obj))
    elif isinstance(obj, HeegaardKirbyDiagram):
        candidates = [obj.background]
    else:
        raise ReplayError("torsion witness needs a diagram")
    for d in candidates:
        h1 = heegaard_h1(d)
        if not h1.is_free and list(h1.torsion) == list(w["factors"]):
            return
    raise ReplayError("no boundary pair shows torsion %s" % (w["factors"],))


def _replay_decomposition_witness(t, w):
    try:
        names = replay_decomposition(t, w)
    except ValueError as e:
        raise ReplayError(str(e))
    if w["kind"] == "classification":
        _need(sum_name(names) == w["name"],
              "replayed summands name %r, witness claims %r"
              % (sum_name(names), w["name"]))


def _replay_catalog_match(t, w):
    _need(t.genus == 1, "catalog witness needs a genus-one diagram")
    _replay_params(t, w["pairs"])
    ks = tuple(w["params"])
    by_params = {(1, 1, 1): "S1xS3", (1, 0, 0): "S4STAB1",
                 (0, 1, 0): "S4STAB2", (0, 0, 1): "S4STAB3"}
    if ks == (0, 0, 0):
        sign = triangle_sign(t)
        _need(sign != 0, "degenerate slope triangle")
        name = "CP2" if sign > 0 else "CP2R"
    else:
        name = by_params.get(ks)
    _need(name == w["name"],
          "parameters %s name %r, witness claims %r" % (ks, name, w["name"]))


def _replay_standard_pair(d, w):
    g = d.genus
    pairing = [j - 1 for j in w["pairing"]]
    _need(sorted(pairing) == list(range(g)), "pairing is not a permutation")
    k = 0
    for i, j in enumerate(pairing):
        for j2 in range(g):
            count, exact = geometric_intersection(d.alpha.curves[i],
                                                  d.beta.curves[j2])
            if j2 == j:
                from .diagram import same_curve
                if same_curve(d.alpha.curves[i], d.beta.curves[j2]):
                    k += 1
                    continue
                _need(exact and count == 1,
                      "matched pair (%d, %d) does not meet once" % (i + 1, j + 1))
            else:
                _need(exact and count == 0,
                      "unmatched pair (%d, %d) is not disjoint" % (i + 1, j2 + 1))
    _need(k == w["k"], "recounted k=%d, witness claims %d" % (k, w["k"]))


def _replay_nonstandard(d, w):
    g = d.genus
    matrix = [[geometric_intersection(a, b) for b in d.beta.curves]
              for a in d.alpha.curves]
    _need(all(ex for row in matrix for (_, ex) in row),
          "intersection data is not exact")
    counts = [[c for (c, _) in row] for row in matrix]
    _need(counts == w["matrix"],
          "recomputed counts disagree with the witness")
    from .diagram import is_standard_pair
    _need(is_standard_pair(d).is_refuted, "a standard pairing exists after all")


def _replay_param_constraint(obj, w):
    ks = tuple(w["ks"])
    if isinstance(obj, TrisectionDiagram):
        genus = obj.genus
    elif isinstance(obj, TrisectionParams):
        genus = obj.genus
    else:
        raise ReplayError("param-constraint witness needs a trisection")
    from .moves import check_classified_params
    v = check_classified_params(TrisectionParams(genus, *ks))
    _need(v.witness is not None and v.witness.get("case") == w["case"],
          "constraint case disagrees")
    return v.status


def _replay_hk(H, w):
    _need(isinstance(H, HeegaardKirbyDiagram),
          "surgery witness needs a heegaard-kirby diagram")
    _replay_detect(H.background, w["background"])
    _need(w["n"] == w["background"]["k"], "background rank disagrees")
    _need(w["c"] == H.c and w["m"] == H.m, "link size or target disagrees")
    _need(all(comp.is_surface_framed for comp in H.link),
          "a verified diagram cannot carry integer framings")
    for i in range(H.c):
        for j in range(i + 1, H.c):
            count, exact = geometric_intersection(H.link[i].curve,
                                                  H.link[j].curve)
            _need(exact and count == 0,
                  "link components %d and %d are not exactly disjoint"
                  % (i + 1, j + 1))
        _need(H.link[i].curve.template is not None,
              "component %d has no exact slope model" % (i + 1))
    if H.link:
        cols = [list(c.coeffs) for c in H.background.beta.classes()]
        cols += [list(comp.curve.homology.coeffs) for comp in H.link]
        factors = invariant_factors(
            IntegerMatrix.from_columns(cols, nrows=2 * H.genus))
        _need(len(factors) == len(cols) and all(d == 1 for d in factors),
              "link classes do not extend beta primitively")
    h1 = _surgery_homology(H)
    _need(h1.is_free and h1.free_rank == H.m,
          "surgered homology is %s, not Z^%d" % (h1, H.m))
    gamma = complete_link_to_system(H)
    _need(gamma is not None, "link completion is gone")
    try:
        rank = replay_tietze(
            quotient_presentation(H.genus, [H.background.alpha, gamma]),
            w["pi1"]["trace"])
    except ValueError as e:
        raise ReplayError("pi1 trace does not apply: %s" % e)
    _need(rank == H.m, "pi1 trace ends at rank %d, not %d" % (rank, H.m))


def _replay_background(H, w):
    _replay_torsion(H.background, w["inner"])


def _replay_framing(H, w):
    integer_framed = [k + 1 for k, comp in enumerate(H.link)
                      if not comp.is_surface_framed]
    _need(integer_framed == list(w["components"]),
          "integer-framed components disagree")
    h1 = heegaard_h1(H.background)
    _need(h1.is_free and h1.free_rank == w["n"] and w["n"] > 0,
          "background is not a #^n with n > 0")


def _replay_link_crossing(H, w):
    i, j = w["pair"]
    count, exact = geometric_intersection(H.link[i - 1].curve,
                                          H.link[j - 1].curve)
    if exact:
        _need(count == w["count"] and count != 0,
              "recomputed crossing count disagrees")
    else:
        alg = algebraic_intersection(H.link[i - 1].curve.homology,
                                     H.link[j - 1].curve.homology)
        _need(alg == w["count"] and alg != 0,
              "recomputed algebraic count disagrees")


def _replay_link_extension(H, w):
    cols = [list(c.coeffs) for c in H.background.beta.classes()]
    cols += [list(comp.curve.homology.coeffs) for comp in H.link]
    factors = invariant_factors(
        IntegerMatrix.from_columns(cols, nrows=2 * H.genus))
    _need(list(factors) == list(w["factors"]), "invariant factors disagree")
    _need(len(factors) != len(cols) or any(d != 1 for d in factors),
          "the family is primitive after all")


def _replay_surgery_homology(H, w):
    h1 = _surgery_homology(H)
    _need(str(h1) == w["h1"], "recomputed homology %s disagrees" % h1)
    _need(not (h1.is_free and h1.free_rank == w["target_m"]),
          "homology matches the target after all")


def _replay_primitive_pairs(t, w):
    pairs, v = find_primitive_pairs(t)
    _need(v.is_verified, "intersection data is no longer exact")
    _need([list(p) for p in pairs] == w["pairs"], "pair list disagrees")


def _replay_linking(m, w):
    _need(isinstance(m, LinkingMatrix), "linking witness needs a matrix")
    if "entry" in w:
        i, j = w["entry"]
        _need(m.rows[i - 1][j - 1] == w["value"] and w["value"] != 0,
              "entry (%d, %d) disagrees" % (i, j))
    else:
        _need(m.is_zero() and m.size == w["size"], "matrix is not zero")


def _replay_ab_det(p, w):
    d = ab_det(p)
    _need(d == w["det"], "recomputed determinant %d disagrees" % d)
    _need(abs(d) != 1, "determinant is a unit after all")


def _replay_ac_path(p, w):
    try:
        final = replay_ac_path(p, [tuple(m) for m in w["moves"]])
    except ValueError as e:
        raise ReplayError("move path does not apply: %s" % e)
    _need(final.is_trivial_form(), "path does not end in trivial form")
    _need(canonical_key(final) == canonical_key(
        trivial_presentation(final.generators)),
          "final key is not the trivial key")


def _replay_construction(objs, w):
    out = apply_construction(w["op"], w.get("args", {}), objs)
    from .diagio import format_any
    digest = sha256_text(format_any(out))
    _need(digest == w["output_sha256"],
          "reconstructed output digest %s, witness claims %s"
          % (digest, w["output_sha256"]))


# the status each witness kind certifies; None where the witness itself
# tells which (a constraint case holds or fails, a linking matrix is zero
# or has a nonzero entry) and its check compares the two
CERTIFIED_STATUS = {
    "params": "verified",
    "params-mismatch": "refuted",
    "torsion": "refuted",
    "detect-k": "verified",
    "decomposition": "verified",
    "classification": "verified",
    "catalog-match": "verified",
    "no-genus-one-match": "refuted",
    "standard-pair": "verified",
    "nonstandard": "refuted",
    "param-constraint": None,
    "empty": "verified",
    "heegaard-kirby": "verified",
    "background": "refuted",
    "framing": "refuted",
    "link-crossing": "refuted",
    "link-extension": "refuted",
    "surgery-homology": "refuted",
    "primitive-pairs": "verified",
    "linking": None,
    "ab-det": "refuted",
    "ac-path": "verified",
    "construction": "verified",
}


def replay_verdict(objs, vdict):
    """Re-derive a recorded verdict from its witness and the parsed inputs.

    ``objs`` is the tuple of parsed input objects in command order.  Returns
    None on success; raises ReplayError when the witness fails to reproduce
    the recorded status, or certifies another status than the recorded
    one, and KeyError for an unsupported witness kind.
    """
    status = vdict["status"]
    if status == "unknown":
        raise ReplayError("unknown verdicts carry no witness to replay")
    w = vdict["witness"]
    if w is None:
        raise ReplayError("verdict has no witness")
    kind = w["kind"]
    certified = CERTIFIED_STATUS[kind]
    _need(certified in (None, status),
          "a %s witness certifies %s, not %s" % (kind, certified, status))
    one = objs[0]
    if kind == "params":
        _replay_params(one, w)
    elif kind == "params-mismatch":
        _replay_params_mismatch(one, w)
    elif kind == "torsion":
        _replay_torsion(one, w)
    elif kind == "detect-k":
        _replay_detect(one, w)
    elif kind in ("decomposition", "classification"):
        _replay_decomposition_witness(one, w)
    elif kind == "catalog-match":
        _replay_catalog_match(one, w)
    elif kind == "no-genus-one-match":
        computed = [heegaard_h1(d).free_rank for d in _pair_diagrams(one)]
        _need(computed == list(w["params"]), "recomputed parameters disagree")
        _need(tuple(computed) not in
              ((1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
              "parameters match a catalog diagram after all")
    elif kind == "standard-pair":
        _replay_standard_pair(one, w)
    elif kind == "nonstandard":
        _replay_nonstandard(one, w)
    elif kind == "param-constraint":
        got = _replay_param_constraint(one, w)
        _need(got == status, "constraint check returns %s, not %s"
              % (got, status))
    elif kind == "empty":
        _need(one.genus == 0, "diagram is not empty")
    elif kind == "heegaard-kirby":
        _replay_hk(one, w)
    elif kind == "background":
        _replay_background(one, w)
    elif kind == "framing":
        _replay_framing(one, w)
    elif kind == "link-crossing":
        _replay_link_crossing(one, w)
    elif kind == "link-extension":
        _replay_link_extension(one, w)
    elif kind == "surgery-homology":
        _replay_surgery_homology(one, w)
    elif kind == "primitive-pairs":
        _replay_primitive_pairs(one, w)
    elif kind == "linking":
        _replay_linking(one, w)
        got = "refuted" if "entry" in w else "verified"
        _need(got == status, "linking witness certifies %s, not %s"
              % (got, status))
    elif kind == "ab-det":
        _replay_ab_det(one, w)
    elif kind == "ac-path":
        _replay_ac_path(one, w)
    elif kind == "construction":
        _replay_construction(objs, w)
    else:
        raise KeyError(kind)


# -- deterministic constructions ----------------------------------------------

def apply_construction(op, args, objs):
    """Rebuild a constructive operation's output from inputs and arguments.

    Every branch is deterministic and search-free, so construction
    witnesses replay by digest comparison.
    """
    if op == "stabilize":
        kind = args["type"]
        t = objs[0]
        if kind == "heegaard":
            if not isinstance(t, HeegaardDiagram):
                raise ValueError("heegaard stabilization needs a heegaard file")
            return heegaard_stabilize(t)
        if not isinstance(t, TrisectionDiagram):
            raise ValueError("stabilization type %s needs a trisection" % kind)
        if kind == "balanced":
            out = t
            for i in (1, 2, 3):
                out = i_stabilize(out, i)
            return out
        return i_stabilize(t, int(kind))
    if op == "slide":
        d = objs[0]
        system = args["system"]
        if isinstance(d, TrisectionDiagram):
            if system not in ("alpha", "beta", "gamma"):
                raise ValueError("system must be alpha, beta, or gamma")
        elif isinstance(d, HeegaardDiagram):
            if system not in ("alpha", "beta"):
                raise ValueError("a heegaard diagram has alpha and beta only")
        else:
            raise ValueError("slide needs a diagram file")
        guide = tuple(words.parse_surface_word(args.get("guide", "")))
        cs = handleslide(d.system(system) if isinstance(d, TrisectionDiagram)
                         else getattr(d, system),
                         int(args["from"]), int(args["over"]),
                         guide=guide, sign=int(args.get("sign", 1)))
        if isinstance(d, TrisectionDiagram):
            parts = {"alpha": d.alpha, "beta": d.beta, "gamma": d.gamma,
                     system: cs}
            return TrisectionDiagram(d.genus, parts["alpha"], parts["beta"],
                                     parts["gamma"], d.declared_params)
        parts = {"alpha": d.alpha, "beta": d.beta, system: cs}
        return HeegaardDiagram(d.genus, parts["alpha"], parts["beta"])
    if op == "connect-sum":
        t1, t2 = objs
        if not (isinstance(t1, TrisectionDiagram)
                and isinstance(t2, TrisectionDiagram)):
            raise ValueError("connect-sum needs two trisection files")
        return connected_sum(t1, t2)
    if op == "hk-to-tri":
        H = objs[0]
        if not isinstance(H, HeegaardKirbyDiagram):
            raise ValueError("hk-to-tri needs a heegaard-kirby file")
        gamma = complete_link_to_system(H)
        if gamma is None:
            raise ValueError("no template completion of the link")
        n = heegaard_h1(H.background).free_rank
        return TrisectionDiagram(H.genus, H.background.alpha,
                                 H.background.beta, gamma,
                                 declared_params=(n, H.genus - H.c, H.m))
    if op == "tri-to-hk":
        t = objs[0]
        if not isinstance(t, TrisectionDiagram):
            raise ValueError("tri-to-hk needs a trisection file")
        picks = [tuple(p) for p in args["picks"]]
        from .diagram import HeegaardDiagram as HD
        from .kirby import FramedComponent
        H = HeegaardKirbyDiagram(
            t.genus, HD(t.genus, t.alpha, t.beta),
            tuple(FramedComponent(t.gamma.curve(gi)) for gi, _ in picks),
            m=int(args["m"]))
        return H
    if op == "catalog":
        raise ValueError("catalog output replays per diagram name")
    raise ValueError("unknown construction %r" % op)

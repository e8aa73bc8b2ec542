import contextlib
import io
import json
import pathlib
import re

import pytest

from trisect import diagio, reports
from trisect.ac import (BalancedPresentation, ab_det_refutation, ac_search,
                        ak_presentation)
from trisect.catalog import genus_one_diagram
from trisect.diagram import (HeegaardDiagram, TrisectionDiagram,
                             curve_from_template, detect_k,
                             standard_heegaard, system_from_templates,
                             trisection_params)
from trisect.kirby import (FramedComponent, HeegaardKirbyDiagram,
                           LinkingMatrix, gprc_necessary_check, validate_hk)
from trisect.moves import connected_sum, standardize

# the fields each kind's producer writes, besides "kind"
_FIELDS = {
    "params": ("ks", "pairs"),
    "params-mismatch": ("declared", "computed"),
    "torsion": ("h1", "factors"),
    "detect-k": ("k", "h1", "trace"),
    "classification": ("name", "names", "tree"),
    "heegaard-kirby": ("n", "c", "m", "background", "pi1"),
    "background": ("inner",),
    "framing": ("components", "n"),
    "link-crossing": ("pair", "count"),
    "link-extension": ("factors",),
    "surgery-homology": ("h1", "target_m"),
    "linking": ("entry", "value", "size"),
    "ab-det": ("det",),
    "ac-path": ("moves", "depth"),
}


def _inputs():
    hk = HeegaardKirbyDiagram(
        1, standard_heegaard(1, 0),
        (FramedComponent(curve_from_template(1, 1, 1, 0)),), m=1)
    return (genus_one_diagram("CP2"), hk, LinkingMatrix.zero(2),
            ak_presentation(1))


def _malformed(kind):
    fields = _FIELDS[kind]
    yield {"kind": kind}
    for f in fields:
        yield {"kind": kind, f: 5}
    yield dict({"kind": kind}, **{f: 5 for f in fields})


def test_every_checked_kind_has_its_fields_listed():
    assert set(_FIELDS) == set(reports.CHECKERS)


@pytest.mark.parametrize("kind", sorted(reports.CHECKERS))
def test_a_malformed_witness_is_a_replay_error(kind):
    # a missing field, a field of the wrong type or an input of the wrong
    # kind must fail the replay, never crash it and never confirm it
    certified, _, _ = reports.CHECKERS[kind]
    statuses = ("verified", "refuted") if certified is None else (certified,)
    for obj in _inputs():
        for w in _malformed(kind):
            for status in statuses:
                with pytest.raises(reports.ReplayError):
                    reports.replay_verdict((obj,), {"status": status,
                                                    "witness": w})


def test_forged_fields_of_a_replayable_witness_fail():
    s = genus_one_diagram("S1xS3")
    t = TrisectionDiagram(1, s.alpha, s.beta, s.gamma)  # nothing declared
    _, v = trisection_params(t)
    assert v.witness["kind"] == "params"
    reports.replay_verdict((t,), {"status": "verified", "witness": v.witness})
    forged = [
        # a params witness whose ranks do not cover all three pairs
        dict(v.witness, ks=[]),
        dict(v.witness, ks=[1, 1]),
    ]
    for w in forged:
        with pytest.raises(reports.ReplayError):
            reports.replay_verdict((t,), {"status": "verified", "witness": w})


def test_a_witness_binds_to_its_own_input():
    t = genus_one_diagram("CP2")  # parameters (0,0,0)
    # a mismatch recorded for declared parameters that are not this file's
    other = TrisectionDiagram(1, t.alpha, t.beta, t.gamma,
                              declared_params=(1, 1, 1))
    v = trisection_params(other)[1]
    assert v.witness["kind"] == "params-mismatch"
    reports.replay_verdict((other,), {"status": "refuted",
                                      "witness": v.witness})
    mine = TrisectionDiagram(1, t.alpha, t.beta, t.gamma,
                             declared_params=(0, 1, 0))
    assert trisection_params(mine)[1].witness["kind"] == "params-mismatch"
    with pytest.raises(reports.ReplayError, match="recomputed witness"):
        reports.replay_verdict((mine,), {"status": "refuted",
                                         "witness": v.witness})
    # a one-pair certificate offered for a whole trisection
    _, v = detect_k(HeegaardDiagram(1, t.alpha, t.beta))
    reports.replay_verdict((HeegaardDiagram(1, t.alpha, t.beta),),
                           {"status": "verified", "witness": v.witness})
    with pytest.raises(reports.ReplayError,
                       match="a detect-k witness needs one heegaard input"):
        reports.replay_verdict((t,), {"status": "verified",
                                      "witness": v.witness})


def test_a_witness_replayed_against_another_file_kind_names_its_input():
    t = genus_one_diagram("CP2")
    v = standardize(t)[1]
    d = HeegaardDiagram(1, t.alpha, t.beta)
    with pytest.raises(reports.ReplayError,
                       match="a classification witness needs one "
                             "trisection input"):
        reports.replay_verdict((d,), {"status": "verified",
                                      "witness": v.witness})


# witness kinds that engine modules write inside their own verdicts and
# that no report carries at the top, so they have no checker
_INTERNAL_KINDS = {"count", "pairing", "imprimitive", "lagrangian", "tietze"}


def test_the_kind_tables_agree_with_the_engine():
    written = re.compile(r'"kind": "([a-z0-9-]+)"')
    # reports.py writes no witness; its checks restate the kinds they check
    produced = set()
    for path in pathlib.Path(reports.__file__).parent.glob("*.py"):
        if path.name != "reports.py":
            produced |= set(written.findall(path.read_text(encoding="utf-8")))
    # a checked kind nothing writes is dead; a written kind nothing checks
    # would not replay
    assert set(reports.CHECKERS) <= produced
    assert produced <= set(reports.CHECKERS) | _INTERNAL_KINDS
    file_kinds = set(diagio._KINDS)
    for _, reads, _ in reports.CHECKERS.values():
        assert reads is None or reads in file_kinds
    for reads, _ in reports.BRIDGES.values():
        assert reads in file_kinds


def test_witness_indices_are_one_based_and_in_range():
    H = HeegaardKirbyDiagram(
        2, standard_heegaard(2, 0),
        (FramedComponent(curve_from_template(2, 1, 1, 0)),
         FramedComponent(curve_from_template(2, 1, 1, 1))), m=2)
    hopf = LinkingMatrix.from_rows([[0, 1], [1, 0]])
    honest = [(H, {"kind": "link-crossing", "pair": [1, 2], "count": 1}),
              (hopf, {"kind": "linking", "entry": [1, 2], "value": 1})]
    for obj, w in honest:
        reports.replay_verdict((obj,), {"status": "refuted", "witness": w})
    # index 0 used to wrap around to the last component or row
    forged = [(H, dict(honest[0][1], pair=[0, 1])),
              (H, dict(honest[0][1], pair=[1, 3])),
              (H, dict(honest[0][1], pair=[2, 2])),
              (hopf, dict(honest[1][1], entry=[0, 1])),
              (hopf, dict(honest[1][1], entry=[1, -1])),
              (hopf, dict(honest[1][1], entry=[3, 1]))]
    for obj, w in forged:
        with pytest.raises(reports.ReplayError):
            reports.replay_verdict((obj,), {"status": "refuted", "witness": w})


def test_replay_re_derives_the_recorded_reason():
    t, v = genus_one_diagram("CP2"), standardize(genus_one_diagram("CP2"))[1]
    honest = json.loads(json.dumps(v.to_dict()))
    assert reports.replay_verdict((t,), honest) == v
    # a library caller may pass no reason, and then none is compared
    del honest["reason"]
    assert reports.replay_verdict((t,), honest) == v
    with pytest.raises(reports.ReplayError,
                       match="the re-derived reason is 'diagram is CP2'"):
        reports.replay_verdict((t,), dict(honest, reason="diagram is S4"))


def test_an_ac_path_depth_is_a_count_of_at_most_its_moves():
    p = ak_presentation(1)
    honest = {"status": "verified",
              "witness": ac_search(p, 32, 20).verdict.witness}
    assert (len(honest["witness"]["moves"]), honest["witness"]["depth"]) \
        == (12, 4)
    assert reports.replay_verdict((p,), honest).reason == \
        "trivialized in 12 primitive moves (4 search edges)"
    for depth in (-5, "x", [1], True, 10 ** 6):
        forged = dict(honest["witness"], depth=depth)
        with pytest.raises(reports.ReplayError, match="depth"):
            reports.replay_verdict((p,), dict(honest, witness=forged))


def _built(tmp_path, command, obj, *flags):
    """The diagram ``command`` writes from ``obj``, and its exit code and
    error output."""
    from trisect.cli import run_command

    path, out = tmp_path / "in.txt", tmp_path / "out.txt"
    path.write_text(diagio.format_any(obj))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run_command([command, str(path), *flags, "-o", str(out)])
    built = diagio.parse_any(out.read_text()) if code == 0 else None
    return built, code, err.getvalue()


def test_a_slide_rebuilds_the_diagram_around_the_slid_system(tmp_path):
    t = genus_one_diagram("CP2")
    s = _built(tmp_path, "stabilize", t, "--type", "1")[0]
    args = ["--system", "gamma", "--from", "1", "--over", "2", "--sign", "-"]
    out = _built(tmp_path, "slide", s, *args)[0]
    assert (out.alpha, out.beta) == (s.alpha, s.beta)
    assert out.gamma != s.gamma
    assert out.declared_params == s.declared_params
    d = HeegaardDiagram(2, s.alpha, s.beta)
    out = _built(tmp_path, "slide", d, *args[:1], "beta", *args[2:])[0]
    assert isinstance(out, HeegaardDiagram) and out.alpha == d.alpha
    _, code, err = _built(tmp_path, "slide", d, *args)
    assert code == 3 and "alpha and beta only" in err


def _reflected(witness):
    """The witness with beta and gamma swapped and CP2 renamed CP2R."""
    text = json.dumps(dict(witness, order="acb")).replace('"CP2"', '"CP2R"')
    return json.loads(text)


def _classified_cp2():
    t = genus_one_diagram("CP2")
    return t, standardize(t)[1]


def _standardized_cp2_sum():
    t = connected_sum(genus_one_diagram("CP2"), genus_one_diagram("S1xS3"))
    return t, standardize(t)[1]


@pytest.mark.parametrize("verdict", [_classified_cp2, _standardized_cp2_sum])
def test_a_reflected_order_does_not_replay_cp2_as_cp2r(verdict):
    # swapping two systems reverses the orientation; replay reads no
    # system order from a witness, so one claiming a reflection fails
    t, v = verdict()
    honest = {"status": "verified", "witness": v.witness}
    reports.replay_verdict((t,), honest)
    forged = _reflected(v.witness)
    assert "CP2R" in forged["names"]
    with pytest.raises(reports.ReplayError):
        reports.replay_verdict((t,), dict(honest, witness=forged))


def test_an_ac_path_one_move_short_of_trivial_form_fails(monkeypatch):
    from trisect import ac

    def no_relabelings(n):
        raise AssertionError("built the relabelings of %d generators" % n)

    p = ak_presentation(1)
    witness = ac.ac_search(p, 32, 20).verdict.witness
    # replay checks the trivial form itself and builds no key
    monkeypatch.setattr(ac, "_relabelings", no_relabelings)
    reports.replay_verdict((p,), {"status": "verified", "witness": witness})
    short = dict(witness, moves=witness["moves"][:-1])
    assert not ac.replay_ac_path(
        p, [tuple(m) for m in short["moves"]]).is_trivial_form()
    with pytest.raises(reports.ReplayError, match="trivial form"):
        reports.replay_verdict((p,), {"status": "verified",
                                      "witness": short})


def _lens(p, q):
    """The genus-one Heegaard diagram with beta of slope (p, q)."""
    return HeegaardDiagram(1, system_from_templates(1, [(1, 1, 0)]),
                           system_from_templates(1, [(1, p, q)]))


def _hk(background, slopes, m, framing="surface"):
    g = background.genus
    return HeegaardKirbyDiagram(g, background, tuple(
        FramedComponent(curve_from_template(g, *s), framing)
        for s in slopes), m)


def _engine_witnesses():
    """(input, verdict) pairs: one verdict the engine writes for each
    witness kind, with the input it was written for."""
    cp2 = genus_one_diagram("CP2")
    cp2_sum = connected_sum(cp2, genus_one_diagram("S1xS3"))
    misdeclared = TrisectionDiagram(1, cp2.alpha, cp2.beta, cp2.gamma,
                                    declared_params=(1, 1, 1))
    s1xs2 = standard_heegaard(2, 1)
    det2 = BalancedPresentation(2, ((1, 1), (2,)))
    hopf = LinkingMatrix.from_rows([[0, 1], [1, 0]])
    return [
        (cp2_sum, trisection_params(cp2_sum)[1]),
        (misdeclared, trisection_params(misdeclared)[1]),
        (_lens(1, 2), detect_k(_lens(1, 2))[1]),
        (s1xs2, detect_k(s1xs2)[1]),
        (cp2_sum, standardize(cp2_sum)[1]),
        (_hk(s1xs2, [(2, 1, 0)], 2),
         validate_hk(_hk(s1xs2, [(2, 1, 0)], 2))),
        (_hk(_lens(1, 2), [], 0), validate_hk(_hk(_lens(1, 2), [], 0))),
        (_hk(_lens(1, 0), [(1, 0, 1)], 1, framing=0),
         validate_hk(_hk(_lens(1, 0), [(1, 0, 1)], 1, framing=0))),
        (_hk(standard_heegaard(2, 0), [(1, 1, 0), (1, 1, 1)], 2),
         validate_hk(_hk(standard_heegaard(2, 0), [(1, 1, 0), (1, 1, 1)],
                         2))),
        (_hk(_lens(0, 1), [(1, 0, 1)], 1),
         validate_hk(_hk(_lens(0, 1), [(1, 0, 1)], 1))),
        (_hk(_lens(1, 0), [], 2), validate_hk(_hk(_lens(1, 0), [], 2))),
        (hopf, gprc_necessary_check(hopf)),
        (det2, ab_det_refutation(det2)),
        (ak_presentation(1), ac_search(ak_presentation(1), 32, 20).verdict),
    ]


# fields that replay cannot check, each with the reason
_UNCHECKED = {("ac-path", "depth"): "it counts search edges, which only "
                                     "the search knows; depth + 1 is still "
                                     "in range, so only its type and range "
                                     "are checked"}


def _tampered(value):
    """A different value of the same type as ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return [_tampered(value[0])] + value[1:] if value else [0]
    key = min(value)
    return dict(value, **{key: _tampered(value[key])})


def _nested_paths(value, path):
    """The paths to the h1 and k fields nested in ``value``."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        if key in ("h1", "k"):
            yield path + (key,)
        yield from _nested_paths(item, path + (key,))


def _tamper_at(witness, path):
    out = json.loads(json.dumps(witness))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _tampered(node[path[-1]])
    return out


def test_the_engine_witnesses_cover_every_checked_kind():
    kinds = [v.witness["kind"] for _, v in _engine_witnesses()]
    assert sorted(kinds) == sorted(reports.CHECKERS)


def _engine_witness(kind):
    """The input and the replayed report of the engine witness of
    ``kind``, as a JSON document holds it."""
    obj, v = next((obj, v) for obj, v in _engine_witnesses()
                  if v.witness["kind"] == kind)
    honest = {"status": v.status,
              "witness": json.loads(json.dumps(v.witness))}
    reports.replay_verdict((obj,), honest)
    return obj, honest


@pytest.mark.parametrize("kind", sorted(reports.CHECKERS))
def test_every_tampered_field_of_an_engine_witness_fails(kind):
    obj, honest = _engine_witness(kind)
    witness = honest["witness"]
    paths = [(key,) for key in witness if key != "kind"]
    for key, value in witness.items():
        paths += [p for p in _nested_paths(value, (key,)) if len(p) > 1]
    assert paths
    replayed = []
    for path in paths:
        if (kind, path[0]) in _UNCHECKED:
            continue
        forged = _tamper_at(witness, path)
        assert forged != witness
        try:
            reports.replay_verdict((obj,), dict(honest, witness=forged))
        except reports.ReplayError:
            continue
        replayed.append("/".join(map(str, path)))
    assert replayed == [], kind


def _object_paths(value, path):
    """The paths to ``value``, if it is an object, and to every object
    nested in it."""
    if isinstance(value, dict):
        yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _object_paths(item, path + (key,))


@pytest.mark.parametrize("kind", sorted(reports.CHECKERS))
def test_a_field_added_to_an_engine_witness_fails(kind):
    obj, honest = _engine_witness(kind)
    replayed = []
    for path in _object_paths(honest["witness"], ()):
        forged = json.loads(json.dumps(honest["witness"]))
        node = forged
        for key in path:
            node = node[key]
        node["added"] = 0
        try:
            reports.replay_verdict((obj,), dict(honest, witness=forged))
        except reports.ReplayError:
            continue
        replayed.append("/".join(map(str, path)) or "(top)")
    assert replayed == [], kind


def test_a_witness_replays_only_in_the_form_the_engine_writes():
    from trisect.diagram import quotient_presentation
    from trisect.presentations import tietze_simplify

    d = standard_heegaard(1, 1)
    v = detect_k(d)[1]
    # a genus-one pair is decided by its H1, so its witness has no trace
    trace = tietze_simplify(quotient_presentation(
        1, [d.alpha, d.beta]))[1].witness["trace"]
    t = connected_sum(genus_one_diagram("CP2"), genus_one_diagram("S1xS3"))
    c = standardize(t)[1].witness
    slides = {s: c["tree"]["slides"][s] for s in ("alpha", "beta")}
    # classify refutes a file that declares the wrong parameters
    cp2 = genus_one_diagram("CP2")
    misdeclared = TrisectionDiagram(1, cp2.alpha, cp2.beta, cp2.gamma,
                                    declared_params=(1, 1, 1))
    # each of these replayed while replay compared the recorded fields
    # one at a time
    forged = [(d, dict(v.witness, trace=trace)),
              (t, dict(c, names=c["names"][::-1])),
              (t, dict(c, tree=dict(c["tree"], slides=slides))),
              (misdeclared, standardize(cp2)[1].witness)]
    for obj, w in forged:
        with pytest.raises(reports.ReplayError):
            reports.replay_verdict((obj,), {"status": "verified",
                                            "witness": w})


def test_replaying_a_search_kind_runs_no_search(monkeypatch):
    from trisect import ac, moves, presentations

    witnesses = _engine_witnesses()

    def refused(*args, **kwargs):
        raise AssertionError("a search ran during replay")

    for module, name in ((presentations, "_greedy"),
                         (moves, "_descend_words"), (ac, "ac_search")):
        monkeypatch.setattr(module, name, refused)
    for obj, v in witnesses:
        reports.replay_verdict((obj,), json.loads(json.dumps(v.to_dict())))


def test_a_null_finding_is_refused_before_any_search(monkeypatch):
    # a producer reads None as "search", so each of these nulls ran one
    # Tietze search before its replay failed
    from trisect import presentations

    cp2_sum = connected_sum(genus_one_diagram("CP2"),
                            genus_one_diagram("S1xS3"))
    s1xs2 = standard_heegaard(2, 1)
    hk = _hk(s1xs2, [(2, 1, 0)], 2)
    cases = [(cp2_sum, trisection_params(cp2_sum)[1], ("pairs", 0)),
             (s1xs2, detect_k(s1xs2)[1], ("trace",)),
             (hk, validate_hk(hk), ("background",)),
             (hk, validate_hk(hk), ("pi1", "trace"))]
    calls = []
    search = presentations._search

    def counted(p):
        calls.append(p)
        return search(p)

    monkeypatch.setattr(presentations, "_search", counted)
    for obj, v, path in cases:
        honest = json.loads(json.dumps(v.to_dict()))
        reports.replay_verdict((obj,), honest)
        forged = json.loads(json.dumps(honest["witness"]))
        node = forged
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = None
        with pytest.raises(reports.ReplayError, match="is null"):
            reports.replay_verdict((obj,), dict(honest, witness=forged))
    assert calls == []

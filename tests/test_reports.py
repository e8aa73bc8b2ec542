import json

import pytest

from trisect import reports
from trisect.ac import ak_presentation
from trisect.catalog import genus_one_diagram
from trisect.diagram import (HeegaardDiagram, TrisectionDiagram,
                             curve_from_template, detect_k, standard_heegaard,
                             trisection_params)
from trisect.kirby import FramedComponent, HeegaardKirbyDiagram, LinkingMatrix
from trisect.moves import connected_sum, standardize

# the fields each kind's producer writes, besides "kind"
_FIELDS = {
    "params": ("ks", "pairs"),
    "params-mismatch": ("declared", "computed"),
    "torsion": ("h1", "factors"),
    "detect-k": ("k", "h1", "trace"),
    "classification": ("name", "names", "tree"),
    "standard-pair": ("k", "pairing"),
    "nonstandard": ("matrix",),
    "param-constraint": ("case", "ks"),
    "heegaard-kirby": ("n", "c", "m", "background", "pi1"),
    "background": ("inner",),
    "framing": ("components", "n"),
    "link-crossing": ("pair", "count"),
    "link-extension": ("factors",),
    "surgery-homology": ("h1", "target_m"),
    "primitive-pairs": ("pairs",),
    "linking": ("entry", "value", "size"),
    "ab-det": ("det",),
    "ac-path": ("moves", "depth"),
    "construction": ("op", "args", "output_sha256"),
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
    certified, _ = reports.CHECKERS[kind]
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
    # a constraint case on parameters that are not the diagram's
    w = {"kind": "param-constraint", "case": "k1=g", "ks": [1, 0, 1]}
    with pytest.raises(reports.ReplayError, match="recomputed parameters"):
        reports.replay_verdict((t,), {"status": "refuted", "witness": w})
    # a one-pair certificate offered for a whole trisection
    _, v = detect_k(HeegaardDiagram(1, t.alpha, t.beta))
    reports.replay_verdict((HeegaardDiagram(1, t.alpha, t.beta),),
                           {"status": "verified", "witness": v.witness})
    with pytest.raises(reports.ReplayError, match="heegaard diagram"):
        reports.replay_verdict((t,), {"status": "verified",
                                      "witness": v.witness})


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


def test_every_construction_is_in_the_table():
    assert set(reports.CONSTRUCTIONS) == {"stabilize", "slide", "connect-sum",
                                          "hk-to-tri", "tri-to-hk"}
    with pytest.raises(ValueError, match="unknown construction 'catalog'"):
        reports.apply_construction("catalog", {}, ())


def test_a_slide_rebuilds_the_diagram_around_the_slid_system():
    t = genus_one_diagram("CP2")
    s = reports.apply_construction("stabilize", {"type": "1"}, (t,))
    args = {"system": "gamma", "from": 1, "over": 2, "sign": -1}
    out = reports.apply_construction("slide", args, (s,))
    assert (out.alpha, out.beta) == (s.alpha, s.beta)
    assert out.gamma != s.gamma
    assert out.declared_params == s.declared_params
    d = HeegaardDiagram(2, s.alpha, s.beta)
    out = reports.apply_construction("slide", dict(args, system="beta"), (d,))
    assert isinstance(out, HeegaardDiagram) and out.alpha == d.alpha
    with pytest.raises(ValueError, match="alpha and beta only"):
        reports.apply_construction("slide", args, (d,))


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

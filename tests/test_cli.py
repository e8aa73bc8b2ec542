import json
import re

import pytest

from trisect import cli, diagio, reports
from trisect.catalog import genus_one_diagram
from trisect.cli import run_command
from trisect.diagram import (HeegaardDiagram, TrisectionDiagram,
                             curve_from_template, standard_heegaard,
                             system_from_templates)
from trisect.kirby import (FramedComponent, HeegaardKirbyDiagram,
                           LinkingMatrix, validate_hk)
from trisect.moves import connected_sum


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def tri_file(tmp_path, name, diagram):
    return write(tmp_path, name, diagio.format_diagram(diagram))


# -- verdict-to-exit-code mapping ----------------------------------------------

def test_classify_catalog_cp2_exits_zero(tmp_path, capsys):
    path = tri_file(tmp_path, "cp2.tri", genus_one_diagram("CP2"))
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert "name: CP2" in out
    assert "verdict: verified" in out


def test_invariants_of_s1xs3(tmp_path, capsys):
    path = tri_file(tmp_path, "s.tri", genus_one_diagram("S1xS3"))
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0
    assert "params: (1;1,1,1)" in out
    assert "chi: 0" in out
    assert "h1: Z" in out
    # chi = 2 + g - (k1+k2+k3) follows from the decomposition; no note
    # offers another convention, here where g != k1+k2+k3
    assert "note:" not in out


def test_agreeing_conventions_omit_the_note(tmp_path, capsys):
    # g = k1+k2+k3 for the S4 sum, so chi = 2
    t = connected_sum(genus_one_diagram("S4STAB1"),
                      connected_sum(genus_one_diagram("S4STAB2"),
                                    genus_one_diagram("S4STAB3")))
    path = tri_file(tmp_path, "s4.tri", t)
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0 and "note:" not in out and "chi: 2" in out


def test_wrong_declared_params_exit_one(tmp_path, capsys):
    text = diagio.format_diagram(genus_one_diagram("CP2"))
    text = text.replace("params=(0,0,0)", "params=(1,1,1)")
    path = write(tmp_path, "bad.tri", text)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "verdict: refuted" in out
    assert "params-mismatch" in out


def test_exhausted_search_exits_two(capsys):
    code, out, _ = run(capsys, "ac-search", "--ak", "3", "--max-length", "24",
                       "--max-depth", "12", "--max-states", "500")
    assert code == 2
    assert "verdict: unknown" in out
    assert "exhausted" in out


def test_a_search_whose_keys_outgrow_the_state_cap_exits_two(
        tmp_path, capsys, monkeypatch):
    from trisect import ac

    def no_relabelings(n):
        raise AssertionError("built the relabelings of %d generators" % n)

    monkeypatch.setattr(ac, "_relabelings", no_relabelings)
    # x1, ..., x8 and x9 x1: 2^9 9! signed relabelings per key
    text = "presentation generators=9\n" + "".join(
        "relator: x%d\n" % g for g in range(1, 9)) + "relator: x9 x1\n"
    code, out, _ = run(capsys, "ac-search", write(tmp_path, "p9.pres", text))
    assert code == 2
    assert "verdict: unknown" in out
    assert "exhausted" in out and "relabelings" in out


def test_found_search_exits_zero(capsys):
    code, out, _ = run(capsys, "ac-search", "--ak", "1",
                       "--max-length", "32", "--max-depth", "20")
    assert code == 0
    assert "path-moves:" in out
    assert "ac-path" in out


def test_search_report_counts_class_and_orbit_images(capsys):
    code, out, _ = run(capsys, "ac-search", "--ak", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    # AK(1) at the default budgets: 17 classes computed, 12 relabeled, by
    # the search's expansions (writing the path out counts none)
    assert (doc["payload"]["class-images"],
            doc["payload"]["orbit-images"]) == (17, 12)
    # 52 children keyed, 27 skipped for an earlier sibling's relator class
    assert (doc["payload"]["child-keys"],
            doc["payload"]["sibling-skips"]) == (52, 27)
    assert set(doc["verdict"]["witness"]) == {"kind", "moves", "depth"}


def test_search_report_says_whether_its_bound_is_complete(capsys):
    # AK(2) within total length 11: its own component closed at its root,
    # and only the length cap cut anything, so "no trivialization" is a
    # bound
    code, out, _ = run(capsys, "ac-search", "--ak", "2", "--max-length", "11",
                       "--max-depth", "1000000", "--json")
    assert code == 2
    doc = json.loads(out)
    payload = doc["payload"]
    assert (payload["complete"], payload["pruned-depth"],
            payload["at-generator-cap"], payload["aborted"]) == \
        (True, 0, 0, None)
    assert payload["pruned-length"] > 0
    assert doc["verdict"]["witness"] is None
    # the state cap cut this one
    code, out, _ = run(capsys, "ac-search", "--ak", "3", "--max-states", "500")
    assert code == 2
    assert "complete: False" in out and "aborted: state-cap" in out


def test_usage_errors_exit_three(tmp_path, capsys):
    assert run(capsys, "no-such-command")[0] == 3
    assert run(capsys, "ac-search", "--max-length", "8")[0] == 3
    path = tri_file(tmp_path, "u.tri", genus_one_diagram("S4STAB3"))
    assert run(capsys, "tri-to-hk", path, "--picks", "0:7")[0] == 3
    assert run(capsys, "tri-to-hk", path, "--picks", "nope")[0] == 3
    assert run(capsys, "classify", write(tmp_path, "m.lnk",
                                         "linking size=1\nrow: 0\n"))[0] == 3
    # a presentation has no genus; validate used to crash on it (exit 5)
    pres = write(tmp_path, "p.pres", "presentation generators=1\nrelator: x1\n")
    code, _, err = run(capsys, "validate", pres)
    assert code == 3 and "got presentation" in err


@pytest.mark.parametrize("flag", ["--max-length", "--max-depth",
                                  "--max-states"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_search_budgets_exit_three(capsys, flag, value):
    code, out, err = run(capsys, "ac-search", "--ak", "2", flag, value)
    assert code == 3
    assert out == ""
    assert "usage error: %s needs a value >= 1" % flag in err


def test_io_and_parse_errors_exit_four(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.tri"))
    assert code == 4 and "io error" in err
    path = write(tmp_path, "bad.tri",
                 "trisection genus=1\nalpha: @1(2,4)\n"
                 "beta: @1(0,1)\ngamma: @1(1,1)\n")
    code, _, err = run(capsys, "validate", path)
    assert code == 4
    assert "line 2, col 8" in err


def test_template_handle_above_the_genus_exits_four(tmp_path, capsys):
    path = write(tmp_path, "high.tri",
                 "trisection genus=2\nalpha: @1(1,0); @17(0,1)\n"
                 "beta: @1(0,1); @2(0,1)\ngamma: @1(1,1); @2(1,0)\n")
    code, out, err = run(capsys, "validate", path)
    assert code == 4 and "verdict" not in out
    assert "line 2, col 17" in err and "handle 17 exceeds genus 2" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# every command with all of its flags set, then one usage error of it
_COMMAND_ARGVS = {
    "validate": (["f.tri", "--json"], ["f.tri", "g.tri"]),
    "invariants": (["f.tri", "--json"], []),
    "classify": (["f.tri", "--json"], ["--bogus", "f.tri"]),
    "stabilize": (["f.tri", "--type", "heegaard", "-o", "out.tri", "--json"],
                  ["f.tri", "--type", "4"]),
    "connect-sum": (["a.tri", "b.tri", "--output", "out.tri", "--json"],
                    ["a.tri"]),
    "slide": (["f.tri", "--system", "beta", "--from", "2", "--over", "1",
               "--guide", "x1 Y2", "--sign", "-", "-o", "out.tri", "--json"],
              ["f.tri", "--system", "beta", "--from", "two", "--over", "1"]),
    "hk-to-tri": (["f.hk", "-o", "out.tri", "--json"], ["--output"]),
    "tri-to-hk": (["f.tri", "--picks", "1:1,2:3", "-o", "out.hk", "--json"],
                  ["f.tri"]),
    "gprc-check": (["f.lnk", "--json"], []),
    "ac-search": (["p.pres", "--ak", "2", "--max-length", "16",
                   "--max-depth", "9", "--max-states", "500", "--stable",
                   "--json"], ["--max-depth", "deep"]),
    "catalog": (["figure2", "-o", "out.txt", "--json"], ["figure3"]),
    "replay": (["r.json", "a.tri", "b.tri", "--json"], []),
}


def test_each_command_builds_only_its_own_subparser():
    assert set(_COMMAND_ARGVS) == set(cli._commands())
    for name, (argv, _) in _COMMAND_ARGVS.items():
        whole = cli._build_parser().parse_args([name] + argv)
        alone = cli._build_parser(name)
        assert alone.parse_args([name] + argv) == whole
        sub = next(a for a in alone._actions if a.dest == "command")
        assert list(sub.choices) == [name]
    for argv in (None, "--help", "no-such-command"):
        sub = next(a for a in cli._build_parser(argv)._actions
                   if a.dest == "command")
        assert list(sub.choices) == list(cli._commands())


@pytest.mark.parametrize("name", sorted(_COMMAND_ARGVS))
def test_usage_errors_of_each_command_exit_three(capsys, name):
    code, out, err = run(capsys, name, *_COMMAND_ARGVS[name][1])
    assert code == 3 and out == ""
    assert err.startswith("usage error: ")
    code, out, _ = run(capsys, name, "--help")
    assert code == 0 and out.startswith("usage: trisect %s " % name)


# -- constructive commands -----------------------------------------------------

def test_catalog_bundle_classifies_back_to_its_names(tmp_path, capsys):
    for figure, names in (("figure1", ("CP2", "CP2R", "S1xS3")),
                          ("figure2", ("S4STAB1", "S4STAB2", "S4STAB3"))):
        out_path = tmp_path / (figure + ".txt")
        code, out, _ = run(capsys, "catalog", figure, "-o", str(out_path))
        assert code == 0
        assert "names: %s" % " ".join(names) in out
        blocks = [b for b in out_path.read_text().split("\n\n") if b.strip()]
        assert len(blocks) == 3
        for block, name in zip(blocks, names):
            assert block.splitlines()[0] == "# %s" % name
            body = "\n".join(block.splitlines()[1:]) + "\n"
            assert diagio.parse_diagram(body) == genus_one_diagram(name)


def test_stabilize_and_connect_sum_compose(tmp_path, capsys):
    cp2 = tri_file(tmp_path, "cp2.tri", genus_one_diagram("CP2"))
    out1 = str(tmp_path / "stab.tri")
    code, _, _ = run(capsys, "stabilize", cp2, "--type", "3", "-o", out1)
    assert code == 0
    code, out, _ = run(capsys, "invariants", out1)
    assert "params: (2;0,0,1)" in out
    s1 = tri_file(tmp_path, "s.tri", genus_one_diagram("S1xS3"))
    out2 = str(tmp_path / "sum.tri")
    assert run(capsys, "connect-sum", out1, s1, "-o", out2)[0] == 0
    code, out, _ = run(capsys, "classify", out2)
    assert code == 0
    assert "name: S1xS3" in out


def test_stabilize_without_output_prints_the_diagram(tmp_path, capsys):
    hee = write(tmp_path, "h.hee",
                diagio.format_diagram(standard_heegaard(1, 1)))
    code, out, _ = run(capsys, "stabilize", hee, "--type", "heegaard")
    assert code == 0
    tail = out.split("\n\n", 1)[1]
    assert diagio.parse_diagram(tail).genus == 2


def test_slide_preserves_classification(tmp_path, capsys):
    t = connected_sum(genus_one_diagram("CP2"), genus_one_diagram("CP2R"))
    path = tri_file(tmp_path, "t.tri", t)
    slid = str(tmp_path / "slid.tri")
    code, _, _ = run(capsys, "slide", path, "--system", "beta",
                     "--from", "2", "--over", "1", "--guide", "x1",
                     "--sign", "-", "-o", slid)
    assert code == 0
    code, out, _ = run(capsys, "classify", slid)
    assert code == 0
    assert "name: CP2 # CP2R" in out


def test_slide_usage_errors(tmp_path, capsys):
    path = tri_file(tmp_path, "t.tri", genus_one_diagram("CP2"))
    code, _, err = run(capsys, "slide", path, "--system", "alpha",
                       "--from", "1", "--over", "1")
    assert code == 3 and "itself" in err
    hee = write(tmp_path, "h.hee",
                diagio.format_diagram(standard_heegaard(2, 0)))
    code, _, err = run(capsys, "slide", hee, "--system", "gamma",
                       "--from", "1", "--over", "2")
    assert code == 3


def test_hk_round_trip_through_files(tmp_path, capsys):
    hkt = write(tmp_path, "u.hkt",
                "heegaard-kirby genus=1\n"
                "alpha: @1(1,0)\n"
                "beta: @1(0,1)\n"
                "link: @1(1,0) framing=surface\n"
                "target m=1\n")
    tri = str(tmp_path / "u.tri")
    code, out, _ = run(capsys, "hk-to-tri", hkt, "-o", tri)
    assert code == 0
    assert "params: (1;0,0,1)" in out
    back = str(tmp_path / "back.hkt")
    code, out, _ = run(capsys, "tri-to-hk", tri, "--picks", "1:1", "-o", back)
    assert code == 0
    assert diagio.parse_any((tmp_path / "back.hkt").read_text()) == \
        diagio.parse_any((tmp_path / "u.hkt").read_text())


def test_gprc_check_exit_codes(tmp_path, capsys):
    zero = write(tmp_path, "z.lnk", "linking size=2\nrow: 0 0\nrow: 0 0\n")
    hopf = write(tmp_path, "h.lnk", "linking size=2\nrow: 0 1\nrow: 1 0\n")
    code, out, _ = run(capsys, "gprc-check", zero)
    assert code == 0 and "surgery-h1: Z^2" in out
    code, out, _ = run(capsys, "gprc-check", hopf)
    assert code == 1 and "entry (1, 2)" in out


def test_invariants_on_linking_and_presentation_files(tmp_path, capsys):
    lnk = write(tmp_path, "m.lnk", "linking size=1\nrow: 5\n")
    code, out, _ = run(capsys, "invariants", lnk)
    assert code == 0 and "surgery-h1: Z/5" in out
    pres = write(tmp_path, "p.pres",
                 "presentation generators=2\nrelator: x1 x1\nrelator: x2\n")
    code, out, _ = run(capsys, "invariants", pres)
    assert code == 0 and "ab-det: 2" in out


def test_ac_search_from_file(tmp_path, capsys):
    pres = write(tmp_path, "p.pres",
                 "presentation generators=1\nrelator: x1\n")
    code, out, _ = run(capsys, "ac-search", pres, "--max-length", "8",
                       "--max-depth", "4")
    assert code == 0 and "path-moves: 0" in out
    bad = write(tmp_path, "bad.pres",
                "presentation generators=2\nrelator: x1 x1\nrelator: x2\n")
    code, out, _ = run(capsys, "ac-search", bad, "--max-length", "8",
                       "--max-depth", "4")
    assert code == 1 and "ab-det" in out
    # the refutation reports the counters of a search that built no key
    for line in ("stored: 0", "child-keys: 0", "sibling-skips: 0"):
        assert line in out


# -- reports and replay ----------------------------------------------------------

def _json_report(capsys, tmp_path, name, *argv):
    code = run_command(list(argv) + ["--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    path = write(tmp_path, name, out)
    return code, doc, path


def test_json_report_shape(tmp_path, capsys):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    code, doc, _ = _json_report(capsys, tmp_path, "r.json", "classify", tri)
    assert code == 0
    assert doc["operation"] == "classify"
    assert doc["engine"].startswith("trisect ")
    assert doc["verdict"]["status"] == "verified"
    assert doc["inputs"][0]["sha256"] == \
        reports.sha256_text((tmp_path / "c.tri").read_text())
    assert doc["payload"]["name"] == "CP2"


def test_reports_time_runs_below_one_millisecond(capsys):
    code, out, _ = run(capsys, "catalog", "figure1", "--json")
    assert code == 0
    elapsed = json.loads(out)["elapsed_ms"]
    assert isinstance(elapsed, float) and elapsed > 0
    _, out, _ = run(capsys, "catalog", "figure1")
    assert re.search(r"^elapsed-ms: \d+\.\d{3}$", out, re.M)


def test_replay_confirms_verified_and_refuted(tmp_path, capsys):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    _, _, rep = _json_report(capsys, tmp_path, "r1.json", "classify", tri)
    code, out, _ = run(capsys, "replay", rep, tri)
    assert code == 0 and "replay confirms" in out

    hopf = write(tmp_path, "h.lnk", "linking size=2\nrow: 0 1\nrow: 1 0\n")
    _, _, rep = _json_report(capsys, tmp_path, "r2.json", "gprc-check", hopf)
    code, out, _ = run(capsys, "replay", rep, hopf)
    assert code == 1 and "replay confirms" in out


def test_classify_refutes_from_the_input_pairs_and_replays(tmp_path, capsys):
    # (alpha, beta) is L(2,1) # L(3,1): its H1 is Z/6, while each
    # genus-one piece shows only Z/2 or Z/3
    tri = write(tmp_path, "t.tri",
                "trisection genus=2\nalpha: @1(1,0) ; @2(1,0)\n"
                "beta: @1(1,2) ; @2(1,3)\ngamma: @1(0,1) ; @2(0,1)\n")
    code, doc, rep = _json_report(capsys, tmp_path, "r.json", "classify", tri)
    assert code == 1
    assert doc["verdict"]["witness"]["kind"] == "torsion"
    assert doc["verdict"]["witness"]["factors"] == [6]
    code, out, _ = run(capsys, "replay", rep, tri)
    assert code == 1 and "replay confirms" in out


def test_classify_verifies_a_sum_outside_the_classified_range(tmp_path,
                                                            capsys):
    # (3;1,1,1): max(k) < g-1, but the sum splits into its pieces
    t = connected_sum(connected_sum(genus_one_diagram("CP2"),
                                    genus_one_diagram("CP2R")),
                      genus_one_diagram("S1xS3"))
    tri = tri_file(tmp_path, "t.tri", t)
    code, doc, rep = _json_report(capsys, tmp_path, "r.json", "classify", tri)
    assert code == 0
    assert doc["payload"]["name"] == "S1xS3 # CP2 # CP2R"
    assert doc["verdict"]["witness"]["kind"] == "classification"
    code, out, _ = run(capsys, "replay", rep, tri)
    assert code == 0 and "replay confirms" in out


def test_classify_refutes_wrong_declared_params_at_any_genus(tmp_path,
                                                            capsys):
    t = connected_sum(genus_one_diagram("CP2"), genus_one_diagram("CP2R"))
    text = diagio.format_diagram(t)
    tri = write(tmp_path, "t.tri",
                text.replace("params=(0,0,0)", "params=(2,2,2)"))
    code, doc, rep = _json_report(capsys, tmp_path, "r.json", "classify", tri)
    assert code == 1
    assert doc["verdict"]["witness"] == {
        "kind": "params-mismatch", "declared": [2, 2, 2],
        "computed": [0, 0, 0]}
    code, out, _ = run(capsys, "replay", rep, tri)
    assert code == 1 and "replay confirms" in out


# a genus-2 unknot over S3 surgers to S1xS2, not to the declared #^2
_HK_WRONG_M = ("heegaard-kirby genus=2\nalpha: @1(1,0) ; @2(1,0)\n"
               "beta: @1(0,1) ; @2(0,1)\nlink: @1(1,0) framing=surface\n"
               "target m=2\n")
# an integer-framed unknot over a genus-1 S3, with a target m over the genus
_HK_INTEGER_OVER_GENUS = ("heegaard-kirby genus=1\nalpha: @1(1,0)\n"
                          "beta: @1(0,1)\nlink: @1(1,0) framing=-1\n"
                          "target m=5\n")
# gamma 1 meets beta 1 once, so the picks 1:1 are sound
_TRI_PICKABLE = ("trisection genus=1\nalpha: @1(1,0)\nbeta: @1(0,1)\n"
                 "gamma: @1(1,0)\n")
# gamma 1 misses beta 1, so tri-to-hk refuses the picks 1:1
_TRI_PARALLEL = ("trisection genus=1\nalpha: @1(1,0)\nbeta: @1(1,0)\n"
                 "gamma: @1(1,0)\n")


def test_replay_of_derived_object_reports(tmp_path, capsys):
    hkt = write(tmp_path, "u.hkt",
                "heegaard-kirby genus=1\nalpha: @1(1,0)\nbeta: @1(0,1)\n"
                "link: @1(1,0) framing=surface\ntarget m=1\n")
    _, _, rep = _json_report(capsys, tmp_path, "r.json", "hk-to-tri", hkt)
    assert run(capsys, "replay", rep, hkt)[0] == 0

    tri = tri_file(tmp_path, "u.tri", genus_one_diagram("S4STAB3"))
    _, _, rep = _json_report(capsys, tmp_path, "r2.json", "tri-to-hk", tri,
                             "--picks", "1:1")
    assert run(capsys, "replay", rep, tri)[0] == 0

    # the refutations each bridge command writes replay too
    hkt = write(tmp_path, "m.hkt", _HK_WRONG_M)
    code, doc, rep = _json_report(capsys, tmp_path, "r3.json", "hk-to-tri",
                                  hkt)
    assert code == 1
    assert doc["verdict"]["witness"]["kind"] == "surgery-homology"
    assert run(capsys, "replay", rep, hkt)[0] == 1

    tri = write(tmp_path, "p.tri",
                _TRI_PICKABLE.replace("genus=1", "genus=1 params=(1,1,1)"))
    code, doc, rep = _json_report(capsys, tmp_path, "r4.json", "tri-to-hk",
                                  tri, "--picks", "1:1")
    assert code == 1
    assert doc["verdict"]["witness"] == {
        "kind": "params-mismatch", "declared": [1, 1, 1],
        "computed": [0, 0, 1]}
    assert run(capsys, "replay", rep, tri)[0] == 1


def test_hk_to_tri_over_the_genus_exits_two_and_writes_nothing(tmp_path,
                                                                capsys):
    # an integer framing over S3 leaves the surgered homology undecided,
    # and no genus-1 trisection declares k3 = 5
    hkt = write(tmp_path, "s3.hkt", _HK_INTEGER_OVER_GENUS)
    out = str(tmp_path / "out.tri")
    code, doc, rep = _json_report(capsys, tmp_path, "r.json", "hk-to-tri",
                                  hkt, "-o", out)
    assert code == 2 and doc["verdict"]["status"] == "unknown"
    assert "params" not in doc["payload"]
    assert "output-sha256" not in doc["payload"]
    assert not (tmp_path / "out.tri").exists()
    assert run(capsys, "replay", rep, hkt)[0] == 2
    assert run(capsys, "validate", hkt)[0] == 2


def _picked_hk(text, m):
    """The surgery diagram that --picks 1:1 reads off a genus-1 trisection
    file, with target ``m``."""
    t = diagio.parse_any(text)
    return HeegaardKirbyDiagram(1, HeegaardDiagram(1, t.alpha, t.beta),
                                (FramedComponent(t.gamma.curve(1)),), m)


def _forge_target_m(doc):
    # the picks give target m 1, which the input verifies
    doc["payload"]["target-m"] = 2
    doc["verdict"].update(status="refuted", witness={
        "kind": "surgery-homology", "h1": "Z", "target_m": 2})


def _forge_refused_picks(doc):
    doc["inputs"][0]["sha256"] = reports.sha256_text(_TRI_PARALLEL)
    doc["verdict"] = validate_hk(_picked_hk(_TRI_PARALLEL, 1)).to_dict()


def _forge_unwritten_witness(doc):
    # true of the assembled trisection, but hk-to-tri refutes from the
    # surgered homology before it assembles one
    doc["verdict"]["witness"] = {"kind": "params-mismatch",
                                 "declared": [0, 1, 2], "computed": [0, 1, 1]}


_HK_UNKNOT = ("heegaard-kirby genus=1\nalpha: @1(1,0)\nbeta: @1(0,1)\n"
              "link: @1(1,0) framing=surface\ntarget m=1\n")


def _forge_validate_witness(doc):
    # validate's certificate of the same file speaks of the surgery
    # diagram, not of the trisection hk-to-tri writes
    doc["verdict"] = validate_hk(diagio.parse_any(_HK_UNKNOT)).to_dict()


def _forge_payload(field, value):
    return lambda doc: doc["payload"].update({field: value})


@pytest.mark.parametrize("argv, text, replayed, forge", [
    (["tri-to-hk", "--picks", "1:1"], _TRI_PICKABLE, _TRI_PICKABLE,
     _forge_target_m),
    (["tri-to-hk", "--picks", "1:1"], _TRI_PICKABLE, _TRI_PARALLEL,
     _forge_refused_picks),
    (["hk-to-tri"], _HK_WRONG_M, _HK_WRONG_M, _forge_unwritten_witness),
    (["hk-to-tri"], _HK_UNKNOT, _HK_UNKNOT,
     _forge_payload("output-sha256", "0" * 64)),
    (["hk-to-tri"], _HK_UNKNOT, _HK_UNKNOT,
     _forge_payload("params", "(9;9,9,9)")),
    (["hk-to-tri"], _HK_UNKNOT, _HK_UNKNOT, _forge_payload("components", 7)),
    (["hk-to-tri"], _HK_UNKNOT, _HK_UNKNOT, _forge_validate_witness),
    (["tri-to-hk", "--picks", "1:1"], _TRI_PICKABLE, _TRI_PICKABLE,
     _forge_payload("output-sha256", "0" * 64)),
    (["tri-to-hk", "--picks", "1:1"], _TRI_PICKABLE, _TRI_PICKABLE,
     _forge_payload("components", 7)),
], ids=["target-m", "refused-picks", "unwritten-witness",
        "hk-to-tri-output-sha256", "hk-to-tri-params", "hk-to-tri-components",
        "hk-to-tri-validate-witness",
        "tri-to-hk-output-sha256", "tri-to-hk-components"])
def test_replay_rejects_a_forged_bridge_report(tmp_path, capsys, argv, text,
                                               replayed, forge):
    """Each forgery is a report the command never writes for its input,
    and each one replays through the command's own producer."""
    path = write(tmp_path, "in.txt", text)
    _, doc, rep = _json_report(capsys, tmp_path, "r.json", argv[0], path,
                               *argv[1:])
    assert run(capsys, "replay", rep, path)[0] in (0, 1)
    forge(doc)
    forged = write(tmp_path, "forged.json", json.dumps(doc))
    target = write(tmp_path, "replayed.txt", replayed)
    if replayed != text:
        assert run(capsys, argv[0], target, *argv[1:])[0] == 3
    code, out, err = run(capsys, "replay", forged, target)
    assert code == 4 and out == ""
    assert "replay: FAILED" in err


@pytest.mark.parametrize("field, value", [
    ("picks", "1:1,"), ("picks", " 1:1"), ("picks", "1:x"), ("picks", ""),
    ("picks", 5), ("target-m", "x"), ("target-m", None)])
def test_replay_rejects_tampered_picks(tmp_path, capsys, field, value):
    tri = tri_file(tmp_path, "u.tri", genus_one_diagram("S4STAB3"))
    _, doc, _ = _json_report(capsys, tmp_path, "r.json", "tri-to-hk", tri,
                             "--picks", "1:1")
    doc["payload"][field] = value
    forged = write(tmp_path, "forged.json", json.dumps(doc))
    code, _, err = run(capsys, "replay", forged, tri)
    assert code == 4 and "cannot rebuild the derived object" in err


def test_replay_of_a_search_witness_and_of_construction_reports(tmp_path,
                                                                capsys):
    code, doc, rep = _json_report(capsys, tmp_path, "ak1.json",
                                  "ac-search", "--ak", "1",
                                  "--max-length", "32", "--max-depth", "20")
    assert code == 0
    pres = write(tmp_path, "ak1.pres",
                 "presentation generators=2\n"
                 "relator: x2 x1 x2 X1 X2 X1\n"
                 "relator: x1 x1 X2\n")
    code, out, _ = run(capsys, "replay", rep, pres)
    assert code == 0
    assert "reason: replay confirms: %s\n" % doc["verdict"]["reason"] in out

    # a construction is plain output: no verdict, and its digest is the
    # output file's
    cp2 = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    stab, slid = str(tmp_path / "stab.tri"), str(tmp_path / "slid.tri")
    for argv, inputs, out_path in (
            (["stabilize", cp2, "--type", "balanced"], [cp2], stab),
            (["slide", stab, "--system", "beta", "--from", "2", "--over",
              "1", "--guide", "x1"], [stab], slid),
            (["connect-sum", cp2, slid], [cp2, slid],
             str(tmp_path / "sum.tri"))):
        code, doc, rep = _json_report(capsys, tmp_path, "c.json", *argv,
                                      "-o", out_path)
        assert code == 0 and doc["verdict"] is None
        with open(out_path, encoding="utf-8") as f:
            written = f.read()
        assert doc["payload"]["output-sha256"] == reports.sha256_text(written)
        code, out, err = run(capsys, "replay", rep, *inputs)
        assert code == 3 and out == ""
        assert "report carries no verdict to replay" in err


def test_replay_rejects_a_forged_reason(tmp_path, capsys):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    _, doc, rep = _json_report(capsys, tmp_path, "r.json", "classify", tri)
    code, out, _ = run(capsys, "replay", rep, tri)
    assert code == 0 and "reason: replay confirms: diagram is CP2\n" in out
    doc["verdict"]["reason"] = "diagram is S4"
    forged = write(tmp_path, "forged.json", json.dumps(doc))
    code, out, err = run(capsys, "replay", forged, tri)
    assert code == 4 and out == ""
    assert "re-derived reason is 'diagram is CP2'" in err


def test_replay_rejects_tampered_input(tmp_path, capsys):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    _, _, rep = _json_report(capsys, tmp_path, "r.json", "classify", tri)
    other = tri_file(tmp_path, "other.tri", genus_one_diagram("CP2R"))
    code, _, err = run(capsys, "replay", rep, other)
    assert code == 3 and "digest" in err


def test_replay_rejects_tampered_witness(tmp_path, capsys):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    _, doc, _ = _json_report(capsys, tmp_path, "r.json", "classify", tri)
    doc["verdict"]["witness"]["name"] = "CP2R"
    doc["verdict"]["witness"]["names"] = ["CP2R"]
    forged = write(tmp_path, "forged.json", json.dumps(doc))
    code, _, err = run(capsys, "replay", forged, tri)
    assert code == 4 and "FAILED" in err


_S1XS2_HKT = ("heegaard-kirby genus=1\nalpha: @1(1,0)\nbeta: @1(1,0)\n"
              "target m=1\n")
# a 0-framed unknot in a genus-2 S1xS2, whose pairs need Tietze traces
_UNKNOT_HKT = ("heegaard-kirby genus=2\nalpha: @1(1,0) ; @2(1,0)\n"
               "beta: @1(1,0) ; @2(0,1)\nlink: @2(1,0) framing=surface\n"
               "target m=2\n")
_LENS_HEEG = "heegaard genus=1\nalpha: @1(1,0)\nbeta: @1(1,2)\n"
_S1XS2_HEEG = "heegaard genus=1\nalpha: @1(1,0)\nbeta: @1(1,0)\n"


def _refuted_by_forged_surgery_homology(verdict):
    # the file verifies, yet a refutation claiming another target replayed
    verdict.update(status="refuted", witness={
        "kind": "surgery-homology", "h1": "Z", "target_m": 2})


@pytest.mark.parametrize("text, tamper", [
    (_S1XS2_HKT, _refuted_by_forged_surgery_homology),
    (_S1XS2_HKT, lambda v: v["witness"]["pi1"].update(k=9)),
    (_UNKNOT_HKT, lambda v: v["witness"]["pi1"]["trace"].pop()),
    (_S1XS2_HKT, lambda v: v["witness"]["background"].update(h1="Z/7 + Z^9")),
    (_LENS_HEEG, lambda v: v["witness"].update(h1="Z/7 + Z^9")),
    (_S1XS2_HEEG, lambda v: v["witness"].update(h1="Z/7 + Z^9")),
], ids=["surgery-homology-target", "pi1-rank", "pi1-trace", "background-h1",
        "torsion-h1", "detect-k-h1"])
def test_replay_rejects_a_forged_witness_field(tmp_path, capsys, text,
                                               tamper):
    path = write(tmp_path, "in.txt", text)
    _, doc, _ = _json_report(capsys, tmp_path, "r.json", "validate", path)
    tamper(doc["verdict"])
    forged = write(tmp_path, "forged.json", json.dumps(doc))
    code, out, err = run(capsys, "replay", forged, path)
    assert code == 4 and out == ""
    assert "replay: FAILED" in err


# the inputs of the reports below, by file name
_NO_SEARCH_FILES = {
    "sum.tri": diagio.format_any(connected_sum(genus_one_diagram("CP2"),
                                               genus_one_diagram("S1xS3"))),
    "s1xs2.heeg": diagio.format_any(standard_heegaard(2, 1)),
    "unknot.hkt": _UNKNOT_HKT,
    "twin.hkt": _UNKNOT_HKT.replace("m=2", "m=1"),
    "hopf.lnk": "linking size=2\nrow: 0 1\nrow: 1 0\n",
    "ak2.pres": "presentation generators=2\n"
                "relator: x2 x1 x2 X1 X2 X1\n"
                "relator: x1 x1 x1 X2 X2\n",
}


# (argv, the exit code of the report and of its replay)
_NO_SEARCH_CASES = [
    (["validate", "sum.tri"], 0),
    (["validate", "s1xs2.heeg"], 0),
    (["validate", "unknot.hkt"], 0),
    (["validate", "twin.hkt"], 1),
    (["invariants", "sum.tri"], 0),
    (["classify", "sum.tri"], 0),
    (["gprc-check", "hopf.lnk"], 1),
    (["ac-search", "ak2.pres"], 0),
    (["hk-to-tri", "unknot.hkt"], 0),
    (["hk-to-tri", "twin.hkt"], 1),
    (["tri-to-hk", "unknot.tri", "--picks", "1:2"], 0),
]


@pytest.mark.parametrize("argv, code", _NO_SEARCH_CASES,
                         ids=[" ".join(argv) for argv, _ in _NO_SEARCH_CASES])
def test_no_replay_runs_a_search(tmp_path, capsys, monkeypatch, argv, code):
    """Each report replays from what its witness recorded: no Tietze
    search, slide descent or AC search runs again."""
    from trisect import ac, moves, presentations

    for name, text in _NO_SEARCH_FILES.items():
        write(tmp_path, name, text)
    run(capsys, "hk-to-tri", str(tmp_path / "unknot.hkt"),
        "-o", str(tmp_path / "unknot.tri"))
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    got, _, rep = _json_report(capsys, tmp_path, "r.json", *argv)
    assert got == code
    calls = {}
    for module, name in ((presentations, "_search"),
                         (moves, "_descend_words"), (ac, "ac_search")):
        calls[name] = 0

        def counted(*args, _name=name, _real=getattr(module, name),
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    replayed, _, err = run(capsys, "replay", rep, argv[1])
    assert replayed == code, err
    assert calls == {"_search": 0, "_descend_words": 0, "ac_search": 0}


@pytest.mark.parametrize("tamper", [
    lambda w: w.pop("ks"),
    lambda w: w.update(ks=5),
])
def test_replay_of_a_malformed_witness_fails(tmp_path, capsys, tamper):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    _, doc, _ = _json_report(capsys, tmp_path, "r.json", "validate", tri)
    assert doc["verdict"]["witness"]["kind"] == "params"
    tamper(doc["verdict"]["witness"])
    forged = write(tmp_path, "forged.json", json.dumps(doc))
    code, out, err = run(capsys, "replay", forged, tri)
    assert code == 4 and out == ""
    assert "replay: FAILED: the params witness does not replay" in err


def test_replay_of_an_unsupported_witness_kind_is_a_usage_error(tmp_path,
                                                                capsys):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    _, doc, _ = _json_report(capsys, tmp_path, "r.json", "validate", tri)
    doc["verdict"]["witness"]["kind"] = "no-such-kind"
    forged = write(tmp_path, "forged.json", json.dumps(doc))
    code, out, err = run(capsys, "replay", forged, tri)
    assert code == 3 and out == ""
    assert "usage error: unsupported witness kind 'no-such-kind'" in err


def test_an_unknown_kind_is_refused_before_the_bridge_rebuilds(tmp_path,
                                                               capsys):
    # this link has no template completion, so rebuilding the trisection
    # fails; the kind is refused first, as for every other operation
    hkt = write(tmp_path, "u.hkt",
                "heegaard-kirby genus=2\nalpha: @1(1,0) ; @2(1,0)\n"
                "beta: @1(0,1) ; @2(0,1)\nlink: x1 framing=surface\n"
                "target m=0\n")
    code, doc, _ = _json_report(capsys, tmp_path, "r.json", "hk-to-tri", hkt)
    assert code == 1
    assert doc["verdict"]["witness"]["kind"] == "surgery-homology"
    doc["verdict"]["witness"]["kind"] = "bogus"
    forged = write(tmp_path, "forged.json", json.dumps(doc))
    code, out, err = run(capsys, "replay", forged, hkt)
    assert code == 3 and out == ""
    assert "usage error: unsupported witness kind 'bogus'" in err


def test_replay_of_a_report_without_inputs_is_a_usage_error(tmp_path,
                                                             capsys):
    code, doc, rep = _json_report(capsys, tmp_path, "c.json",
                                  "catalog", "figure1")
    assert code == 0 and doc["inputs"] == []
    code, out, err = run(capsys, "replay", rep)
    assert code == 3 and out == ""
    assert "usage error: report lists no input files" in err


def test_an_ak_search_report_replays_without_an_input_file(tmp_path,
                                                           capsys):
    # ac-search --ak N writes no input file, so replay rebuilds the ak-N
    # text as the command wrote it and requires its recorded digest
    code, doc, rep = _json_report(capsys, tmp_path, "ak1.json",
                                  "ac-search", "--ak", "1")
    assert code == 0 and doc["inputs"][0]["name"] == "ak-1"
    code, out, err = run(capsys, "replay", rep)
    assert code == 0, err
    assert "reason: replay confirms: %s\n" % doc["verdict"]["reason"] in out
    edited = json.loads(json.dumps(doc))
    edited["inputs"][0]["sha256"] = "0" * 64
    code, out, err = run(capsys, "replay",
                         write(tmp_path, "edited.json", json.dumps(edited)))
    assert code == 3 and out == ""
    assert "does not match the recorded digest for ak-1" in err
    for label in ("ak-0", "ak-x", "ak-01", "ak-", "ak1.pres"):
        forged = json.loads(json.dumps(doc))
        forged["inputs"][0]["name"] = label
        code, out, err = run(capsys, "replay",
                             write(tmp_path, "f.json", json.dumps(forged)))
        assert code == 3 and out == "", label
        assert "is not the ak-N input of ac-search --ak N" in err, label


def _hk_text(background, slopes, m, framing="surface"):
    g = background.genus
    return diagio.format_any(HeegaardKirbyDiagram(g, background, tuple(
        FramedComponent(curve_from_template(g, *s), framing)
        for s in slopes), m))


def _lens(p, q):
    return HeegaardDiagram(1, system_from_templates(1, [(1, 1, 0)]),
                           system_from_templates(1, [(1, p, q)]))


def _argv_per_kind():
    """(command, input text): one command line per witness kind that some
    command writes."""
    from trisect.ac import BalancedPresentation, ak_presentation

    cp2 = genus_one_diagram("CP2")
    cp2_sum = diagio.format_any(connected_sum(cp2, genus_one_diagram(
        "S1xS3")))
    s1xs2 = standard_heegaard(2, 1)
    return [
        ("validate", cp2_sum),
        ("validate", diagio.format_any(TrisectionDiagram(
            1, cp2.alpha, cp2.beta, cp2.gamma, declared_params=(1, 1, 1)))),
        ("validate", diagio.format_any(_lens(1, 2))),
        ("validate", diagio.format_any(s1xs2)),
        ("classify", cp2_sum),
        ("validate", _hk_text(s1xs2, [(2, 1, 0)], 2)),
        ("validate", _hk_text(_lens(1, 2), [], 0)),
        ("validate", _hk_text(_lens(1, 0), [(1, 0, 1)], 1, framing=0)),
        ("validate", _hk_text(standard_heegaard(2, 0),
                              [(1, 1, 0), (1, 1, 1)], 2)),
        ("validate", _hk_text(_lens(0, 1), [(1, 0, 1)], 1)),
        ("validate", _hk_text(_lens(1, 0), [], 2)),
        ("gprc-check", "linking size=2\nrow: 0 1\nrow: 1 0\n"),
        ("ac-search", diagio.format_any(
            BalancedPresentation(2, ((1, 1), (2,))))),
        ("ac-search", diagio.format_any(ak_presentation(1))),
    ]


def test_replay_checks_exactly_the_witness_kinds_the_commands_write(
        tmp_path, capsys):
    written = []
    for i, (command, text) in enumerate(_argv_per_kind()):
        path = write(tmp_path, "in%d.txt" % i, text)
        code, doc, rep = _json_report(capsys, tmp_path, "r%d.json" % i,
                                      command, path)
        written.append(doc["verdict"]["witness"]["kind"])
        replayed, _, err = run(capsys, "replay", rep, path)
        assert replayed == code, (command, written[-1], err)
    assert sorted(written) == sorted(set(written))
    assert set(written) == set(reports.CHECKERS)


# verdicts the engine wrote, and replay confirmed, before replay came to
# check only the witness kinds a command writes
_UNWRITTEN = [
    ({"status": "verified", "reason": "diagram is (2,1)-standard",
      "witness": {"kind": "standard-pair", "k": 1, "pairing": [1, 2]}},
     diagio.format_any(standard_heegaard(2, 1))),
    ({"status": "refuted",
      "reason": "exact intersection counts rule out every index pairing",
      "witness": {"kind": "nonstandard", "matrix": [[2]]}},
     diagio.format_any(_lens(1, 2))),
    ({"status": "verified",
      "reason": "parameters (1;0,0,0) satisfy the k1=g-1 constraint",
      "witness": {"kind": "param-constraint", "case": "k1=g-1",
                  "ks": [0, 0, 0]}},
     diagio.format_any(genus_one_diagram("CP2"))),
    ({"status": "verified",
      "reason": "1 primitive pairs found with exact counts",
      "witness": {"kind": "primitive-pairs", "pairs": [[1, 1]]}},
     diagio.format_any(genus_one_diagram("CP2"))),
]


@pytest.mark.parametrize("verdict, text", _UNWRITTEN,
                         ids=[v["witness"]["kind"] for v, _ in _UNWRITTEN])
def test_a_kind_no_command_writes_is_a_usage_error(tmp_path, capsys, verdict,
                                                   text):
    path = write(tmp_path, "in.txt", text)
    _, doc, _ = _json_report(capsys, tmp_path, "r.json", "validate", path)
    doc["verdict"] = verdict
    code, out, err = run(capsys, "replay",
                         write(tmp_path, "hand.json", json.dumps(doc)), path)
    assert code == 3 and out == ""
    assert "usage error: unsupported witness kind %r" \
        % verdict["witness"]["kind"] in err


def test_replay_on_unknown_verdict_exits_two(tmp_path, capsys):
    code, doc, rep = _json_report(capsys, tmp_path, "r.json",
                                  "ac-search", "--ak", "3",
                                  "--max-length", "16", "--max-depth", "6",
                                  "--max-states", "200")
    assert code == 2
    pres = write(tmp_path, "ak3.pres",
                 diagio.format_presentation(
                     __import__("trisect.ac", fromlist=["ak_presentation"])
                     .ak_presentation(3)))
    code, out, _ = run(capsys, "replay", rep, pres)
    assert code == 2 and "no witness" in out


def test_replay_verdict_rejects_forged_linking_witness():
    m = LinkingMatrix.zero(2)
    with pytest.raises(reports.ReplayError):
        reports.replay_verdict((m,), {
            "status": "refuted", "reason": "forged",
            "witness": {"kind": "linking", "entry": [1, 2], "value": 1}})


def test_replay_verdict_rejects_forged_params_witness():
    t = genus_one_diagram("CP2")
    good = {"kind": "detect-k", "k": 0, "trace": []}
    with pytest.raises(reports.ReplayError):
        reports.replay_verdict((t,), {
            "status": "verified", "reason": "forged",
            "witness": {"kind": "params", "ks": [1, 0, 0],
                        "pairs": [good, good, good]}})


# -- no crash ends with a verdict exit code -------------------------------------

@pytest.mark.parametrize("report, inputs, what", [
    ([], 0, "expected a JSON object"),
    ({"inputs": [], "verdict": "verified"}, 0,
     "'verdict' must be an object"),
    ({"inputs": [{"name": "x"}], "verdict": {"status": "verified"}}, 1,
     "'inputs' must be a list of objects with string name and sha256"),
])
def test_malformed_reports_are_parse_errors(tmp_path, capsys, report, inputs,
                                            what):
    rep = write(tmp_path, "r.json", json.dumps(report))
    given = [write(tmp_path, "x.tri", "anything\n")] * inputs
    code, out, err = run(capsys, "replay", rep, *given)
    assert code == 4 and out == ""
    assert "parse error: line 1, col 1: malformed report: " + what in err


def test_a_crashing_command_exits_five(tmp_path, capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_validate", crash)
    path = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    code, out, err = run(capsys, "validate", path)
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert "internal error" in err and "RuntimeError: boom" in err


def _flipped(tmp_path, capsys, status, *argv):
    _, doc, _ = _json_report(capsys, tmp_path, "r.json", *argv)
    assert doc["verdict"]["status"] != status
    doc["verdict"]["status"] = status
    return write(tmp_path, "flipped.json", json.dumps(doc))


def test_replay_rejects_a_verified_witness_flipped_to_refuted(tmp_path,
                                                              capsys):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    rep = _flipped(tmp_path, capsys, "refuted", "classify", tri)
    code, out, err = run(capsys, "replay", rep, tri)
    assert code == 4 and "replay confirms" not in out
    assert "a classification witness certifies verified, not refuted" in err


def test_replay_rejects_refuted_witnesses_flipped_to_verified(tmp_path,
                                                              capsys):
    text = diagio.format_diagram(genus_one_diagram("CP2"))
    bad = write(tmp_path, "bad.tri",
                text.replace("params=(0,0,0)", "params=(1,1,1)"))
    rep = _flipped(tmp_path, capsys, "verified", "validate", bad)
    code, _, err = run(capsys, "replay", rep, bad)
    assert code == 4
    assert "a params-mismatch witness certifies refuted, not verified" in err

    hopf = write(tmp_path, "h.lnk", "linking size=2\nrow: 0 1\nrow: 1 0\n")
    rep = _flipped(tmp_path, capsys, "verified", "gprc-check", hopf)
    code, _, err = run(capsys, "replay", rep, hopf)
    assert code == 4
    assert "linking witness certifies refuted, not verified" in err


def test_a_kind_never_replays_under_the_status_it_does_not_certify():
    one = (genus_one_diagram("CP2"),)
    for kind, (status, _, _) in reports.CHECKERS.items():
        if status is None:
            continue
        other = {"verified": "refuted", "refuted": "verified"}[status]
        with pytest.raises(reports.ReplayError, match="certifies"):
            reports.replay_verdict(one, {"status": other, "reason": "r",
                                         "witness": {"kind": kind}})
    # no verdict carries an "empty" witness, so it has no checker either
    for kind in ("no-such-kind", "empty"):
        with pytest.raises(KeyError):
            reports.replay_verdict(one, {"status": "verified", "reason": "r",
                                         "witness": {"kind": kind}})


def test_report_format_is_line_oriented(tmp_path, capsys):
    tri = tri_file(tmp_path, "c.tri", genus_one_diagram("CP2"))
    _, out, _ = run(capsys, "validate", tri)
    head = out.split("\n\n")[0]
    for line in head.strip().splitlines():
        assert ": " in line
    assert out.startswith("operation: validate\n")

"""Command-line front end.

One command per invocation; reports go to standard output in a
line-oriented ``key: value`` form (or JSON with --json), diagram output
goes to ``-o`` files or follows the report after a blank line.  Exit
codes encode the verdict: 0 verified or plain success, 1 refuted,
2 unknown or exhausted, 3 usage error, 4 I/O or parse error, 5 internal
error (a crash never exits with a verdict code).

Each process compiles only the engine modules its command runs.  At
their top level this module imports ``diagio``, ``reports`` and
``verdict``; ``diagio`` imports only the standard library and ``words``,
and ``reports`` those and ``verdict``.  Engine modules are imported at
four boundaries: a command handler below, a file-kind parser in
``diagio``, a witness check in ``reports.CHECKERS`` and a builder in
``reports.CONSTRUCTIONS``; never inside a per-state or per-step function
(``canonical_key``, the search's child keys in ``ac._children``, slide
descent, Tietze moves).

No engine module imports the standard dataclass module.  The value
classes are plain classes on the frozen base ``verdict.Frozen``, which
builds each ``__init__`` from the fields a class declares.  That spares every process about 10-13 ms of
importing that module (with ``inspect``, ``dis`` and ``tokenize``) and
about 1 ms per class of generated methods: some 25-30 ms for
``validate`` or ``classify``, paid again by each replay (2-vCPU Linux VM,
CPython 3.11, no bytecode cache).

Besides ``cli``, ``diagio``, ``reports``, ``verdict`` and ``words``, a
command loads:

* ``ac-search`` (and ``invariants`` on a presentation): ``ac``,
  ``intmatrix``;
* ``validate`` and ``invariants`` on a trisection or Heegaard file:
  ``diagram``, ``homology``, ``intmatrix``, ``presentations`` (the
  diagram set);
* on a surgery file or linking matrix, ``gprc-check``, ``hk-to-tri`` and
  ``tri-to-hk``: ``kirby`` and the diagram set;
* ``catalog``: ``catalog`` and the diagram set;
* ``classify``, ``stabilize``, ``connect-sum`` and ``slide``: ``moves``,
  ``catalog`` and the diagram set;
* ``replay``: what the check or construction of the recorded witness
  kind calls, which is the set of the command that wrote the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import diagio, reports
from .verdict import Verdict, unknown, verified

EXIT_USAGE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load(path, want=None, label=None):
    """Text and object of ``path``, which ``label`` needs of kind ``want``."""
    text = _read(path)
    obj = diagio.parse_any(text)
    if want is not None and diagio.kind_of(obj) != want:
        raise _UsageError("%s expects a %s file, got a %s file"
                          % (label, want, diagio.kind_of(obj)))
    return text, obj


# -- command handlers ----------------------------------------------------------
# each returns (inputs, payload, verdict, output_text | None)

def _cmd_validate(args):
    text, obj = _load(args.file)
    return _diagram_report(args.file, text, obj, "validate")


def _cmd_invariants(args):
    text, obj = _load(args.file)
    kind = diagio.kind_of(obj)
    if kind == "linking":
        payload = [("kind", "linking")] + _linking_lines(obj)
        return [(args.file, text)], payload, None, None
    if kind == "presentation":
        from .ac import ab_det
        payload = [("kind", "presentation"), ("generators", obj.generators),
                   ("total-length", obj.total_length()),
                   ("ab-det", ab_det(obj))]
        return [(args.file, text)], payload, None, None
    return _diagram_report(args.file, text, obj, "invariants")


def _diagram_report(path, text, obj, command):
    """validate's report on a diagram; invariants adds chi and H1."""
    kind = diagio.kind_of(obj)
    if kind not in ("trisection", "heegaard", "heegaard-kirby"):
        raise _UsageError("%s expects a diagram file, got %s" % (command, kind))
    payload = [("kind", kind), ("genus", obj.genus)]
    if kind == "trisection":
        from .diagram import (euler_characteristic, trisection_h1,
                              trisection_params)
        params, v = trisection_params(obj)
        payload.append(("params", str(params)))
        if command == "invariants":
            payload += [("chi", euler_characteristic(params)),
                        ("h1", str(trisection_h1(obj)))]
    elif kind == "heegaard":
        from .diagram import detect_k, heegaard_h1
        k, v = detect_k(obj)
        payload.append(("k", k))
        if command == "invariants":
            payload.append(("h1", str(heegaard_h1(obj))))
    else:
        from .kirby import validate_hk
        v = validate_hk(obj)
        payload += [("components", obj.c), ("target-m", obj.m)]
    return [(path, text)], payload, v, None


def _cmd_classify(args):
    from .moves import standardize

    text, obj = _load(args.file, "trisection", "classify")
    v = standardize(obj)[1]
    payload = [("genus", obj.genus)]
    if v.is_verified:
        payload.append(("name", v.witness["name"]))
    return [(args.file, text)], payload, v, None


def _construct(op, cargs, paths, reason, payload, want=None):
    """Handler of construction ``op``: its output and a verdict that
    certifies it by digest; ``payload(objs, out)`` gives the report lines.
    """
    loaded = [(path,) + _load(path, want, op) for path in paths]
    objs = tuple(obj for _, _, obj in loaded)
    try:
        out = reports.apply_construction(op, cargs, objs)
    except ValueError as e:
        raise _UsageError(str(e))
    out_text = diagio.format_any(out)
    v = verified(reason, {"kind": "construction", "op": op, "args": cargs,
                          "output_sha256": reports.sha256_text(out_text)})
    return ([(path, text) for path, text, _ in loaded], payload(objs, out),
            v, out_text)


def _cmd_stabilize(args):
    return _construct(
        "stabilize", {"type": args.type}, [args.file],
        "stabilization of type %s constructed" % args.type,
        lambda objs, out: [("genus", objs[0].genus),
                           ("result-genus", out.genus)])


def _cmd_connect_sum(args):
    return _construct("connect-sum", {}, [args.a, args.b],
                      "connected sum constructed",
                      lambda objs, out: [("genus", out.genus)],
                      want="trisection")


def _cmd_slide(args):
    cargs = {"system": args.system, "from": args.src, "over": args.over,
             "guide": args.guide, "sign": {"+": 1, "-": -1}[args.sign]}
    return _construct(
        "slide", cargs, [args.file],
        "handleslide of %s curve %d over %d applied"
        % (args.system, args.src, args.over),
        lambda objs, out: [("system", args.system), ("from", args.src),
                           ("over", args.over)])


def _cmd_hk_to_tri(args):
    from .kirby import hk_to_trisection

    text, H = _load(args.file, "heegaard-kirby", "hk-to-tri")
    t, v = hk_to_trisection(H)
    payload = [("genus", H.genus), ("components", H.c), ("target-m", H.m)]
    out_text = None
    if t is not None:
        payload.append(("params", "(%d;%d,%d,%d)" %
                        ((t.genus,) + t.declared_params)))
        out_text = diagio.format_any(t)
    return [(args.file, text)], payload, v, out_text


def _parse_picks(spec):
    """The (gamma, beta) pairs of a '1:1,2:3' string, or a ValueError."""
    picks = []
    for part in spec.split(","):
        piece = part.strip()
        if not piece:
            continue
        bits = piece.split(":")
        if len(bits) != 2:
            raise ValueError("picks must look like '1:1,2:3', got %r" % piece)
        try:
            picks.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise ValueError("picks must be integer pairs, got %r" % piece)
    if not picks:
        raise ValueError("at least one gamma:beta pick is required")
    return picks


def _format_picks(picks):
    return ",".join("%d:%d" % p for p in picks)


def _cmd_tri_to_hk(args):
    from .kirby import trisection_to_hk

    text, t = _load(args.file, "trisection", "tri-to-hk")
    try:
        picks = _parse_picks(args.picks)
        H, v = trisection_to_hk(t, picks)
    except ValueError as e:
        raise _UsageError(str(e))
    payload = [("picks", _format_picks(picks))]
    out_text = None
    if H is not None:
        payload += [("components", H.c), ("target-m", H.m)]
        out_text = diagio.format_any(H)
    return [(args.file, text)], payload, v, out_text


def _cmd_gprc_check(args):
    from .kirby import gprc_necessary_check

    text, m = _load(args.file, "linking", "gprc-check")
    return [(args.file, text)], _linking_lines(m), gprc_necessary_check(m), None


def _linking_lines(m):
    from .kirby import surgery_h1

    return [("size", m.size),
            ("framings", " ".join(str(f) for f in m.framings())),
            ("surgery-h1", str(surgery_h1(m)))]


def _cmd_ac_search(args):
    from .ac import DEFAULT_MAX_STATES, ac_search, ak_presentation

    max_states = DEFAULT_MAX_STATES if args.max_states is None \
        else args.max_states
    if (args.ak is None) == (args.file is None):
        raise _UsageError("give exactly one of --ak N or a presentation file")
    for flag, value in (("--max-length", args.max_length),
                        ("--max-depth", args.max_depth),
                        ("--max-states", max_states)):
        if value < 1:
            raise _UsageError("%s needs a value >= 1, got %d" % (flag, value))
    if args.ak is not None:
        if args.ak < 1:
            raise _UsageError("--ak needs n >= 1")
        p = ak_presentation(args.ak)
        inputs = [("ak-%d" % args.ak, diagio.format_presentation(p))]
    else:
        text, p = _load(args.file)
        if diagio.kind_of(p) != "presentation":
            raise _UsageError("ac-search expects a presentation file, got %s"
                              % diagio.kind_of(p))
        inputs = [(args.file, text)]
    res = ac_search(p, args.max_length, args.max_depth, stable=args.stable,
                    max_states=max_states)
    payload = [("generators", p.generators),
               ("total-length", p.total_length())]
    payload += [(key.replace("_", "-"), res.stats[key])
                for key in ("visited", "stored", "class_images",
                            "orbit_images", "child_keys", "sibling_skips")]
    if res.found:
        payload.append(("path-moves", len(res.path)))
    return inputs, payload, res.verdict, None


def _cmd_catalog(args):
    from .catalog import FIGURE_ONE, FIGURE_TWO, genus_one_diagram

    names = FIGURE_ONE if args.figure == "figure1" else FIGURE_TWO
    blocks = []
    for name in names:
        blocks.append("# %s\n%s" %
                      (name, diagio.format_diagram(genus_one_diagram(name))))
    out_text = "\n".join(blocks)
    payload = [("figure", args.figure), ("names", " ".join(names))]
    v = verified("catalog diagrams for %s emitted" % args.figure,
                 {"kind": "construction", "op": "catalog",
                  "args": {"figure": args.figure},
                  "output_sha256": reports.sha256_text(out_text)})
    return [], payload, v, out_text


_HK_WITNESS_KINDS = frozenset(["heegaard-kirby", "background", "framing",
                               "link-crossing", "link-extension",
                               "surgery-homology"])


def _check_report_shape(doc):
    """Raise a ParseError unless ``doc`` has the fields replay reads.

    The error points at line 1, col 1, where the document starts: the
    JSON decoder keeps no positions for the values it returns.
    """
    def need(cond, what):
        if not cond:
            raise diagio.ParseError("malformed report: %s" % what, 1)

    need(isinstance(doc, dict), "expected a JSON object")
    inputs = doc.get("inputs", [])
    need(isinstance(inputs, list)
         and all(isinstance(rec, dict) and isinstance(rec.get("name"), str)
                 and isinstance(rec.get("sha256"), str) for rec in inputs),
         "'inputs' must be a list of objects with string name and sha256")
    need(isinstance(doc.get("operation", ""), str),
         "'operation' must be a string")
    need(isinstance(doc.get("payload", {}), dict),
         "'payload' must be an object")
    vdict = doc.get("verdict")
    if vdict is None:
        return
    need(isinstance(vdict, dict) and vdict.get("status") in
         ("verified", "refuted", "unknown"),
         "'verdict' must be an object with status verified, refuted or "
         "unknown")
    if vdict["status"] != "unknown":
        need(isinstance(vdict.get("reason"), str),
             "'verdict.reason' must be a string")
        w = vdict.get("witness")
        need(w is None or isinstance(w, dict)
             and isinstance(w.get("kind"), str),
             "'verdict.witness' must be null or an object with a string "
             "kind")


def _cmd_replay(args):
    raw = _read(args.report)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise diagio.ParseError("report is not valid JSON: %s" % e, 1)
    _check_report_shape(doc)
    recorded = doc.get("inputs", [])
    if not recorded:
        raise _UsageError("report lists no input files, so no witness can "
                          "be replayed against them")
    given = args.inputs
    if len(given) != len(recorded):
        raise _UsageError("report lists %d inputs, %d given"
                          % (len(recorded), len(given)))
    objs = []
    for path, rec in zip(given, recorded):
        text = _read(path)
        if reports.sha256_text(text) != rec["sha256"]:
            raise _UsageError("input %s does not match the recorded digest "
                              "for %s" % (path, rec["name"]))
        objs.append(diagio.parse_any(text))
    vdict = doc.get("verdict")
    if vdict is None:
        raise _UsageError("report carries no verdict to replay")
    payload = [("replayed-operation", doc.get("operation", "?")),
               ("recorded-status", vdict["status"])]
    if vdict["status"] == "unknown":
        v = unknown("unknown verdicts carry no witness to replay")
        return [(args.report, raw)], payload, v, None
    objs = _reconstruct_for_replay(doc, tuple(objs), vdict)
    try:
        reports.replay_verdict(objs, vdict)
    except reports.ReplayError as e:
        raise _ReplayFailure(str(e))
    except KeyError as e:
        # replay_verdict raises KeyError only for a kind it has no checker
        # for; a malformed field inside a check is a ReplayError
        if vdict["witness"]["kind"] in reports.CHECKERS:
            raise
        raise _UsageError("unsupported witness kind %s" % e)
    v = Verdict(vdict["status"], "replay confirms: %s" % vdict["reason"],
                vdict["witness"])
    return [(args.report, raw)], payload, v, None


class _ReplayFailure(Exception):
    pass


def _reconstruct_for_replay(doc, objs, vdict):
    """Rebuild the object a verdict actually talks about, when the command
    derived it from the input file (hk-to-tri, tri-to-hk)."""
    op = doc.get("operation")
    w = vdict.get("witness") or {}
    kind = w.get("kind")
    try:
        if op == "hk-to-tri" and kind not in _HK_WITNESS_KINDS \
                and kind != "construction":
            return (reports.apply_construction("hk-to-tri", {}, objs),) \
                + objs[1:]
        if op == "tri-to-hk" and kind in _HK_WITNESS_KINDS:
            payload = doc.get("payload", {})
            picks = _parse_picks(payload["picks"])
            if _format_picks(picks) != payload["picks"]:
                raise ValueError("picks %r are not as tri-to-hk writes them"
                                 % payload["picks"])
            H = reports.apply_construction(
                "tri-to-hk", {"picks": picks, "m": int(payload["target-m"])},
                objs)
            return (H,) + objs[1:]
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise _ReplayFailure("cannot rebuild the derived object: %s" % e)
    return objs


# -- parser and dispatch -------------------------------------------------------

def _arg(*flags, **kwargs):
    return flags, kwargs


def _commands():
    """name -> (handler, help, arguments besides --json), in --help order.

    Built per call, so each handler is read when the parser is built.
    """
    output = _arg("-o", "--output")
    return {
        "validate": (
            _cmd_validate, "check a diagram file's verdict", [_arg("file")]),
        "invariants": (
            _cmd_invariants, "parameters, chi, and homology of a diagram",
            [_arg("file")]),
        "classify": (
            _cmd_classify, "name a trisection as a sum of genus-one pieces",
            [_arg("file")]),
        "stabilize": (_cmd_stabilize, "stabilize a diagram", [
            _arg("file"),
            _arg("--type", required=True,
                 choices=["1", "2", "3", "heegaard", "balanced"]),
            output]),
        "connect-sum": (
            _cmd_connect_sum, "connected sum of two trisections",
            [_arg("a"), _arg("b"), output]),
        "slide": (_cmd_slide, "handleslide one curve over another", [
            _arg("file"),
            _arg("--system", required=True,
                 choices=["alpha", "beta", "gamma"]),
            _arg("--from", dest="src", required=True, type=int, metavar="I",
                 help="1-based index of the curve to slide"),
            _arg("--over", required=True, type=int, metavar="J",
                 help="1-based index of the curve slid over"),
            _arg("--guide", default="", metavar="WORD",
                 help="guide word, e.g. 'x1 Y2'"),
            _arg("--sign", default="+", choices=["+", "-"]),
            output]),
        "hk-to-tri": (
            _cmd_hk_to_tri,
            "assemble a trisection from a heegaard-kirby diagram",
            [_arg("file"), output]),
        "tri-to-hk": (
            _cmd_tri_to_hk,
            "extract a heegaard-kirby diagram along gamma:beta picks", [
                _arg("file"),
                _arg("--picks", required=True,
                     help="comma list of gamma:beta index pairs, "
                          "e.g. '1:1,2:3'"),
                output]),
        "gprc-check": (
            _cmd_gprc_check, "necessary zero-matrix check on a linking matrix",
            [_arg("file")]),
        "ac-search": (
            _cmd_ac_search,
            "bounded trivialization search on a balanced presentation", [
                _arg("file", nargs="?"),
                _arg("--ak", type=int, metavar="N",
                     help="use the standard two-generator family member N"),
                _arg("--max-length", type=int, default=32,
                     dest="max_length"),
                _arg("--max-depth", type=int, default=20, dest="max_depth"),
                # the default is ac.DEFAULT_MAX_STATES, read when the
                # command runs
                _arg("--max-states", type=int, dest="max_states"),
                _arg("--stable", action="store_true",
                     help="allow adding and deleting trivial pairs")]),
        "catalog": (
            _cmd_catalog, "emit the built-in genus-one diagrams",
            [_arg("figure", choices=["figure1", "figure2"]), output]),
        "replay": (
            _cmd_replay, "re-derive a recorded verdict from its witness", [
                _arg("report", help="a JSON report produced with --json"),
                _arg("inputs", nargs="*",
                     help="the original input files, in command order")]),
    }


def _build_parser(command=None):
    """The trisect parser.  When ``command`` names a command, only its
    subparser is built: parsing that command, its errors and its --help
    read the same, and only --help, a missing command or an unknown one
    need the whole list."""
    parser = _Parser(prog="trisect",
                     description="calculus on trisection, Heegaard, and "
                                 "Heegaard-Kirby diagrams")
    sub = parser.add_subparsers(dest="command", required=True)
    table = _commands()
    for name in [command] if command in table else table:
        func, help_text, arguments = table[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def run_command(argv):
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:
        return 0 if not e.code else int(e.code)
    try:
        return _run(args)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except _ReplayFailure as e:
        print("replay: FAILED: %s" % e, file=sys.stderr)
        return EXIT_IO
    except diagio.ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print("io error: %s" % e, file=sys.stderr)
        return EXIT_IO
    except Exception:
        # exit codes 0-2 are verdicts, so a crash must not end with one;
        # traceback is imported here, off the start-up path of every run
        import traceback
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def _run(args):
    """Run the parsed command, write its outputs, return the exit code."""
    start = time.perf_counter()
    inputs, payload, verdict, out_text = args.func(args)
    elapsed_ms = (time.perf_counter() - start) * 1000
    if out_text is not None:
        payload = payload + [("output-sha256", reports.sha256_text(out_text))]
    report = reports.Report(
        operation=args.command,
        inputs=tuple((label, reports.sha256_text(text))
                     for label, text in inputs),
        payload=tuple(payload),
        verdict=verdict,
        elapsed_ms=elapsed_ms)
    wrote = False
    if out_text is not None and getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(out_text)
        wrote = True
    if args.json:
        sys.stdout.write(reports.report_to_json(report))
    else:
        sys.stdout.write(reports.format_report(report))
        if out_text is not None and not wrote:
            sys.stdout.write("\n" + out_text)
    return report.exit_code()


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

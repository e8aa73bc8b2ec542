"""Command-line front end.

One command per invocation; reports go to standard output in a
line-oriented ``key: value`` form (or JSON with --json), diagram output
goes to ``-o`` files or follows the report after a blank line, and its
digest is the payload's ``output-sha256``.  The constructions
(``stabilize``, ``slide``, ``connect-sum``) and ``catalog`` are plain
output: their reports carry no verdict, and running them again checks
them.  Exit codes encode the verdict: 0 verified or plain success,
1 refuted, 2 unknown or exhausted, 3 usage error, 4 I/O or parse error
(a replay that fails included), 5 internal error (a crash never exits
with a verdict code).

Each process compiles only the engine modules its command runs.  At
their top level this module imports ``diagio``, ``reports`` and
``verdict``; ``diagio`` imports only the standard library and ``words``,
and ``reports`` those, ``diagio`` and ``verdict``.  Engine modules are
imported at three boundaries: a command handler below, a file-kind
parser in ``diagio``, and a witness check in ``reports.CHECKERS`` or
``reports.BRIDGES``; never inside a per-state or per-step function
(``canonical_key``, the search's closure step ``ac._step``, slide
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
* ``replay``: what the check of the recorded witness kind calls, or the
  bridge command's producer, which is the set of the command that wrote
  the report.  It prints the reason the check re-derives, which must
  equal the recorded one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import diagio, reports
from .verdict import Verdict, unknown

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


def _built(paths, build):
    """Handler of a construction: ``build(*objs)`` gives its output
    diagram and report lines, and a ValueError from a builder is a usage
    error.  The output is plain, with no verdict: its digest ends the
    payload."""
    loaded = [(path,) + _load(path) for path in paths]
    try:
        out, payload = build(*(obj for _, _, obj in loaded))
    except ValueError as e:
        raise _UsageError(str(e))
    out_text = diagio.format_any(out)
    return ([(path, text) for path, text, _ in loaded],
            reports.with_output(payload, out_text), None, out_text)


def _cmd_stabilize(args):
    from .moves import heegaard_stabilize, i_stabilize

    def build(t):
        kind = diagio.kind_of(t)
        if args.type == "heegaard":
            if kind != "heegaard":
                raise _UsageError(
                    "heegaard stabilization needs a heegaard file")
            out = heegaard_stabilize(t)
        elif kind != "trisection":
            raise _UsageError("stabilization type %s needs a trisection"
                              % args.type)
        else:
            out = t
            for i in (1, 2, 3) if args.type == "balanced" \
                    else (int(args.type),):
                out = i_stabilize(out, i)
        return out, [("genus", t.genus), ("result-genus", out.genus)]
    return _built([args.file], build)


def _cmd_connect_sum(args):
    from .moves import connected_sum

    def build(a, b):
        if diagio.kind_of(a) != "trisection" \
                or diagio.kind_of(b) != "trisection":
            raise _UsageError("connect-sum needs a trisection file and a "
                              "trisection file")
        out = connected_sum(a, b)
        return out, [("genus", out.genus)]
    return _built([args.a, args.b], build)


def _cmd_slide(args):
    from .moves import handleslide
    from .words import parse_surface_word

    def build(d):
        kind = diagio.kind_of(d)
        if kind not in ("trisection", "heegaard"):
            raise _UsageError("slide needs a diagram file")
        if kind == "heegaard" and args.system == "gamma":
            raise _UsageError("a heegaard diagram has alpha and beta only")
        fields = {name: getattr(d, name) for name in d._fields}
        fields[args.system] = handleslide(
            fields[args.system], args.src, args.over,
            guide=tuple(parse_surface_word(args.guide)),
            sign={"+": 1, "-": -1}[args.sign])
        return type(d)(**fields), [("system", args.system),
                                   ("from", args.src), ("over", args.over)]
    return _built([args.file], build)


def _cmd_hk_to_tri(args):
    text, H = _load(args.file, "heegaard-kirby", "hk-to-tri")
    return ([(args.file, text)],) + reports.hk_to_tri(H)


def _cmd_tri_to_hk(args):
    from .kirby import parse_picks

    text, t = _load(args.file, "trisection", "tri-to-hk")
    try:
        return ([(args.file, text)],) + reports.tri_to_hk(
            t, parse_picks(args.picks))
    except ValueError as e:
        raise _UsageError(str(e))


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
        text, p = _load(args.file, "presentation", "ac-search")
        inputs = [(args.file, text)]
    res = ac_search(p, args.max_length, args.max_depth, stable=args.stable,
                    max_states=max_states)
    payload = [("generators", p.generators),
               ("total-length", p.total_length())]
    payload += [(key.replace("_", "-"), value)
                for key, value in res.stats.items()]
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
    return [], reports.with_output(payload, out_text), None, out_text


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


def _ak_input(label):
    """(label, text) of the input ``ac-search --ak N`` records as ``ak-N``,
    rebuilt as that command writes it: no file holds it."""
    from .ac import ak_presentation

    n = label[3:]
    if not (label.startswith("ak-") and n.isascii() and n.isdigit()
            and n[0] != "0"):
        raise _UsageError("report lists 1 input, 0 given, and %r is not "
                          "the ak-N input of ac-search --ak N" % label)
    return label, diagio.format_presentation(ak_presentation(int(n)))


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
    if not given and doc.get("operation") == "ac-search" \
            and len(recorded) == 1:
        sources = [_ak_input(recorded[0]["name"])]
    elif len(given) != len(recorded):
        raise _UsageError("report lists %d inputs, %d given"
                          % (len(recorded), len(given)))
    else:
        sources = ((path, _read(path)) for path in given)
    objs = []
    for (source, text), rec in zip(sources, recorded):
        if reports.sha256_text(text) != rec["sha256"]:
            raise _UsageError("input %s does not match the recorded digest "
                              "for %s" % (source, rec["name"]))
        objs.append(diagio.parse_any(text))
    vdict = doc.get("verdict")
    if vdict is None:
        raise _UsageError("report carries no verdict to replay")
    payload = [("replayed-operation", doc.get("operation", "?")),
               ("recorded-status", vdict["status"])]
    if vdict["status"] == "unknown":
        v = unknown("unknown verdicts carry no witness to replay")
        return [(args.report, raw)], payload, v, None
    w = vdict.get("witness")
    if w is not None and w["kind"] not in reports.CHECKERS:
        raise _UsageError("unsupported witness kind %r" % w["kind"])
    got = reports.replay_verdict(tuple(objs), vdict, doc.get("operation"),
                                 doc.get("payload", {}))
    v = Verdict(got.status, "replay confirms: %s" % got.reason, got.witness)
    return [(args.report, raw)], payload, v, None


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
                     help="allow adding and deleting trivial pairs, "
                     "up to two more generators")]),
        "catalog": (
            _cmd_catalog, "emit the built-in genus-one diagrams",
            [_arg("figure", choices=["figure1", "figure2"]), output]),
        "replay": (
            _cmd_replay, "re-derive a recorded verdict from its witness", [
                _arg("report", help="a JSON report produced with --json"),
                _arg("inputs", nargs="*",
                     help="the original input files, in command order "
                     "(none for an ac-search --ak N report)")]),
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
        return _run(parser.parse_args(argv))
    except SystemExit as e:
        # argparse exits after printing --help
        return 0 if not e.code else int(e.code)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except reports.ReplayError as e:
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

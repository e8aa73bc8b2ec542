"""Plain-text file formats for diagrams, linking matrices, presentations.

One object per file.  The first significant line is a header naming the
kind; the rest are ``name: payload`` sections.  ``#`` starts a comment,
blank lines are skipped.  Canonical output round-trips byte-stably.

    trisection genus=2 params=(2,0,0)
    alpha: @1(1,0) ; @2(1,0)
    beta: @1(1,0) ; @2(0,1)
    gamma: @1(1,0) ; @2(0,1)

    heegaard-kirby genus=1
    alpha: @1(1,0)
    beta: @1(0,1)
    link: @1(1,0) framing=surface
    target m=1

    linking size=2
    row: 0 1
    row: 1 0

    presentation generators=2
    relator: x1 x2 X1 X2
    relator: x2
"""

from __future__ import annotations

import re

from . import words


class ParseError(Exception):
    def __init__(self, message, line, col=1):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


# file kind -> (the qualified name of the class it parses to, its header
# line).  Classes are named, not imported: a parser imports its kind's
# module when it runs, so reading one kind of file loads no other kind's
# engine modules.
_KINDS = {
    "trisection": ("trisect.diagram.TrisectionDiagram", re.compile(
        r"^trisection\s+genus=(\d+)(?:\s+params=\((\d+),(\d+),(\d+)\))?\s*$")),
    "heegaard-kirby": ("trisect.kirby.HeegaardKirbyDiagram",
                       re.compile(r"^heegaard-kirby\s+genus=(\d+)\s*$")),
    "heegaard": ("trisect.diagram.HeegaardDiagram",
                 re.compile(r"^heegaard\s+genus=(\d+)\s*$")),
    "linking": ("trisect.kirby.LinkingMatrix",
                re.compile(r"^linking\s+size=(\d+)\s*$")),
    "presentation": ("trisect.ac.BalancedPresentation",
                     re.compile(r"^presentation\s+generators=(\d+)\s*$")),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _KINDS.items()}

# diagram kind -> (its cut-system sections, whether it also carries a
# framed link section, which may be left out, and a 'target m=...' line)
_DIAGRAM_SECTIONS = {
    "trisection": (("alpha", "beta", "gamma"), False),
    "heegaard": (("alpha", "beta"), False),
    "heegaard-kirby": (("alpha", "beta"), True),
}

_TEMPLATE = re.compile(r"^@(\d+)\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")
_SECTION = re.compile(r"^([a-z][a-z-]*):(.*)$")
_TARGET = re.compile(r"^target\s+m=(\d+)\s*$")
_FRAMED = re.compile(r"^(.*\S)\s+framing=(surface|-?\d+)\s*$")


def _significant_lines(text):
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            out.append((number, body.rstrip()))
    return out


def sniff_kind(text):
    """Header keyword of the first significant line, or None."""
    lines = _significant_lines(text)
    if not lines:
        return None
    head = lines[0][1].strip().split()[0]
    return head if head in _KINDS else None


def kind_of(obj):
    """The file kind that parses to ``obj``'s class, or None when no file
    kind does."""
    cls = type(obj)
    return _KIND_OF.get("%s.%s" % (cls.__module__, cls.__qualname__))


def _parse_header(text, kinds, what):
    """Lines, kind, header line and header match of a ``what`` file."""
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input, expected a header line", 1)
    number, line = lines[0]
    head = line.strip().split()[0]
    if head not in _KINDS:
        raise ParseError("unknown file kind %r" % head, number)
    m = _KINDS[head][1].match(line.strip())
    if m is None:
        raise ParseError("malformed %s header" % head, number)
    if head not in kinds:
        raise ParseError("expected a %s file, got kind %r" % (what, head),
                         number)
    return lines, head, number, m


def _at(line, col, make, *args):
    """``make(*args)``, its ValueError raised as a ParseError at (line,
    col)."""
    try:
        return make(*args)
    except ValueError as e:
        raise ParseError(str(e), line, col)


def _letters(text, line, col, parse, limit, bound):
    """The letters ``parse`` reads from the tokens of a word at ``col``.  A
    token it rejects, or a letter above ``limit`` (``bound`` names it), is
    a ParseError at the token's column."""
    letters = []
    for tok in re.finditer(r"\S+", text):
        v = _at(line, col + tok.start(), parse, tok.group())
        if abs(v) > limit:
            raise ParseError("letter %s exceeds %s" % (tok.group(), bound),
                             line, col + tok.start())
        letters.append(v)
    return tuple(letters)


def _payloads(lines, name):
    """(line, payload, payload column) of each line, which must be a
    ``name: payload`` line."""
    for number, line in lines:
        sm = _SECTION.match(line.strip())
        if sm is None or sm.group(1) != name:
            raise ParseError("expected a '%s: ...' line" % name, number)
        indent = len(line) - len(line.strip())
        yield number, sm.group(2), indent + len(name) + 2


def _chunks(payload, base_col):
    """Semicolon-separated pieces of a section payload, with columns.

    An empty payload has no pieces: a genus-0 system has no curves.
    """
    if not payload.strip():
        return []
    out = []
    start = 0
    while True:
        cut = payload.find(";", start)
        piece = payload[start:cut] if cut >= 0 else payload[start:]
        lead = len(piece) - len(piece.lstrip())
        out.append((piece.strip(), base_col + start + lead))
        if cut < 0:
            return out
        start = cut + 1


def _parse_curve(genus, text, line, col):
    from .diagram import curve_from_template, curve_from_word

    if not text:
        raise ParseError("empty curve entry", line, col)
    if text.startswith("@"):
        m = _TEMPLATE.match(text)
        if m is None:
            raise ParseError("malformed slope template %r" % text, line, col)
        h, p, q = (int(m.group(i)) for i in (1, 2, 3))
        return _at(line, col, curve_from_template, genus, h, p, q)
    return curve_from_word(genus, _letters(
        text, line, col, words.parse_surface_letter, 2 * genus,
        "genus %d" % genus))


def _parse_system(genus, payload, line, base_col):
    from .diagram import CutSystem

    curves = tuple(_parse_curve(genus, text, line, col)
                   for text, col in _chunks(payload, base_col))
    return _at(line, base_col, CutSystem, genus, curves)


def _parse_link(genus, payload, line, base_col):
    from .kirby import SURFACE, FramedComponent

    comps = []
    for text, col in _chunks(payload, base_col):
        m = _FRAMED.match(text)
        if m is None:
            raise ParseError("link component needs a framing=... suffix", line, col)
        curve = _parse_curve(genus, m.group(1), line, col)
        framing = SURFACE if m.group(2) == "surface" else int(m.group(2))
        comps.append(_at(line, col, FramedComponent, curve, framing))
    return tuple(comps)


def _sections(lines, allowed):
    """Map section name -> (payload, line, col of payload start)."""
    seen = {}
    target = None
    for number, line in lines:
        t = _TARGET.match(line.strip())
        if t is not None:
            if target is not None:
                raise ParseError("duplicate target line", number)
            target = (int(t.group(1)), number)
            continue
        m = _SECTION.match(line.strip())
        if m is None:
            raise ParseError("expected a section like %r" %
                             ("%s: ..." % allowed[0]), number)
        name = m.group(1)
        if name not in allowed:
            raise ParseError("unknown section %r (expected one of %s)"
                             % (name, ", ".join(allowed)), number)
        if name in seen:
            raise ParseError("duplicate section %r" % name, number)
        indent = len(line) - len(line.strip())
        seen[name] = (m.group(2), number, indent + len(name) + 2)
    return seen, target


def parse_diagram(text):
    """Parse a trisection, Heegaard, or Heegaard-Kirby diagram file."""
    from .diagram import HeegaardDiagram, TrisectionDiagram

    lines, kind, header_line, m = _parse_header(text, _DIAGRAM_SECTIONS,
                                                "diagram")
    genus = int(m.group(1))
    systems, has_link = _DIAGRAM_SECTIONS[kind]
    secs, target = _sections(lines[1:],
                             systems + (("link",) if has_link else ()))
    if target is not None and not has_link:
        raise ParseError("target line only belongs in heegaard-kirby files",
                         target[1])
    for name in systems:
        if name not in secs:
            raise ParseError("missing section %r" % name, header_line)
    if has_link and target is None:
        raise ParseError("missing 'target m=...' line", header_line)
    # sections are parsed in file order, so the first bad line is reported
    parsed = {name: (_parse_link if name == "link" else _parse_system)(
        genus, *secs[name]) for name in secs}
    try:
        if kind == "trisection":
            declared = None
            if m.group(2) is not None:
                declared = (int(m.group(2)), int(m.group(3)), int(m.group(4)))
            return TrisectionDiagram(genus, parsed["alpha"], parsed["beta"],
                                     parsed["gamma"], declared)
        background = HeegaardDiagram(genus, parsed["alpha"], parsed["beta"])
        if kind == "heegaard":
            return background
        from .kirby import HeegaardKirbyDiagram
        return HeegaardKirbyDiagram(genus, background, parsed.get("link", ()),
                                    target[0])
    except ValueError as e:
        raise ParseError(str(e), header_line)


def parse_linking(text):
    from .kirby import LinkingMatrix

    lines, _, header_line, m = _parse_header(text, ("linking",), "linking")
    size = int(m.group(1))
    rows = []
    for number, payload, _ in _payloads(lines[1:], "row"):
        try:
            row = [int(t) for t in payload.split()]
        except ValueError:
            raise ParseError("rows must be integers", number)
        if len(row) != size:
            raise ParseError("row has %d entries, expected %d"
                             % (len(row), size), number)
        rows.append(row)
    if len(rows) != size:
        raise ParseError("got %d rows, expected %d" % (len(rows), size),
                         header_line)
    return _at(header_line, 1, LinkingMatrix.from_rows, rows)


def parse_presentation(text):
    from .ac import BalancedPresentation

    lines, _, header_line, m = _parse_header(text, ("presentation",),
                                             "presentation")
    n = int(m.group(1))
    relators = tuple(
        _letters(payload, number, col, words.parse_generator_letter, n,
                 "generator count %d" % n)
        for number, payload, col in _payloads(lines[1:], "relator"))
    return _at(header_line, 1, BalancedPresentation, n, relators)


def parse_any(text):
    """Parse whichever kind the header announces."""
    kind = sniff_kind(text)
    if kind == "linking":
        return parse_linking(text)
    if kind == "presentation":
        return parse_presentation(text)
    return parse_diagram(text)


# -- canonical output ---------------------------------------------------------

def format_curve(c):
    if c.template is not None:
        return "@%d(%d,%d)" % (c.template.handle, c.template.p, c.template.q)
    return words.format_surface_word(c.word)


def _system_line(name, system):
    return "%s: %s" % (name, " ; ".join(format_curve(c) for c in system.curves))


def format_diagram(obj):
    kind = kind_of(obj)
    if kind not in _DIAGRAM_SECTIONS:
        raise TypeError("not a diagram: %r" % (obj,))
    out = ["%s genus=%d" % (kind, obj.genus)]
    if kind == "trisection" and obj.declared_params is not None:
        out[0] += " params=(%d,%d,%d)" % obj.declared_params
    systems, has_link = _DIAGRAM_SECTIONS[kind]
    d = obj.background if has_link else obj
    out += [_system_line(name, getattr(d, name)) for name in systems]
    if has_link:
        if obj.link:
            # the framing is the word 'surface' or an integer
            out.append("link: %s" % " ; ".join(
                "%s framing=%s" % (format_curve(comp.curve), comp.framing)
                for comp in obj.link))
        out.append("target m=%d" % obj.m)
    return "\n".join(out) + "\n"


def format_linking(m):
    out = ["linking size=%d" % m.size]
    for row in m.rows:
        out.append("row: %s" % " ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def format_presentation(p):
    out = ["presentation generators=%d" % p.generators]
    for r in p.relators:
        out.append("relator: %s" % words.format_generator_word(r))
    return "\n".join(out) + "\n"


def format_any(obj):
    kind = kind_of(obj)
    if kind == "linking":
        return format_linking(obj)
    if kind == "presentation":
        return format_presentation(obj)
    return format_diagram(obj)

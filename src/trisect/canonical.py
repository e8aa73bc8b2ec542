"""Canonical forms for trisection diagrams up to diagram isomorphism.

Two representations, chosen per diagram:

* Template path (every system has exactly one slope curve per handle):
  each handle carries an (alpha, beta, gamma) slope triple, reduced to a
  canonical representative under the handle's SL(2,Z) basis changes, and
  handles are then sorted.  SL(2,Z) moves are realized by orientation-
  preserving homeomorphisms supported in one handle, so this quotient is
  sound: it can never merge a diagram with its orientation reverse (the
  triangle sign det*det*det is SL(2,Z)-invariant).

* Word path (anything else): minimize the cyclic-word systems over handle
  permutations and the per-handle quarter-turn x -> y -> x^-1 -> y^-1,
  a subgroup of the above.  Coarser but still sound.

Forms from different paths are not comparable; callers compare template
diagrams with template diagrams.
"""

from __future__ import annotations

from itertools import permutations, product

from . import words

_WORD_PERM_LIMIT = 6
_WORD_ROT_LIMIT = 5


def _normalize_slope(p, q):
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q)
    return (p, q)


def _slope_key(s):
    p, q = _normalize_slope(*s)
    return (p, abs(q), 0 if q >= 0 else 1)


def _triple_key(triple):
    return tuple(_slope_key(s) for s in triple)


def _bezout_to_01(p, q):
    """An SL(2,Z) matrix sending the primitive column (p, q) to (0, 1)."""
    # extended gcd for x*p + y*q == 1
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, x = x, old_x - quo * x
        old_y, y = y, old_y - quo * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return ((q, -p), (old_x, old_y))


def _apply(m, s):
    (a, b), (c, d) = m
    p, q = s
    return (a * p + b * q, c * p + d * q)


def reduce_triple(triple):
    """Canonical representative of a slope triple under common SL(2,Z).

    The first slope is sent to (0, 1); the leftover freedom is the twist
    (u, v) -> (u, v + c*u), scanned over the finitely many c that can
    minimize the second then third slope keys.
    """
    base = _bezout_to_01(*triple[0])
    imgs = [_apply(base, s) for s in triple]
    cands = {0}
    for (u, v) in imgs[1:]:
        if u != 0:
            center = -(v // u)  # ceil(-v/u), within 1 of the real minimizer
            for d in (-2, -1, 0, 1, 2):
                cands.add(center + d)
    best = None
    best_key = None
    for c in sorted(cands):
        cand = tuple(_normalize_slope(u, v + c * u) for (u, v) in imgs)
        key = _triple_key(cand)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def _template_layout(t):
    """Per-handle slope triples, or None when the layout does not apply."""
    g = t.genus
    layout = [[None] * 3 for _ in range(g)]
    for s_idx, cs in enumerate(t.systems()):
        seen = set()
        for c in cs.curves:
            if c.template is None:
                return None
            h = c.template.handle
            if h in seen:
                return None
            seen.add(h)
            layout[h - 1][s_idx] = c.template.slope
    return [tuple(row) for row in layout]


# quarter turn on a handle: x -> y -> x^-1 -> y^-1 -> x
_ROT_X = (1, 2, -1, -2)
_ROT_Y = (2, -1, -2, 1)


def _letter_table(genus, perm, rots):
    """Letter substitution for handle permutation + per-handle rotations."""
    table = {}
    for h in range(1, genus + 1):
        target = perm[h - 1] + 1
        r = rots[h - 1]
        for src_base, cycle in ((2 * h - 1, _ROT_X), (2 * h, _ROT_Y)):
            fam = cycle[r]
            sign = 1 if fam > 0 else -1
            letter = (2 * target - 1) if abs(fam) == 1 else 2 * target
            table[src_base] = (sign * letter,)
    return table


def _word_form(t):
    g = t.genus
    if g == 0:
        return "g0"
    perms = (list(permutations(range(g))) if g <= _WORD_PERM_LIMIT
             else [tuple(range(g))])
    rot_space = (list(product(range(4), repeat=g)) if g <= _WORD_ROT_LIMIT
                 else [(0,) * g])
    best = None
    for perm in perms:
        for rots in rot_space:
            table = _letter_table(g, perm, rots)
            cand = tuple(
                tuple(sorted(words.cyclic_min(words.map_letters(c.word, table))
                             for c in cs.curves))
                for cs in t.systems())
            if best is None or cand < best:
                best = cand
    return "w:%d:%r" % (g, best)


def canonical_form(t):
    """Stable string identifying the diagram up to isomorphism."""
    if t.genus == 0:
        return "g0"
    layout = _template_layout(t)
    if layout is None:
        return _word_form(t)
    units = sorted(reduce_triple(triple) for triple in layout)
    return "t:%d:%r" % (t.genus, units)

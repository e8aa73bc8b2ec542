"""Free-group words over signed integer letters.

Conventions shared by every module:

* A word is a tuple of nonzero ints.  Letter v and -v are mutually inverse;
  the empty tuple is the identity.
* Surface words at genus g use letters 1..2g: handle h contributes
  x_h = 2h-1 and y_h = 2h.  Text form ``x2 Y1`` (capital letter = inverse).
* Presentation words over n generators use letters 1..n with tokens
  ``x1 .. xn`` (``X3`` = inverse of generator 3).
* A byte word spells letter v (|v| < 128) as the byte ``BYTE_BASE + v``
  (``byte_word``, ``int_word``), so byte order is letter order and a letter
  and its inverse sum to ``2 * BYTE_BASE``.  The Andrews-Curtis search keeps
  its relators so; ``strip_wrap``, ``rotation_product`` and
  ``least_rotation`` take either encoding and answer in it.

Everything here is pure and allocation-cheap; words stay small tuples.
"""

from __future__ import annotations

from math import gcd

BYTE_BASE = 128


def inverse(word):
    """Inverse word: reversed letters, each negated."""
    return tuple(-v for v in reversed(word))


def free_reduce(letters):
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for v in letters:
        if v == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def byte_word(word):
    """The byte word of an int word."""
    return bytes([BYTE_BASE + v for v in word])


def int_word(word):
    """The int word of a byte word."""
    return tuple([b - BYTE_BASE for b in word])


def strip_wrap(w):
    """Cyclic reduction of a freely reduced word: only the inverse pairs
    around its wrap are left to cancel."""
    # inverse letters sum to 0, or to 2 * BYTE_BASE in a byte word
    zero = 2 * BYTE_BASE if isinstance(w, bytes) else 0
    lo, hi = 0, len(w)
    while hi - lo > 1 and w[lo] + w[hi - 1] == zero:
        lo += 1
        hi -= 1
    return w[lo:hi]


def cyclic_reduce(word):
    """Freely reduce, then strip inverse pairs wrapping around the ends."""
    return strip_wrap(free_reduce(word))


def cancelling_rotations(u, base):
    """Rotations r of ``base`` whose product with ``u`` can cancel, ascending.

    For nonempty cyclically reduced ``u`` and ``base``,
    ``u + base[r:] + base[:r]`` cancels only when the rotation starts with
    the inverse of ``u``'s last letter (the seam) or ends with the inverse
    of its first letter (the wrap).  Every other rotation reduces to
    exactly ``len(u) + len(base)`` letters, so it can neither shorten
    ``u`` nor keep its length.
    """
    n = len(base)
    rs = set()
    for v, shift in ((-u[-1], 0), (-u[0], 1)):
        p = -1
        for _ in range(base.count(v)):
            p = base.index(v, p + 1)
            rs.add((p + shift) % n)
    return sorted(rs)


def rotation_product(u, base, r):
    """``cyclic_reduce(u + base[r:] + base[:r])`` by seam arithmetic.

    ``u`` must be freely reduced and ``base`` cyclically reduced, so the
    rotation is freely reduced too.  Letters then cancel only at the seam,
    the last k letters of ``u`` against the first k of the rotation, and
    afterwards at the wrap between the two ends of what is left.  Both
    words are int words or both byte words.
    """
    zero = 2 * BYTE_BASE if isinstance(u, bytes) else 0
    c = base[r:] + base[:r]
    k, top = 0, min(len(u), len(c))
    while k < top and u[-1 - k] + c[k] == zero:
        k += 1
    w = u[:len(u) - k] + c[k:]
    lo, hi = 0, len(w)
    while hi - lo > 1 and w[lo] + w[hi - 1] == zero:
        lo += 1
        hi -= 1
    return w[lo:hi]


def cyclic_min(word):
    """Least representative of the cyclic class of ``word`` and its inverse.

    Used as a membership / dedup key: two curves with freely homotopic
    (unoriented) core words share the same key.
    """
    w = cyclic_reduce(word)
    return min(least_rotation(w), least_rotation(inverse(w)))


def least_rotation(word):
    """Lexicographically least cyclic rotation of ``word`` (``()`` if empty).

    Only rotations that start at the word's least letter can win, so only
    those are compared.  Byte words work too; ``ac`` names relator classes
    by them.
    """
    if not word:
        return word[:0]
    least = min(word)
    i = word.index(least)
    best = word[i:] + word[:i]
    for _ in range(word.count(least) - 1):
        i = word.index(least, i + 1)
        rot = word[i:] + word[:i]
        if rot < best:
            best = rot
    return best


def substitute(word, generator, replacement):
    """Replace every occurrence of ``generator`` (a positive letter) by
    ``replacement`` (occurrences of the inverse get the inverse word), then
    freely reduce."""
    if generator <= 0:
        raise ValueError("generator must be a positive letter")
    inv = inverse(replacement)
    out = []
    for v in word:
        if v == generator:
            out.extend(replacement)
        elif v == -generator:
            out.extend(inv)
        else:
            out.append(v)
    return free_reduce(out)


def map_letters(word, table):
    """Relabel letters through ``table``: positive letter v maps to the word
    ``table[v]``; negative letters map to the inverse word."""
    out = []
    for v in word:
        img = table[abs(v)]
        out.extend(img if v > 0 else inverse(img))
    return free_reduce(out)


# -- slope words ------------------------------------------------------------

def christoffel_word(p, q):
    """Primitive (p, q) torus word in abstract letters x = 1, y = 2.

    The positive-slope case is the lower Christoffel word, the standard
    embedded representative of the (p, q) curve on a once-punctured torus;
    negative p or q substitute the inverse letter (the image of an embedded
    curve under a handle homeomorphism, so still embeddable).
    """
    if p == 0 and q == 0:
        raise ValueError("slope (0, 0) is not a curve")
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("slope (%d, %d) is not primitive" % (p, q))
    sx = 1 if p >= 0 else -1
    sy = 2 if q >= 0 else -2
    a, b = abs(p), abs(q)
    if a == 0:
        return (sy,)
    if b == 0:
        return (sx,)
    n = a + b
    out = []
    for i in range(n):
        out.append(sy if (i + 1) * b // n - i * b // n else sx)
    return tuple(out)


# -- text form ---------------------------------------------------------------

def surface_letter_token(v):
    """Token for a surface letter: x_h = 2h-1, y_h = 2h, capitals invert."""
    a = abs(v)
    h = (a + 1) // 2
    fam = "x" if a % 2 == 1 else "y"
    if v < 0:
        fam = fam.upper()
    return "%s%d" % (fam, h)


def parse_surface_letter(tok):
    fam, idx = tok[:1], tok[1:]
    if fam.lower() not in ("x", "y") or not idx.isdigit() or int(idx) < 1:
        raise ValueError("bad surface letter %r" % tok)
    h = int(idx)
    v = 2 * h - 1 if fam.lower() == "x" else 2 * h
    return -v if fam.isupper() else v


def format_surface_word(word):
    return " ".join(surface_letter_token(v) for v in word)


def parse_surface_word(text):
    return tuple(parse_surface_letter(t) for t in text.split())


def generator_token(v):
    return ("X%d" if v < 0 else "x%d") % abs(v)


def parse_generator_letter(tok):
    fam, idx = tok[:1], tok[1:]
    if fam.lower() != "x" or not idx.isdigit() or int(idx) < 1:
        raise ValueError("bad generator letter %r" % tok)
    return -int(idx) if fam.isupper() else int(idx)


def format_generator_word(word):
    return " ".join(generator_token(v) for v in word)


def parse_generator_word(text):
    return tuple(parse_generator_letter(t) for t in text.split())

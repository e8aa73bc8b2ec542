"""Balanced presentations and a bounded Andrews-Curtis trivialization search.

Moves are the classical set: invert a relator, right-multiply one relator
by another, conjugate a relator by a single generator, and (in the stable
variant) add or delete a trivial generator-relator pair.  The search works
on canonical keys, so two presentations differing by relator order, cyclic
rotation, relator inversion, or a signed relabeling of the generators are
one node.  The images of a relator class (a relator up to rotation and
inversion) under all signed relabelings are computed once per relabeling
orbit of classes and process, in one shared symmetry table per generator
count (``_symmetry``), and a key sorts only the columns of the
relabelings that reach the least image of any relator.

Inside the search a state is a tuple of byte relators (the encoding of
the class images), a key is the column of images that ``canonical_key``
formats, and an edge is a small descriptor, expanded into primitive moves
only for the returned path.  A child replaces one relator of the expanded
state by a new core, so it is keyed from the state's class entries and the
core's.  It is one flat tuple, (key, parent key, parent state, relator
index, core, *descriptor), and when its key is new that tuple is the key's
only record: the search's parent map and frontier hold it, and the child
state is built only when it is expanded.  A core of the class of an earlier
core replacing the same relator is skipped: the two children differ by a
rotation or inversion of that relator, so they share a key, which the
earlier one left stored.

Expanding a state streams records (``_expansion``): per keyed child, its
class lookups, counter increments and the child.  They depend on the state
and the bounds alone (the parent key is a function of the state), and
every backward side grows from the trivial presentation, so the process
keeps the records of a repeated backward expansion for later searches
(``_step``).  The path is replayed with ``apply_ac_move``, which
validates every step; each backward move is the first child keyed to the
next key, found by an orbit test (``_rows``).
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import permutations, product
from math import factorial
from operator import itemgetter

from . import words
from .intmatrix import IntegerMatrix
from .verdict import Frozen, refuted, unknown, verified

DEFAULT_MAX_STATES = 20000


class BalancedPresentation(Frozen):
    """n generators and exactly n freely reduced relator words."""
    _fields = ("generators", "relators")

    def __post_init__(self):
        if self.generators < 0:
            raise ValueError("generator count must be nonnegative")
        if len(self.relators) != self.generators:
            raise ValueError("balanced presentation needs %d relators, got %d"
                             % (self.generators, len(self.relators)))
        fixed = []
        for w in self.relators:
            r = words.free_reduce(w)
            for v in r:
                if abs(v) > self.generators:
                    raise ValueError("letter %d outside %d generators"
                                     % (v, self.generators))
            fixed.append(r)
        object.__setattr__(self, "relators", tuple(fixed))

    def total_length(self):
        return sum(len(r) for r in self.relators)

    def is_trivial_form(self):
        """One single-letter relator per generator, each generator once."""
        if any(len(r) != 1 for r in self.relators):
            return False
        return sorted(abs(r[0]) for r in self.relators) == \
            list(range(1, self.generators + 1))


def trivial_presentation(n):
    return BalancedPresentation(n, tuple((g,) for g in range(1, n + 1)))


def ak_presentation(n):
    """The two-generator family with relators yxy=xyx and x^(n+1)=y^n."""
    if n < 1:
        raise ValueError("the family is indexed by n >= 1")
    r1 = (2, 1, 2, -1, -2, -1)
    r2 = (1,) * (n + 1) + (-2,) * n
    return BalancedPresentation(2, (r1, r2))


def apply_ac_move(p, move):
    """One move applied to a balanced presentation.

    Moves are tuples: ("invert", i), ("multiply", i, j) for r_i <- r_i r_j,
    ("conjugate", i, g, sign) for r_i <- (g^sign) r_i (g^-sign),
    ("stabilize",) adding a generator and its killing relator, and
    ("destabilize", i) removing relator i when it is a single letter whose
    generator appears in no other relator.  Indices are 1-based.  Inverses:
    invert is its own, conjugate inverts by flipping the sign, multiply by
    (invert j, multiply, invert j), stabilize by destabilize.
    """
    kind = move[0]
    rs = list(p.relators)
    n = p.generators
    if kind == "invert":
        (i,) = move[1:]
        _check_index(i, len(rs))
        rs[i - 1] = words.inverse(rs[i - 1])
        return BalancedPresentation(n, tuple(rs))
    if kind == "multiply":
        i, j = move[1:]
        _check_index(i, len(rs))
        _check_index(j, len(rs))
        if i == j:
            raise ValueError("multiply needs two distinct relators")
        rs[i - 1] = words.free_reduce(rs[i - 1] + rs[j - 1])
        return BalancedPresentation(n, tuple(rs))
    if kind == "conjugate":
        i, g, sign = move[1:]
        _check_index(i, len(rs))
        if not 1 <= g <= n:
            raise ValueError("generator %d out of range 1..%d" % (g, n))
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        rs[i - 1] = words.free_reduce((sign * g,) + rs[i - 1] + (-sign * g,))
        return BalancedPresentation(n, tuple(rs))
    if kind == "stabilize":
        return BalancedPresentation(n + 1, tuple(rs) + ((n + 1,),))
    if kind == "destabilize":
        (i,) = move[1:]
        _check_index(i, len(rs))
        r = rs[i - 1]
        if len(r) != 1:
            raise ValueError("relator %d is not a single letter" % i)
        g = abs(r[0])
        for k, other in enumerate(rs):
            if k != i - 1 and any(abs(v) == g for v in other):
                raise ValueError("generator %d appears in relator %d"
                                 % (g, k + 1))
        del rs[i - 1]
        table = {v: ((v,) if v < g else (v - 1,)) for v in range(1, n + 1)}
        rs = [words.map_letters(w, table) for w in rs]
        return BalancedPresentation(n - 1, tuple(rs))
    raise ValueError("unknown move kind %r" % (kind,))


def _check_index(i, count):
    if not 1 <= i <= count:
        raise ValueError("relator index %d out of range 1..%d" % (i, count))


def ab_det(p):
    """Determinant of the exponent-sum matrix (relators by generators)."""
    rows = []
    for r in p.relators:
        row = [0] * p.generators
        for v in r:
            row[abs(v) - 1] += 1 if v > 0 else -1
        rows.append(row)
    return IntegerMatrix.from_rows(rows).determinant()


def ab_det_refutation(p):
    """The refutation an exponent matrix of determinant other than +-1
    gives ``p``, or None.  Search-free."""
    d = ab_det(p)
    if abs(d) == 1:
        return None
    return refuted(
        "exponent matrix determinant is %d, so the group abelianizes "
        "to a nontrivial group" % d, {"kind": "ab-det", "det": d})


# letter v is the byte _BASE + v in byte words, so negation is 2 * _BASE - byte
_BASE = words.BYTE_BASE
_NEGATE = bytes((2 * _BASE - b) % 256 for b in range(256))


def _relabelings(n):
    """The signed relabelings of n >= 1 generators, one entry per pair of a
    relabeling t (generator 1 kept positive) and its negation -t, in
    permutation-major order.

    An entry is three ``bytes.translate`` tables on byte words: ``image``
    maps each letter to its image under t, ``inverse`` to the inverse of
    that image, and ``preimage`` takes an image letter back.  Since -t maps
    each letter to the inverse of its image under t, the tables of -t are
    ``inverse`` and ``image``.
    """
    letters = bytes([_BASE + g for g in range(1, n + 1)]
                    + [_BASE - g for g in range(1, n + 1)])
    tables = []
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n - 1):
            pos = [_BASE + s * h for s, h in zip((1,) + signs, perm)]
            images = bytes(pos + [2 * _BASE - b for b in pos])
            image = bytes.maketrans(letters, images)
            tables.append((image, image.translate(_NEGATE),
                           bytes.maketrans(images, letters)))
    return tables


def _composer(n, tables):
    """``indices(s)`` for n >= 1 generators: the list whose entry r is the
    index of the relabeling sigma_r o sigma_s, where sigma_2k is the k-th
    of ``tables`` (the ``_relabelings(n)``) and sigma_2k+1 its negation,
    as in ``_class_images``.

    A relabeling is known by the images of the n generators, so one list
    costs a translation and a lookup per entry.
    """
    gens = bytes(range(_BASE + 1, _BASE + n + 1))
    maps = [t for image, inverse, _ in tables for t in (image, inverse)]
    where = {gens.translate(t): r for r, t in enumerate(maps)}

    def indices(s):
        first = gens.translate(maps[s])
        return [where[first.translate(t)] for t in maps]
    return indices


def _least_start(rotations, table):
    """The least of ``rotations`` after relabeling through ``table``."""
    if len(rotations) == 1:
        return rotations[0].translate(table)
    return min([r.translate(table) for r in rotations])


def _byte_class(w):
    """The byte word naming the class of byte relator ``w`` up to rotation
    and inversion: the least rotation of its cyclic reduction or its
    inverse."""
    x = words.strip_wrap(w)
    if not x:
        return x
    least = words.least_rotation
    lo, hi = min(x), 2 * _BASE - max(x)
    if lo < hi:
        return least(x)
    inv = x[::-1].translate(_NEGATE)
    return least(inv) if lo > hi else min(least(x), least(inv))


def _class_images(word, tables):
    """A relator class's images: ``(images, least, winners)``.

    ``word`` is a cyclically reduced byte word.  ``images`` holds the least
    rotation of its image or its inverse's under each relabeling: entry 2k
    under the k-th of ``tables``, 2k + 1 under its negation.  ``least`` is
    the least of them, and ``winners`` lists the relabelings reaching it.

    A least rotation starts at the least letter, so only the rotations of
    ``word`` and of its reversal that start at a letter relabeled to it
    are compared.  Under t, the image x of ``word`` has least letter
    ``lo = min(x)`` and the image of its inverse has ``hi``, the negation
    of ``max(x)``; only the side with the smaller one is built, and both
    only on a tie.  Under -t the two sides swap their least letters (the
    image of ``word`` is x with every letter inverted, that of its inverse
    is x reversed), so one translation of ``word`` decides both
    relabelings of a pair.
    """
    if not word:
        return (b"",) * (2 * len(tables)), b"", tuple(range(2 * len(tables)))
    size = len(word)
    back = word[::-1]
    ww, bb = word + word, back + back
    fwd, bwd = {}, {}
    for i in range(size):
        fwd.setdefault(word[i], []).append(ww[i:i + size])
        bwd.setdefault(back[i], []).append(bb[i:i + size])
    images = []
    for image, inverse, preimage in tables:
        x = word.translate(image)
        lo, top = min(x), max(x)
        hi = 2 * _BASE - top
        if lo <= hi:
            v = preimage[lo]
            a = _least_start(fwd[v], image)
            b = _least_start(bwd[v], image)
        if lo >= hi:
            v = preimage[top]
            a2 = _least_start(bwd[v], inverse)
            b2 = _least_start(fwd[v], inverse)
            a, b = (a2, b2) if lo > hi else (min(a, a2), min(b, b2))
        images.append(a)
        images.append(b)
    least = min(images)
    winners = tuple(s for s, x in enumerate(images) if x == least)
    return tuple(images), least, winners


def _orbit_images(base, indices):
    """The images of the class that is image s of the class whose
    ``_class_images`` are ``base``, given ``indices`` = ``indices(s)`` of
    ``_composer``: image r of it is image sigma_r o sigma_s of the base
    class.  The least image is the base's."""
    images = itemgetter(*indices)(base[0])
    least = base[1]
    return images, least, tuple([r for r, x in enumerate(images)
                                 if x == least])


# The most units one generator count's symmetry table stores: a computed
# class adds its 2^n n! images, a composer index list as many indices, a
# kept expansion one per record and per class lookup in it, and a mark one
# until records replace it.  An image costs about 80 bytes and a record
# unit about 170-215 (CPython 3.11: 480-575 bytes per kept record on 2
# generators with its class lookups, 136 of them the child's flat tuple,
# by getsizeof over the ac-ak benchmark's kept records and by
# tracemalloc), so a full table holds 10-28 MB; the 139 searches of the
# ac-ak benchmark at 10 s store about 49,000 units (2,700 of them in
# records) in their four tables.
_SYMMETRY_CAP = 1 << 17


class _Symmetry:
    """The symmetry table of n >= 1 generators: the ``_relabelings(n)``
    ``tables``, the ``_composer`` function ``compose``, the ``orbits``
    index mapping every image of a class whose images were computed to
    that class's entry, the ``indices`` lists of ``compose`` by ``s``, the
    ``size`` in units of what the dicts hold, and the kept expansions
    (``records``) of states with n relators (``_step``).  Every value in
    it depends on n and its key alone, so one table serves every search of
    the process, and emptying it (see ``_SYMMETRY_CAP``) changes no
    answer, only work."""
    __slots__ = ("tables", "compose", "orbits", "indices", "size", "records")

    def __init__(self, n):
        self.tables = _relabelings(n)
        self.compose = _composer(n, self.tables)
        self.orbits, self.indices, self.size, self.records = {}, {}, 0, {}

    def store(self, size):
        """Make room for ``size`` more units, emptying the table first when
        they would take it over ``_SYMMETRY_CAP``."""
        if self.size + size > _SYMMETRY_CAP:
            self.orbits, self.indices, self.records, self.size = {}, {}, {}, 0
        self.size += size

    def entry(self, c):
        """The entry ``(images, least, winners)`` of class word ``c``: the
        computed entry of its orbit, relabeled unless ``c`` is that
        class."""
        base = self.orbits.get(c)
        if base is None:
            base = _class_images(c, self.tables)
            self.store(len(base[0]))
            self.orbits.update(dict.fromkeys(base[0], base))
            return base
        s = base[0].index(c)
        if not s:
            return base
        indices = self.indices.get(s)
        if indices is None:
            indices = self.compose(s)
            self.store(len(indices))
            self.indices[s] = indices
        return _orbit_images(base, indices)


# generator count -> its symmetry table, shared by every search of the
# process
_SYMMETRY = {}


def _symmetry(n):
    """The process's symmetry table of n >= 1 generators."""
    return _SYMMETRY.get(n) or _SYMMETRY.setdefault(n, _Symmetry(n))


def _lookup(classes, n, w):
    """The class entry ``(images, least, winners)`` of byte relator ``w`` on
    n generators, from the ``classes`` a search's memo met on n (its
    ``memo[n]``) or the shared table, entering nothing.  Only class words
    are keys of the classes, one entry per class, so any other relator
    reaches its entry through its class word (``_byte_class``)."""
    entry = classes.get(w)
    if entry is None:
        c = _byte_class(w)
        entry = classes.get(c) or _symmetry(n).entry(c)
    return entry


def _enter(memo, looked):
    """Enter the class lookups ``(n, entry)`` in the search's memo, in
    order, each under its class word (``images[0]``)."""
    for n, entry in looked:
        classes = memo.get(n) or memo.setdefault(n, {})
        classes.setdefault(entry[0][0], entry)


def _least(entries):
    """The least image of the ``entries`` and the relabelings reaching it."""
    least = min([e[1] for e in entries])
    return least, set().union(*[e[2] for e in entries if e[1] == least])


def _column(entries, cand):
    """The least sorted column of the entries' images: only the columns
    of ``cand``, the relabelings reaching the least image, can be it."""
    if len(cand) == 1:
        return tuple(sorted([e[0][s] for s in cand for e in entries]))
    pick = itemgetter(*cand)
    return tuple(min(map(sorted, zip(*[pick(e[0]) for e in entries]))))


def _state(p):
    """The search state of presentation ``p``: its relators as byte words."""
    return tuple(map(words.byte_word, p.relators))


def _key(state, memo, looked=None):
    """The key of a state: the column of images that ``canonical_key``
    formats, one per relator.  Its class lookups ``(n, entry)`` are
    appended to ``looked``, or entered in ``memo`` when it is None."""
    n = len(state)
    if not n:
        return ()
    classes = memo.setdefault(n, {})
    entries = [_lookup(classes, n, w) for w in state]
    found = [(n, e) for e in entries]
    if looked is None:
        _enter(memo, found)
    else:
        looked.extend(found)
    return _column(entries, _least(entries)[1])


def canonical_key(p):
    """Stable byte string naming the presentation up to symmetry.

    Relators are cyclically reduced and minimized over rotation and
    inversion, the list is sorted, and the whole is minimized over signed
    relabelings of the generators: the text of the search's key ``_key``.
    Each call keys on a fresh memo; its symmetry table is still the
    process's (``_symmetry``), shared with every search.
    """
    column = _key(_state(p), {})
    return ("%d:%s" % (len(column), "|".join(
        [",".join(map(str, words.int_word(x))) for x in column]))
            ).encode("ascii")


class SearchResult(Frozen):
    """Outcome of a bounded trivialization search.

    ``path`` is a replayable tuple of primitive moves when found, else
    None.  ``stats`` (a fresh dict by default) counts visited states, what
    cut the frontier, the states expanded at the generator cap
    (``at_generator_cap``, which cut nothing), the relabeling orbits
    of relator classes the search met (``class_images``: the classes
    whose images it would compute on an empty symmetry table) and the
    other classes it met in them (``orbit_images``: relabeled from their
    orbit), and the children keyed or skipped for a sibling's class
    (``child_keys``, ``sibling_skips``), all in the search's expansions
    (writing out the path counts nothing), and ``complete``: unknown
    because one side's component closed with no depth cut on that side,
    so no trivialization exists within the length cap (and, stable,
    through at most two more generators).  Stats never enter witnesses.
    """
    _fields = ("path", "verdict", "stats")
    _defaults = {"stats": None}

    def __post_init__(self):
        if self.stats is None:
            object.__setattr__(self, "stats", {})

    @property
    def found(self):
        return self.path is not None


def _rotation_moves(i, prefix, undo=False):
    """Conjugations turning r_i into its rotation past ``prefix`` (or back)."""
    if undo:
        return [("conjugate", i, abs(v), 1 if v > 0 else -1)
                for v in reversed(prefix)]
    return [("conjugate", i, abs(v), -1 if v > 0 else 1) for v in prefix]


def _wrap_length(w):
    """How many letters a freely reduced word cancels around its wrap; the
    conjugations peeling them are ``_rotation_moves(i, w[:t])``."""
    return (len(w) - len(words.strip_wrap(w))) // 2


def _aligned_products(state, max_total_length, rows=None):
    """The cores of the children obtained by multiplying a rotation of one
    relator of ``state`` (a tuple of byte words) by a rotation of another
    or of its inverse, then cyclically reducing, each distinct core with
    its descriptor ``(i, j, m, e, k)``: r_i rotated by m letters times
    r_j^e rotated by k letters is the core, and it replaces r_i.
    ``_product_moves`` expands a descriptor into primitive moves.  A core
    that takes the child's total length over ``max_total_length`` comes as
    None.

    Every relator of ``state`` must be cyclically reduced, as every search
    state's is: then ``words.rotation_product`` builds each core from the
    seam and the wrap alone.

    Bare conjugations and inversions never change the canonical key, so
    they only appear inside these composites: both rotations are
    conjugation runs, the second relator's undone after the multiply.
    Rotating the first factor too keeps the edge set closed under the
    symmetries the key quotients out; that makes key-level dedup sound
    and the key graph undirected (every edge has an in-family inverse).
    Given ``rows``, only the relators whose 0-based index is in it are
    replaced.
    """
    n = len(state)
    total = sum(map(len, state))
    inverses = [w[::-1].translate(_NEGATE) for w in state]
    for i in range(1, n + 1):
        if rows is not None and i - 1 not in rows:
            continue
        left = state[i - 1]
        room = max_total_length - total + len(left)
        produced = set()
        for j in range(1, n + 1):
            if i == j or not state[j - 1]:
                continue
            factors = ((1, state[j - 1]), (-1, inverses[j - 1]))
            for m in range(max(1, len(left))):
                rot_left = left[m:] + left[:m]
                for e, base in factors:
                    for k in range(len(base)):
                        core = words.rotation_product(rot_left, base, k)
                        if core in produced:
                            continue
                        produced.add(core)
                        yield (i, j, m, e, k), (
                            None if len(core) > room else core)


def _product_moves(p, desc):
    """The primitive moves of the search edge ``desc`` out of ``p``."""
    if isinstance(desc[0], str):
        return [desc]
    i, j, m, e, k = desc
    left = p.relators[i - 1]
    base = p.relators[j - 1] if e == 1 else words.inverse(p.relators[j - 1])
    new = words.free_reduce(left[m:] + left[:m] + base[k:] + base[:k])
    moves = _rotation_moves(i, left[:m])
    if e == -1:
        moves.append(("invert", j))
    moves.extend(_rotation_moves(j, base[:k]))
    moves.append(("multiply", i, j))
    moves.extend(_rotation_moves(i, new[:_wrap_length(new)]))
    moves.extend(_rotation_moves(j, base[:k], undo=True))
    if e == -1:
        moves.append(("invert", j))
    return moves


def _stable_edges(state, gen_cap, max_total_length):
    """Edges adding or deleting a trivial pair, each with the child state
    that ``apply_ac_move`` would build (None over the length cap); a
    descriptor is its move."""
    n = len(state)
    if n < gen_cap:
        yield ("stabilize",), (state + (bytes([_BASE + n + 1]),)
                               if sum(map(len, state)) < max_total_length
                               else None)
    for i, r in enumerate(state, 1):
        if len(r) != 1:
            continue
        g = abs(r[0] - _BASE)
        if any(_BASE + g in w or _BASE - g in w
               for k, w in enumerate(state) if k != i - 1):
            continue
        # the generators above g move down by one
        up = bytes(range(_BASE + g + 1, _BASE + n + 1)) + \
            bytes(range(_BASE - n, _BASE - g))
        table = bytes.maketrans(up, bytes([b - 1 if b > _BASE else b + 1
                                           for b in up]))
        yield ("destabilize", i), tuple(
            [w.translate(table) for w in state[:i - 1] + state[i:]])


def _normalize_start(p):
    """Cyclically reduce every relator; returns (presentation, moves)."""
    rs = list(p.relators)
    moves = []
    for i, w in enumerate(rs, 1):
        t = _wrap_length(w)
        rs[i - 1] = w[t:len(w) - t]
        moves.extend(_rotation_moves(i, w[:t]))
    return BalancedPresentation(p.generators, tuple(rs)), moves


def _rows(entries, target):
    """Per relator i of a state with class ``entries`` that a child keyed
    to ``target`` can replace, the least image of the new relator's orbit:
    a key's words have its relators' orbits, so the target's less those of
    the relators kept must leave one (read from the symmetry table)."""
    if len(target) != len(entries):
        return {}
    table = _symmetry(len(target))
    want = Counter([(table.orbits.get(x) or table.entry(x))[1]
                    for x in target])
    have = Counter([e[1] for e in entries])
    lefts = [list((want - (have - Counter([e[1]]))).elements())
             for e in entries]
    return {i: left[0] for i, left in enumerate(lefts) if len(left) == 1}


def _expansion(state, key, memo, stable, gen_cap, max_total_length,
               target=None):
    """The records of the edges out of ``state``, whose key is ``key``
    (only copied into the records), streamed: per keyed child ``(looked,
    pruned, skips, child)``, then a tail record whose child is None.
    Since the record before, ``looked`` lists the class lookups ``(n,
    entry)``, which name no relator word (``_enter`` files an entry under
    its class word), so a kept record holds no core but its child's; and
    ``pruned`` and ``skips`` count children over the length cap or
    skipped for a sibling's class.  ``child`` is the flat tuple
    ``(child_key, key, base, i, core, *descriptor)``: the child is
    ``base`` with relator i replaced by ``core``, or ``base`` when i is
    None.  ``memo`` is only a cache, so records depend on the state and
    bounds alone.  A ``target`` key drops the rows and cores that cannot
    reach it."""
    n = len(state)
    classes = memo.setdefault(n, {}) if n else None
    entries = [_lookup(classes, n, w) for w in state]
    looked, pruned, skips, seen = [(n, e) for e in entries], 0, 0, set()
    rests = [entries[:i] + entries[i + 1:] for i in range(n)]
    leasts = [_least(rest) for rest in rests] if n > 1 else []
    need = None if target is None else _rows(entries, target)
    for desc, core in _aligned_products(state, max_total_length, need):
        if core is None:
            pruned += 1
            continue
        i = desc[0] - 1
        if need is not None and len(core) != len(need[i]):
            continue
        entry = _lookup(classes, n, core)
        looked.append((n, entry))
        if need is not None and entry[1] != need[i]:
            continue
        if (i, entry[0][0]) in seen:  # images[0] is the class's word
            skips += 1
            continue
        seen.add((i, entry[0][0]))
        (lo, win), (_, x, won) = leasts[i], entry
        cand = win if x > lo else won if x < lo else win.union(won)
        ckey = _column(rests[i] + [entry], cand)
        _, j, m, e, k = desc
        yield looked, pruned, skips, (ckey, key, state, i, core,
                                      i + 1, j, m, e, k)
        looked, pruned, skips = [], 0, 0
    for desc, child in (_stable_edges(state, gen_cap, max_total_length)
                        if stable else ()):
        if child is None:
            pruned += 1
            continue
        ckey = _key(child, memo, looked)
        yield looked, pruned, skips, (ckey, key, child, None, None, *desc)
        looked, pruned, skips = [], 0, 0
    yield looked, pruned, skips, None


def _step(record, seen, backward, memo, stats, stable, gen_cap,
          max_total_length):
    """One closure step: expand the state of ``record`` (a key's record,
    as ``_step`` yields it) under the bounds, enter each expansion
    record's lookups and counts in ``memo`` and ``stats`` (a state at the
    generator cap counts too; it offers no stabilization, and it cuts
    nothing), and yield the children whose keys are not in ``seen``.  The
    records are the process's if it keeps them, else streamed
    (``_expansion``) and kept by the second ``backward`` expansion to
    stream them to the end; the first only marks the state, so a one-off
    expansion keeps none."""
    key, _, base, i, core = record[:5]
    state = base if i is None else base[:i] + (core,) + base[i + 1:]
    stats["at_generator_cap"] += stable and len(state) >= gen_cap
    table = _symmetry(max(len(state), 1))  # the empty state's: that of 1
    rkey = (state, stable, gen_cap, max_total_length)
    records = table.records.get(rkey)
    keep = backward and records == ()  # a marked state's second expansion
    if not records:
        if records is None and backward:
            table.store(1)
            table.records[rkey] = ()
        records = _expansion(state, key, memo, stable, gen_cap,
                             max_total_length)
    kept = []
    for item in records:
        if keep:
            kept.append(item)
        looked, pruned, skips, child = item
        _enter(memo, looked)
        stats["pruned_length"] += pruned
        stats["sibling_skips"] += skips
        stats["child_keys"] += child is not None
        if child is not None and child[0] not in seen:
            yield child
    if keep:
        table.size -= table.records.pop(rkey, None) is not None  # the mark
        table.store(sum([1 + len(looked) for looked, *_ in kept]))
        table.records[rkey] = kept


def _depth(parents, key):
    """The search edges from the root of ``parents`` to ``key``: the length
    of its chain of parent keys."""
    depth, key = 0, parents[key][1]
    while key is not None:
        depth, key = depth + 1, parents[key][1]
    return depth


def path_verdict(moves, depth):
    """The verdict of a move path to trivial form found ``depth`` search
    edges from the input; ``ac_search`` writes it and replay re-derives
    it."""
    reason = "already in trivial form" if depth == 0 else \
        "trivialized in %d primitive moves (%d search edges)" \
        % (len(moves), depth)
    return verified(reason, {"kind": "ac-path",
                             "moves": [list(m) for m in moves],
                             "depth": depth})


class _Side:
    """One end of ``ac_search``.  ``parents`` maps each key stored to its
    record, as ``_step`` yields it: (key, parent key, base, i, core,
    *descriptor), a root's being (key, None, state, None, None).  The
    ``frontier`` holds the same records, so a child's state is built only
    when it is expanded, and a key's depth is the length of its chain of
    parents (``_depth``).  ``cut`` is set when the side prunes a state by
    depth."""
    __slots__ = ("parents", "frontier", "cut")

    def __init__(self, state, memo):
        root = (_key(state, memo), None, state, None, None)
        self.parents, self.frontier = {root[0]: root}, deque([root])
        self.cut = False


def ac_search(p, max_total_length, max_depth, stable=False,
              max_states=DEFAULT_MAX_STATES):
    """Breadth-first search for a move path to the trivial presentation.

    Nodes are canonical keys; edges are aligned products (plus add/delete
    of trivial pairs when stable), kept as descriptors and expanded into
    primitive moves only for the path returned, so a found path replays
    with apply_ac_move alone (see the module docstring).  Depth counts
    edges, not primitive moves.  States whose total relator length exceeds
    max_total_length are pruned; stable search adds at most two
    generators.  A presentation whose exponent matrix has determinant of
    absolute value other than 1 is refuted outright.  A key on g
    generators is minimized over 2^g g! signed relabelings; when that
    count, at the most generators the search can reach, exceeds
    max_states, the search answers unknown before it builds any key.

    The edge family is closed under inverses, so the search runs from both
    ends (the input and the trivial form), always expanding the smaller
    frontier, and splices the halves where they meet; results are
    deterministic for fixed budgets.  When one side's frontier empties and
    nothing cut that side by depth, that side's component within the
    length cap, and stable within the generator cap, has closed without
    meeting the other side (no stabilization is offered at the cap, so
    the capped edges are still closed under inverses): the search answers
    unknown at once, with ``complete`` set.
    Class images and the records of repeated backward expansions come from
    the process's symmetry tables (``_symmetry``), which earlier searches
    may have filled.  Every value there is a pure function of the
    generator count and its key, and counters are kept per search, so what
    ran before changes no answer, path or counter, only the work done.
    The engine is single-threaded; a race between threads on the tables
    could only repeat work or misjudge a table's size, never change a
    value.
    """
    if max_total_length < 1 or max_depth < 1 or max_states < 1:
        raise ValueError("budgets must be positive")
    # in the order of the ac-search report's lines
    stats = {"visited": 0, "stored": 0, "complete": False,
             "pruned_length": 0, "pruned_depth": 0, "at_generator_cap": 0,
             "aborted": None, "class_images": 0, "orbit_images": 0,
             "child_keys": 0, "sibling_skips": 0}
    bad = ab_det_refutation(p)
    if bad is not None:
        return SearchResult(None, bad, stats)

    p0, prefix = _normalize_start(p)
    if p0.is_trivial_form():
        return SearchResult(tuple(prefix), path_verdict(prefix, 0), stats)
    if p0.total_length() > max_total_length:
        return SearchResult(None, unknown(
            "exhausted: the presentation itself exceeds total length %d"
            % max_total_length), stats)

    gen_cap = p.generators + 2
    reach = gen_cap if stable else p.generators
    relabelings = 2 ** reach * factorial(reach)
    if relabelings > max_states:
        stats["aborted"] = "relabelings"
        return SearchResult(None, unknown(
            "exhausted: keys on %d generators compare %d signed "
            "relabelings, more than the state cap %d"
            % (reach, relabelings, max_states)), stats)

    memo = {}
    fwd = _Side(_state(p0), memo)
    bwd = _Side(_state(trivial_presentation(p.generators)), memo)

    def _result(path, verdict):
        stats["stored"] = len(fwd.parents) + len(bwd.parents)
        for classes in memo.values():
            orbits = len({entry[1] for entry in classes.values()})
            stats["class_images"] += orbits
            stats["orbit_images"] += len(classes) - orbits
        return SearchResult(path, verdict, stats)

    def _path(key):
        """Primitive moves from the input through ``key`` to the trivial
        form, replayed from p0 through apply_ac_move: the forward chain,
        then toward each backward parent key the first child keyed to it
        (a skipped sibling has an earlier sibling's key)."""
        chain, record = [], fwd.parents[key]
        while record[1] is not None:
            chain.append(record[5:])
            record = fwd.parents[record[1]]
        moves, cur = list(prefix), p0
        target = bwd.parents[key][1]
        while chain or target is not None:
            if chain:
                desc = chain.pop()
            else:
                desc = next((child[5:] for *_, child in _expansion(
                    _state(cur), None, memo, stable, gen_cap,
                    max_total_length, target)
                    if child and child[0] == target), None)
                if desc is None:
                    raise AssertionError("guided replay lost the key trail")
                target = bwd.parents[target][1]
            edge = _product_moves(cur, desc)
            moves.extend(edge)
            for m in edge:
                cur = apply_ac_move(cur, m)
        if not cur.is_trivial_form():
            raise AssertionError("guided replay missed the trivial form")
        return tuple(moves)

    while fwd.frontier or bwd.frontier:
        f, b = len(fwd.frontier), len(bwd.frontier)
        side, other = (fwd, bwd) if f and (f <= b or not b) else (bwd, fwd)
        record = side.frontier.popleft()
        stats["visited"] += 1
        if _depth(side.parents, record[0]) >= max_depth:
            stats["pruned_depth"] += 1
            side.cut = True
            continue
        for child in _step(record, side.parents, side is bwd, memo, stats,
                           stable, gen_cap, max_total_length):
            if len(fwd.parents) + len(bwd.parents) >= max_states:
                stats["aborted"] = "state-cap"
                return _result(None, unknown(
                    "exhausted: state cap %d reached after %d states "
                    "visited" % (max_states, stats["visited"])))
            ckey = child[0]
            side.parents[ckey] = child
            # a forward child in trivial form meets the backward root
            if ckey in other.parents:
                edges = _depth(fwd.parents, ckey) + _depth(bwd.parents, ckey)
                if edges <= max_depth:
                    path = _path(ckey)
                    return _result(path, path_verdict(path, edges))
            side.frontier.append(child)
        if not (side.frontier or side.cut):
            # every key the side reaches within the caps is stored, and
            # none met the other side: the bound is complete
            stats["complete"] = True
            return _result(None, unknown(
                "exhausted: no trivialization within total length %d%s: %s "
                "component closed at %d key%s (%d states visited)"
                % (max_total_length,
                   " and %d generators" % gen_cap if stable else "",
                   "the input's" if side is fwd else
                   "the trivial presentation's", len(side.parents),
                   "" if len(side.parents) == 1 else "s",
                   stats["visited"])))
    return _result(None, unknown(
        "exhausted: no trivialization within total length %d and depth %d "
        "(%d states visited)"
        % (max_total_length, max_depth, stats["visited"])))


def replay_ac_path(p, moves):
    """Fold the moves over the presentation; used to check search output."""
    cur = p
    for m in moves:
        cur = apply_ac_move(cur, tuple(m))
    return cur

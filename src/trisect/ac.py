"""Balanced presentations and a bounded Andrews-Curtis trivialization search.

Moves are the classical set: invert a relator, right-multiply one relator
by another, conjugate a relator by a single generator, and (in the stable
variant) add or delete a trivial generator-relator pair.  The search works
on canonical keys, so two presentations differing by relator order, cyclic
rotation, relator inversion, or a signed relabeling of the generators are
one node.  A search computes the images under all signed relabelings
once per relator class (up to rotation and inversion), and builds every
key a relator of that class appears in from those images.

Inside the search an edge is a small descriptor, expanded into primitive
moves only for the path that is returned, and children are built without
the validating constructor.  Replay (``apply_ac_move``,
``replay_ac_path``) always validates, so it checks a path independently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import permutations, product

from . import words
from .intmatrix import IntegerMatrix
from .verdict import refuted, unknown, verified

DEFAULT_MAX_STATES = 20000


@dataclass(frozen=True)
class BalancedPresentation:
    """n generators and exactly n freely reduced relator words."""
    generators: int
    relators: tuple

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
    if not rows:
        return 1
    return IntegerMatrix.from_rows(rows).determinant()


def _relabelings(n):
    """Every signed relabeling of n generators, in permutation-major order,
    as a map from each letter (negative ones too) to its image letter."""
    tables = []
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            table = {}
            for g, (s, h) in enumerate(zip(signs, perm), 1):
                table[g] = s * h
                table[-g] = -s * h
            tables.append(table)
    return tables


def _class_images(word, tables):
    """The least rotation of ``word`` or its inverse under each relabeling.

    ``word`` is cyclically reduced, and so is each image ``x``.  The least
    rotation of ``x`` starts with ``min(x)`` and that of its inverse with
    ``-max(x)``, so only the side with the smaller first letter is built,
    and both only on a tie.
    """
    if not word:
        return ((),) * len(tables)
    least = words.least_rotation
    inv = words.inverse(word)
    images = []
    for t in tables:
        x = tuple(map(t.__getitem__, word))
        lo, hi = min(x), -max(x)
        if lo < hi:
            images.append(least(x))
        elif lo > hi:
            images.append(least(tuple(map(t.__getitem__, inv))))
        else:
            images.append(min(least(x),
                              least(tuple(map(t.__getitem__, inv)))))
    return tuple(images)


def canonical_key(p, _memo=None):
    """Stable byte string naming the presentation up to symmetry.

    Relators are cyclically reduced and minimized over rotation and
    inversion, the list is sorted, and the whole is minimized over signed
    relabelings of the generators.

    ``_memo`` is a dict owned by one search.  It holds each generator
    count's relabeling tables and, per ``(generators, relator)``, the
    relator's minimized image under every relabeling.  The images depend
    only on the relator's class up to rotation and inversion, so they are
    computed once per class, stored under ``(generators, cyclic_min)`` as
    well, and shared by every relator of the class and every state that
    holds one.
    """
    n = p.generators
    memo = _memo if _memo is not None else {}
    columns = []
    for w in p.relators:
        images = memo.get((n, w))
        if images is None:
            c = words.cyclic_min(w)
            images = memo.get((n, c))
            if images is None:
                tables = memo.get(n)
                if tables is None:
                    tables = memo[n] = _relabelings(n)
                images = memo[(n, c)] = _class_images(c, tables)
            memo[(n, w)] = images
        columns.append(images)
    best = min(map(sorted, zip(*columns)), default=())
    body = "|".join(",".join(str(v) for v in r) for r in best)
    return ("%d:%s" % (n, body)).encode("ascii")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bounded trivialization search.

    ``path`` is a replayable tuple of primitive moves when found, else
    None.  ``stats`` counts visited states and what cut the frontier.
    """
    path: tuple | None
    verdict: object
    stats: dict = field(default_factory=dict)

    @property
    def found(self):
        return self.path is not None


def _trusted(n, relators):
    """A presentation whose relators are known to be freely reduced words
    in n generators, built without the validating constructor."""
    p = object.__new__(BalancedPresentation)
    object.__setattr__(p, "generators", n)
    object.__setattr__(p, "relators", relators)
    return p


def _rotation_moves(i, prefix, undo=False):
    """Conjugations turning r_i into its rotation past ``prefix`` (or back)."""
    if undo:
        return [("conjugate", i, abs(v), 1 if v > 0 else -1)
                for v in reversed(prefix)]
    return [("conjugate", i, abs(v), -1 if v > 0 else 1) for v in prefix]


def _wrap_length(w):
    """How many letters a freely reduced word cancels around its wrap; the
    conjugations peeling them are ``_rotation_moves(i, w[:t])``."""
    t = 0
    while len(w) > 2 * t + 1 and w[t] == -w[-1 - t]:
        t += 1
    return t


def _aligned_products(p, max_total_length):
    """Children obtained by multiplying a rotation of one relator by a
    rotation of another or of its inverse, then cyclically reducing.

    Each distinct child comes with its descriptor ``(i, j, m, e, k)``:
    r_i rotated by m letters times r_j^e rotated by k letters replaces r_i.
    ``_product_moves`` expands a descriptor into primitive moves.  A child
    whose total length exceeds ``max_total_length`` comes as None and is
    never built; the others skip the validating constructor, since their
    relators are freely reduced already.

    Bare conjugations and inversions never change the canonical key, so
    they only appear inside these composites: both rotations are
    conjugation runs, the second relator's undone after the multiply.
    Rotating the first factor too keeps the edge set closed under the
    symmetries the key quotients out; that makes key-level dedup sound
    and the key graph undirected (every edge has an in-family inverse).
    """
    rs = p.relators
    n = p.generators
    total = p.total_length()
    for i in range(1, n + 1):
        left = rs[i - 1]
        room = max_total_length - total + len(left)
        produced = set()
        for j in range(1, n + 1):
            if i == j or not rs[j - 1]:
                continue
            for m in range(max(1, len(left))):
                rot_left = left[m:] + left[:m]
                for e in (1, -1):
                    base = rs[j - 1] if e == 1 else words.inverse(rs[j - 1])
                    for k in range(len(base)):
                        new = words.free_reduce(rot_left + base[k:] + base[:k])
                        t = _wrap_length(new)
                        core = new[t:len(new) - t]
                        if core in produced:
                            continue
                        produced.add(core)
                        yield (i, j, m, e, k), (
                            None if len(core) > room else
                            _trusted(n, rs[:i - 1] + (core,) + rs[i:]))


def _product_moves(p, desc):
    """The primitive moves of the aligned product ``desc`` on ``p``."""
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


def _stable_edges(p, gen_cap, max_total_length):
    """Add or delete a trivial generator-relator pair; each descriptor is
    its one move."""
    if p.generators < gen_cap:
        move = ("stabilize",)
        yield move, (apply_ac_move(p, move)
                     if p.total_length() < max_total_length else None)
    for i, r in enumerate(p.relators, 1):
        if len(r) != 1:
            continue
        g = abs(r[0])
        if any(any(abs(v) == g for v in other)
               for k, other in enumerate(p.relators) if k != i - 1):
            continue
        yield ("destabilize", i), apply_ac_move(p, ("destabilize", i))


def _edges(state, stable, gen_cap, max_total_length):
    """(descriptor, child) pairs; None for a child over the length cap."""
    yield from _aligned_products(state, max_total_length)
    if stable:
        yield from _stable_edges(state, gen_cap, max_total_length)


def _expand(p, desc):
    """The primitive moves of one search edge out of ``p``."""
    return [desc] if isinstance(desc[0], str) else _product_moves(p, desc)


def _normalize_start(p):
    """Cyclically reduce every relator; returns (presentation, moves)."""
    rs = list(p.relators)
    moves = []
    for i, w in enumerate(rs, 1):
        t = _wrap_length(w)
        rs[i - 1] = w[t:len(w) - t]
        moves.extend(_rotation_moves(i, w[:t]))
    return BalancedPresentation(p.generators, tuple(rs)), moves


def ac_search(p, max_total_length, max_depth, stable=False,
              max_states=DEFAULT_MAX_STATES):
    """Breadth-first search for a move path to the trivial presentation.

    Nodes are canonical keys; edges are aligned products (plus add/delete
    of trivial pairs when stable).  The search stores each edge as a
    small descriptor and expands descriptors into primitive moves only
    for the path it returns, so a found path replays with apply_ac_move
    alone.  Depth counts edges, not primitive moves.  States whose total
    relator length exceeds max_total_length are pruned; stable search
    adds at most two generators.  A presentation whose exponent matrix
    has determinant of absolute value other than 1 is refuted outright.

    The edge family is closed under inverses, so reachability between
    canonical keys is symmetric; the search runs from both ends (the input
    and the trivial form) and splices the halves where they meet, always
    expanding the smaller frontier.  Results are deterministic for fixed
    budgets.
    """
    if max_total_length < 1 or max_depth < 1 or max_states < 1:
        raise ValueError("budgets must be positive")
    d = ab_det(p)
    if abs(d) != 1:
        return SearchResult(None, refuted(
            "exponent matrix determinant is %d, so the group abelianizes "
            "to a nontrivial group" % d,
            {"kind": "ab-det", "det": d}), {"visited": 0})

    stats = {"visited": 0, "stored": 0, "pruned_length": 0,
             "pruned_depth": 0, "pruned_generator_cap": 0, "aborted": None}
    p0, prefix = _normalize_start(p)
    if p0.is_trivial_form():
        return SearchResult(tuple(prefix), verified(
            "already in trivial form",
            {"kind": "ac-path", "moves": [list(m) for m in prefix],
             "depth": 0}), stats)
    if p0.total_length() > max_total_length:
        return SearchResult(None, unknown(
            "exhausted: the presentation itself exceeds total length %d"
            % max_total_length), stats)

    memo = {}
    gen_cap = p.generators + 2
    goal = trivial_presentation(p.generators)
    start_key = canonical_key(p0, memo)
    goal_key = canonical_key(goal, memo)

    # parents[key] = (parent_key, edge_descriptor, depth); None marks the root
    fwd = {"parents": {start_key: (None, None, 0)},
           "frontier": deque([(p0, start_key, 0)])}
    bwd = {"parents": {goal_key: (None, None, 0)},
           "frontier": deque([(goal, goal_key, 0)])}

    def _path(key):
        """Primitive moves from the input through ``key`` to the trivial
        form: the forward chain replayed from p0 through apply_ac_move,
        then one edge at a time toward each backward parent key."""
        chain = []
        k = key
        while fwd["parents"][k][0] is not None:
            k, desc, _ = fwd["parents"][k]
            chain.append(desc)
        moves = list(prefix)
        cur = p0
        for desc in reversed(chain):
            step = _expand(cur, desc)
            moves.extend(step)
            for m in step:
                cur = apply_ac_move(cur, m)
        target = bwd["parents"][key][0]
        while target is not None:
            for desc, child in _edges(cur, stable, gen_cap, max_total_length):
                if child is not None and canonical_key(child, memo) == target:
                    moves.extend(_expand(cur, desc))
                    cur = child
                    break
            else:
                raise AssertionError("guided replay lost the key trail")
            target = bwd["parents"][target][0]
        if not cur.is_trivial_form():
            raise AssertionError("guided replay missed the trivial form")
        return tuple(moves)

    while fwd["frontier"] or bwd["frontier"]:
        if not bwd["frontier"]:
            side, other = fwd, bwd
        elif not fwd["frontier"]:
            side, other = bwd, fwd
        elif len(fwd["frontier"]) <= len(bwd["frontier"]):
            side, other = fwd, bwd
        else:
            side, other = bwd, fwd
        state, key, depth = side["frontier"].popleft()
        stats["visited"] += 1
        if depth >= max_depth:
            stats["pruned_depth"] += 1
            continue
        if stable and state.generators >= gen_cap:
            stats["pruned_generator_cap"] += 1
        for desc, child in _edges(state, stable, gen_cap, max_total_length):
            if child is None:
                stats["pruned_length"] += 1
                continue
            ckey = canonical_key(child, memo)
            if ckey in side["parents"]:
                continue
            if len(fwd["parents"]) + len(bwd["parents"]) >= max_states:
                stats["aborted"] = "state-cap"
                stats["stored"] = len(fwd["parents"]) + len(bwd["parents"])
                return SearchResult(None, unknown(
                    "exhausted: state cap %d reached after %d states "
                    "visited" % (max_states, stats["visited"])), stats)
            side["parents"][ckey] = (key, desc, depth + 1)
            # a forward child in trivial form meets the backward root
            hit = other["parents"].get(ckey)
            if hit is not None and depth + 1 + hit[2] <= max_depth:
                path = _path(ckey)
                depth += 1 + hit[2]
                stats["stored"] = len(fwd["parents"]) + len(bwd["parents"])
                return SearchResult(path, verified(
                    "trivialized in %d primitive moves (%d search edges)"
                    % (len(path), depth),
                    {"kind": "ac-path", "moves": [list(m) for m in path],
                     "depth": depth}), stats)
            side["frontier"].append((child, ckey, depth + 1))
    stats["stored"] = len(fwd["parents"]) + len(bwd["parents"])
    return SearchResult(None, unknown(
        "exhausted: no trivialization within total length %d and depth %d "
        "(%d states visited)"
        % (max_total_length, max_depth, stats["visited"])), stats)


def replay_ac_path(p, moves):
    """Fold the moves over the presentation; used to check search output."""
    cur = p
    for m in moves:
        cur = apply_ac_move(cur, tuple(m))
    return cur

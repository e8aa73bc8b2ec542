"""Balanced presentations and a bounded Andrews-Curtis trivialization search.

Moves are the classical set: invert a relator, right-multiply one relator
by another, conjugate a relator by a single generator, and (in the stable
variant) add or delete a trivial generator-relator pair.  The search works
on canonical keys, so two presentations differing by relator order, cyclic
rotation, relator inversion, or a signed relabeling of the generators are
one node.  A search computes the images of each distinct relator under
all signed relabelings once, and builds every key that relator appears
in from those images.
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


def canonical_key(p, _memo=None):
    """Stable byte string naming the presentation up to symmetry.

    Relators are cyclically reduced and minimized over rotation and
    inversion, the list is sorted, and the whole is minimized over signed
    relabelings of the generators.

    ``_memo`` is a dict owned by one search.  It holds each generator
    count's relabeling tables and, per ``(generators, relator)``, the
    relator's minimized image under every relabeling, so the images of a
    relator are computed once per search however many states share it.
    A relabeling only renames letters, so the image of a cyclically
    reduced word is cyclically reduced and needs no further reduction.
    """
    n = p.generators
    memo = _memo if _memo is not None else {}
    columns = []
    for w in p.relators:
        images = memo.get((n, w))
        if images is None:
            tables = memo.get(n)
            if tables is None:
                tables = memo[n] = _relabelings(n)
            core = words.cyclic_reduce(w)
            inv = words.inverse(core)
            images = tuple(
                min(words.least_rotation(tuple(map(t.__getitem__, core))),
                    words.least_rotation(tuple(map(t.__getitem__, inv))))
                for t in tables)
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


def _rotation_moves(i, prefix, undo=False):
    """Conjugations turning r_i into its rotation past ``prefix`` (or back)."""
    if undo:
        return [("conjugate", i, abs(v), 1 if v > 0 else -1)
                for v in reversed(prefix)]
    return [("conjugate", i, abs(v), -1 if v > 0 else 1) for v in prefix]


def _peel_moves(i, w):
    """Cyclic reduction of relator i as conjugations; returns (core, moves)."""
    moves = []
    w = tuple(w)
    while len(w) > 1 and w[0] == -w[-1]:
        a = w[0]
        moves.append(("conjugate", i, abs(a), -1 if a > 0 else 1))
        w = w[1:-1]
    return w, moves


def _aligned_products(p):
    """Children obtained by multiplying a rotation of one relator by a
    rotation of another or of its inverse, then cyclically reducing, with
    the primitive moves realizing each.

    Bare conjugations and inversions never change the canonical key, so
    they only appear inside these composites: both rotations are
    conjugation runs, the second relator's undone after the multiply.
    Rotating the first factor too keeps the edge set closed under the
    symmetries the key quotients out; that makes key-level dedup sound
    and the key graph undirected (every edge has an in-family inverse).
    """
    rs = p.relators
    n = p.generators
    out = []
    produced = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or not rs[j - 1]:
                continue
            left = rs[i - 1]
            for m in range(max(1, len(left))):
                rot_left = left[m:] + left[:m]
                for e in (1, -1):
                    base = rs[j - 1] if e == 1 else words.inverse(rs[j - 1])
                    for k in range(len(base)):
                        new = words.free_reduce(rot_left + base[k:] + base[:k])
                        core, peel = _peel_moves(i, new)
                        if (i, core) in produced:
                            continue
                        produced.add((i, core))
                        moves = _rotation_moves(i, left[:m])
                        if e == -1:
                            moves.append(("invert", j))
                        moves.extend(_rotation_moves(j, base[:k]))
                        moves.append(("multiply", i, j))
                        moves.extend(peel)
                        moves.extend(_rotation_moves(j, base[:k], undo=True))
                        if e == -1:
                            moves.append(("invert", j))
                        child = list(rs)
                        child[i - 1] = core
                        out.append((tuple(moves),
                                    BalancedPresentation(n, tuple(child))))
    return out


def _stable_edges(p, gen_cap):
    out = []
    capped = False
    if p.generators < gen_cap:
        out.append(((("stabilize",),), apply_ac_move(p, ("stabilize",))))
    else:
        capped = True
    for i, r in enumerate(p.relators, 1):
        if len(r) != 1:
            continue
        g = abs(r[0])
        if any(any(abs(v) == g for v in other)
               for k, other in enumerate(p.relators) if k != i - 1):
            continue
        out.append(((("destabilize", i),),
                    apply_ac_move(p, ("destabilize", i))))
    return out, capped


def _normalize_start(p):
    """Cyclically reduce every relator; returns (presentation, moves)."""
    rs = list(p.relators)
    moves = []
    for i, w in enumerate(rs, 1):
        core, peel = _peel_moves(i, w)
        rs[i - 1] = core
        moves.extend(peel)
    return BalancedPresentation(p.generators, tuple(rs)), moves


def _edges(state, stable, gen_cap, stats):
    edges = _aligned_products(state)
    if stable:
        more, capped = _stable_edges(state, gen_cap)
        edges.extend(more)
        if capped:
            stats["pruned_generator_cap"] += 1
    return edges


def ac_search(p, max_total_length, max_depth, stable=False,
              max_states=DEFAULT_MAX_STATES):
    """Breadth-first search for a move path to the trivial presentation.

    Nodes are canonical keys; edges are aligned products (plus add/delete
    of trivial pairs when stable), each carrying the primitive moves that
    realize it, so a found path replays with apply_ac_move alone.  Depth
    counts edges, not primitive moves.  States whose total relator length
    exceeds max_total_length are pruned; stable search adds at most two
    generators.  A presentation whose exponent matrix has determinant of
    absolute value other than 1 is refuted outright.

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

    # parents[key] = (parent_key, edge_moves, depth); None marks the root
    fwd = {"parents": {start_key: (None, (), 0)},
           "frontier": deque([(p0, start_key, 0)])}
    bwd = {"parents": {goal_key: (None, (), 0)},
           "frontier": deque([(goal, goal_key, 0)])}

    def _chain(side, key):
        """Edge move lists from the side's root out to ``key``."""
        out = []
        while True:
            pkey, moves, _ = side["parents"][key]
            if pkey is None:
                break
            out.append(moves)
            key = pkey
        out.reverse()
        return out

    def _splice(state, key):
        """Forward moves from the meet onward, guided by backward keys."""
        keys = []
        k = key
        while True:
            pkey, _, _ = bwd["parents"][k]
            if pkey is None:
                break
            keys.append(pkey)
            k = pkey
        moves_out = []
        cur = state
        for target in keys:
            for moves, child in _edges(cur, stable, gen_cap, stats):
                if canonical_key(child, memo) == target:
                    moves_out.extend(moves)
                    cur = child
                    break
            else:
                raise AssertionError("guided replay lost the key trail")
        if not cur.is_trivial_form():
            raise AssertionError("guided replay missed the trivial form")
        return moves_out

    def _result(flat, depth):
        path = tuple(prefix) + tuple(flat)
        stats["stored"] = len(fwd["parents"]) + len(bwd["parents"])
        return SearchResult(path, verified(
            "trivialized in %d primitive moves (%d search edges)"
            % (len(path), depth),
            {"kind": "ac-path", "moves": [list(m) for m in path],
             "depth": depth}), stats)

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
        for moves, child in _edges(state, stable, gen_cap, stats):
            if child.total_length() > max_total_length:
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
            side["parents"][ckey] = (key, moves, depth + 1)
            if side is fwd and child.is_trivial_form():
                flat = [m for edge in _chain(fwd, ckey) for m in edge]
                return _result(flat, depth + 1)
            hit = other["parents"].get(ckey)
            if hit is not None and depth + 1 + hit[2] <= max_depth:
                if side is fwd:
                    flat = [m for edge in _chain(fwd, ckey) for m in edge]
                    flat.extend(_splice(child, ckey))
                    return _result(flat, depth + 1 + hit[2])
                # the meet came from the backward side: the forward chain
                # ends at ckey, which fwd reached as a concrete state only
                # if stored; rebuild it by guided replay from the start
                fchain = _chain(fwd, ckey)
                flat = [m for edge in fchain for m in edge]
                cur = p0
                for m in flat:
                    cur = apply_ac_move(cur, m)
                flat.extend(_splice(cur, ckey))
                return _result(flat, depth + 1 + hit[2])
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

"""Finite group presentations and budgeted Tietze simplification.

The simplifier is the workhorse behind every "is this group free of rank k"
question.  It is deliberately one-sided: it answers Verified(rank k) only when
the presentation literally collapses to <g1..gk | > through Tietze moves, and
Unknown otherwise.  It never answers Refuted; freeness is semi-decidable here
and a stalled search proves nothing.

Moves used (each preserves the group up to isomorphism):

* cyclic reduction of a relator (conjugation);
* dropping an empty or duplicate relator;
* eliminating a generator that occurs exactly once in some relator,
  substituting its expression everywhere (this also covers killing a
  generator whose relator is the single letter);
* replacing r_i by r_i * c(r_j)^+-1 for a cyclic rotation c, kept only if
  strictly shorter, with a bounded plateau search over length-preserving
  products when the greedy loop stalls.  Only the rotations that cancel
  against r_i (``words.cancelling_rotations``) are built, since any other
  lengthens r_i; every rotation still counts one step against the budget.

Every Verified verdict carries a move trace that replay_tietze can re-run.
"""

from __future__ import annotations

from collections import Counter, deque

from . import words
from .verdict import Frozen, unknown, verified

DEFAULT_BUDGET = 10_000
DEFAULT_MAX_RELATOR_LEN = 64
_PLATEAU_CAP = 240


class GroupPresentation(Frozen):
    """``relators`` are freely reduced, nonempty words over letters 1..n."""
    _fields = ("num_generators", "relators")

    def __post_init__(self):
        if self.num_generators < 0:
            raise ValueError("negative generator count")
        for r in self.relators:
            if not r:
                raise ValueError("empty relator stored; drop it instead")
            if tuple(words.free_reduce(r)) != tuple(r):
                raise ValueError("relator %r is not freely reduced" % (r,))
            if any(abs(v) > self.num_generators for v in r):
                raise ValueError("relator letter out of range")

    def total_length(self):
        return sum(len(r) for r in self.relators)


def presentation(num_generators, relators):
    """Build a presentation, freely reducing and dropping empty relators."""
    cleaned = []
    for r in relators:
        w = words.free_reduce(r)
        if w:
            cleaned.append(w)
    return GroupPresentation(num_generators, tuple(cleaned))


def _shift_down(word, g):
    return tuple(v - 1 if v > g else v + 1 if v < -g else v for v in word)


def _count(word, g):
    return sum(1 for v in word if abs(v) == g)


class _Budget:
    def __init__(self, steps):
        self.left = steps

    def spend(self, n=1):
        self.left -= n
        return self.left >= 0


def _cyclic_min(word, mins):
    """``words.cyclic_min(word)``, computed once per word in ``mins``."""
    key = mins.get(word)
    if key is None:
        key = mins[word] = words.cyclic_min(word)
    return key


def _state_key(gens, relators, mins):
    return gens, tuple(sorted([_cyclic_min(r, mins) for r in relators]))


def _reduce_all(relators, trace):
    # trace indices refer to the evolving list, so replay stays aligned
    out = []
    for r in relators:
        w = words.cyclic_reduce(r)
        if w != r:
            trace.append(["cyclic", len(out)])
        if w:
            out.append(w)
        else:
            trace.append(["drop", len(out)])
    return out


def _drop_duplicates(relators, trace, mins):
    seen = set()
    out = []
    for r in relators:
        key = _cyclic_min(r, mins)
        if key in seen:
            trace.append(["drop-duplicate", len(out)])
        else:
            seen.add(key)
            out.append(r)
    return out


def _elimination_expr(r, g):
    """What generator g equals by relator r, where g occurs exactly once."""
    pos = r.index(g) if g in r else r.index(-g)
    rot = r[pos:] + r[:pos]  # signed g first
    return words.inverse(rot[1:]) if rot[0] > 0 else rot[1:]


def _find_elimination(relators, max_len):
    """Deterministic best (relator, generator) elimination candidate.

    Returns (ri, g, expr, cost) or None.  Cost estimates total growth; the
    candidate is rejected when a substituted relator would exceed max_len.
    Letter counts are tabulated once per call, one Counter per relator,
    and indexed by generator: the candidates of a relator are its
    count-1 generators in ascending order, and each candidate visits
    only the relators containing it, in ascending order.  A candidate's
    expression has len(r) - 1 letters, so only the winner's is built.
    """
    counts = [Counter(map(abs, r)) for r in relators]
    holders = {}  # generator -> [(rj, count in relator rj)]
    for rj, cnt in enumerate(counts):
        for g, c in cnt.items():
            holders.setdefault(g, []).append((rj, c))
    best = None  # (cost, ri, g)
    for ri, r in enumerate(relators):
        grow = len(r) - 2  # len(expr) - 1
        for g in sorted(g for g, c in counts[ri].items() if c == 1):
            ok = True
            cost = 0
            for rj, c in holders[g]:
                if rj == ri:
                    continue
                if len(relators[rj]) + c * grow > max_len:
                    ok = False
                    break
                cost += c * max(grow, 0)
            if ok and (best is None or cost < best[0]):
                best = (cost, ri, g)
                if cost == 0:
                    break  # costs are never negative, so nothing beats it
        if best is not None and best[0] == 0:
            break
    if best is None:
        return None
    cost, ri, g = best
    return ri, g, _elimination_expr(relators[ri], g), cost


def _apply_elimination(gens, relators, ri, g, expr, trace):
    out = []
    for rj, other in enumerate(relators):
        if rj == ri:
            continue
        # substitute ends in free_reduce; replay_tietze still runs the full
        # cyclic_reduce as its independent check
        w = words.strip_wrap(words.substitute(other, g, expr))
        if w:
            out.append(_shift_down(w, g))
    trace.append(["eliminate", ri, g, list(expr)])
    return gens - 1, out


def _best_shortening(relators, budget):
    """Best strictly-shortening product r_i <- r_i * rot(r_j)^s, or None.

    Every rotation examined spends one budget step, but only the rotations
    that cancel against r_i (``words.cancelling_rotations``) are built:
    any other lengthens r_i by len(r_j).  Each (i, j, s) spends its
    rotations at once.  When the budget runs out inside one, only the
    rotations below the cut-off are examined, one step more is spent (the
    step a per-rotation count refuses), and ``best`` returns.
    """
    best = None
    for i, ri in enumerate(relators):
        for j, rj in enumerate(relators):
            if i == j:
                continue
            for s in (1, -1):
                base = rj if s == 1 else words.inverse(rj)
                n = len(base)
                cut = min(n, max(budget.left, 0))
                budget.spend(cut + (cut < n))
                for b in words.cancelling_rotations(ri, base):
                    if b >= cut:
                        break
                    w = words.rotation_product(ri, base, b)
                    gain = len(ri) - len(w)
                    if gain > 0 and (best is None or gain > best[0]):
                        best = (gain, i, j, s, b, w)
                if cut < n:
                    return best
    return best


def _plateau_products(relators):
    """Length-preserving products, for escaping greedy dead ends."""
    out = []
    for i, ri in enumerate(relators):
        for j, rj in enumerate(relators):
            if i == j:
                continue
            for s in (1, -1):
                base = rj if s == 1 else words.inverse(rj)
                for b in words.cancelling_rotations(ri, base):
                    w = words.rotation_product(ri, base, b)
                    if len(w) == len(ri) and w:
                        out.append((i, j, s, b, w))
    return out


def _greedy(gens, relators, budget, trace, mins):
    """Run deterministic simplification to a fixed point, in place.

    ``mins`` maps each relator word seen so far to its ``cyclic_min``.
    """
    while True:
        relators = _reduce_all(relators, trace)
        relators = _drop_duplicates(relators, trace, mins)
        if not relators or not budget.spend():
            return gens, relators
        cand = _find_elimination(relators, DEFAULT_MAX_RELATOR_LEN)
        if cand is not None:
            ri, g, expr, _ = cand
            gens, relators = _apply_elimination(gens, relators, ri, g, expr, trace)
            continue
        short = _best_shortening(relators, budget)
        if short is not None:
            _, i, j, s, b, w = short
            trace.append(["multiply", i, j, s, b])
            relators = [w if k == i else r for k, r in enumerate(relators)]
            continue
        return gens, relators


def tietze_simplify(p, trace=None):
    """Simplify; Verified(rank) carries a replayable trace, else Unknown.

    Deterministic.  ``DEFAULT_BUDGET`` counts elementary steps (each
    candidate product examined, each pass started), and no substitution
    may grow a relator past ``DEFAULT_MAX_RELATOR_LEN`` letters.  Given a
    recorded ``trace``, no search runs: the trace is replayed
    (``replay_tietze``, which raises ValueError on a move that does not
    apply) and the verdict is the one the search that found it gave.
    """
    if trace is None:
        gens, relators, trace, left = _search(p)
    else:
        gens, relators, left = replay_tietze(p, trace), [], 0
    final = GroupPresentation(gens, tuple(relators))
    if not relators:
        return final, verified("free of rank %d" % gens,
                               {"kind": "tietze", "rank": gens, "trace": trace})
    reason = "budget exhausted" if left <= 0 else "no simplifying move found"
    return final, unknown("%s; %d relators of total length %d remain"
                          % (reason, len(relators), final.total_length()))


def _search(p):
    """The greedy loop, then its plateau search: the final generator count,
    relators and trace, and the budget left."""
    b = _Budget(DEFAULT_BUDGET)
    trace = []
    mins = {}  # one cyclic_min per relator word, for duplicates and states
    gens, relators = _greedy(p.num_generators, list(p.relators), b, trace,
                             mins)

    if relators and b.left > 0:
        # plateau: breadth-first over length-preserving products until some
        # state lets the greedy loop make progress again
        seen = {_state_key(gens, relators, mins)}
        queue = deque([(gens, relators, trace)])
        while queue and b.left > 0 and len(seen) < _PLATEAU_CAP:
            cur_gens, cur_rel, cur_trace = queue.popleft()
            for (i, j, s, rot, w) in _plateau_products(cur_rel):
                if not b.spend():
                    break
                nxt = [w if k == i else r for k, r in enumerate(cur_rel)]
                key = _state_key(cur_gens, nxt, mins)
                if key in seen:
                    continue
                seen.add(key)
                t2 = cur_trace + [["multiply", i, j, s, rot]]
                g2, r2 = _greedy(cur_gens, list(nxt), b, t2, mins)
                if not r2:
                    gens, relators, trace = g2, r2, t2
                    queue.clear()
                    break
                if g2 < cur_gens or sum(map(len, r2)) < sum(map(len, cur_rel)):
                    gens, relators, trace = g2, r2, t2
                    queue.clear()
                    queue.append((g2, r2, t2))
                    break
                queue.append((g2, r2, t2))
    return gens, relators, trace, b.left


def replay_tietze(p, trace):
    """Re-run a recorded trace against the original presentation.

    Returns the final free rank; raises ValueError if any recorded move is
    inapplicable, so a Verified witness cannot be forged.  The eliminate
    expression is re-derived, never trusted.
    """
    gens = p.num_generators
    relators = list(p.relators)
    for op in trace:
        kind = op[0]
        if kind == "cyclic":
            _, idx = op
            relators[idx] = words.cyclic_reduce(relators[idx])
        elif kind == "drop":
            _, idx = op
            if words.cyclic_reduce(relators[idx]):
                raise ValueError("drop of a non-trivial relator")
            del relators[idx]
        elif kind == "drop-duplicate":
            _, idx = op
            key = words.cyclic_min(relators[idx])
            if not any(words.cyclic_min(r) == key
                       for k, r in enumerate(relators) if k != idx):
                raise ValueError("drop-duplicate without a duplicate")
            del relators[idx]
        elif kind == "eliminate":
            _, ri, g, expr = op
            r = relators[ri]
            if _count(r, g) != 1:
                raise ValueError("eliminate needs a single occurrence")
            derived = _elimination_expr(r, g)
            if derived != tuple(expr):
                raise ValueError("recorded elimination expression is wrong")
            out = []
            for rj, other in enumerate(relators):
                if rj == ri:
                    continue
                w = words.cyclic_reduce(words.substitute(other, g, derived))
                if w:
                    out.append(_shift_down(w, g))
            relators = out
            gens -= 1
        elif kind == "multiply":
            _, i, j, s, rot = op
            base = relators[j] if s == 1 else words.inverse(relators[j])
            relators[i] = words.cyclic_reduce(relators[i] + base[rot:] + base[:rot])
        else:
            raise ValueError("unknown trace op %r" % kind)
    if any(relators):
        raise ValueError("trace does not end at a free presentation")
    return gens

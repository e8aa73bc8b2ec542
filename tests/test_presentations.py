from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from trisect.intmatrix import invariant_factors
from trisect.presentations import (GroupPresentation, _best_shortening,
                                   _Budget, _find_elimination, presentation,
                                   replay_tietze, tietze_simplify)
from trisect.words import cyclic_reduce, free_reduce, inverse

TIETZE_CORPUS_SHA256 = (
    "d81f33e39921b5687aa86301b5d7e0bec3e2c9ea375cca80bfda90eef6d8bec0")


def _abelianization_free_rank(p: GroupPresentation):
    """Oracle: rank of coker of the exponent matrix, None if torsion."""
    n = p.num_generators
    cols = []
    for rel in p.relators:
        col = [0] * n
        for letter in rel:
            col[abs(letter) - 1] += 1 if letter > 0 else -1
        cols.append(col)
    if not cols:
        return n
    factors = invariant_factors(cols)
    if any(f not in (0, 1) for f in factors):
        return None
    rank = sum(1 for f in factors if f != 0)
    return n - rank


def test_presentation_validation():
    p = presentation(2, [(1, 2, -1)])
    assert p.relators == ((1, 2, -1),)
    with pytest.raises(ValueError):
        presentation(1, [(2,)])
    with pytest.raises(ValueError):
        GroupPresentation(1, ((1, -1),))  # constructor wants reduced words
    assert presentation(1, [(1, -1)]).relators == ()  # factory cleans


def test_simplify_free_presentation():
    p = presentation(2, [])
    q, v = tietze_simplify(p)
    assert v.is_verified and v.witness["rank"] == 2
    assert q.relators == ()


def test_simplify_single_elimination():
    # <x, y | x y> is free on one generator
    p = presentation(2, [(1, 2)])
    q, v = tietze_simplify(p)
    assert v.is_verified and v.witness["rank"] == 1
    assert replay_tietze(p, v.witness["trace"]) == 1


def test_simplify_frozen_example():
    # <x, y | y x y X Y X, x x Y> : substituting y = x^2 kills both
    # relators, so the group is trivial. Oracle rank 0, frozen.
    p = presentation(2, [(2, 1, 2, -1, -2, -1), (1, 1, -2)])
    q, v = tietze_simplify(p)
    assert v.is_verified, v.reason
    assert v.witness["rank"] == 0
    assert replay_tietze(p, v.witness["trace"]) == 0


def test_simplify_trivial_relator_drop():
    p = presentation(3, [(1,), (2, 3), (2, 3)])
    q, v = tietze_simplify(p)
    assert v.is_verified and v.witness["rank"] == 1


def test_replay_rejects_forged_trace():
    p = presentation(2, [(1, 2)])
    q, v = tietze_simplify(p)
    trace = [list(op) for op in v.witness["trace"]]
    forged = False
    for op in trace:
        if op[0] == "eliminate":
            op[3] = [1, 1]  # tamper with the substitution expression
            forged = True
    assert forged
    with pytest.raises(ValueError):
        replay_tietze(p, trace)


def test_replay_rejects_a_trace_step_with_an_added_element():
    p = presentation(2, [(2, 1, -2), (1,)])
    trace = tietze_simplify(p)[1].witness["trace"]
    assert replay_tietze(p, trace) == 1
    assert {op[0] for op in trace} == {"cyclic", "drop-duplicate",
                                       "eliminate"}
    for k in range(len(trace)):
        forged = [op + [0] if j == k else op for j, op in enumerate(trace)]
        with pytest.raises(ValueError):
            replay_tietze(p, forged)


def test_replay_rejects_nonfree_endpoint():
    # a trace that leaves a nonempty relator must not certify
    p = presentation(1, [(1, 1)])
    with pytest.raises(ValueError):
        replay_tietze(p, [])


def _scrambled_free_presentation(rng: random.Random):
    """Build a presentation of a free group with a known rank.

    Start from relators g_i = 1 for i in a chosen subset, then disguise
    them with conjugation and pairwise products. The quotient stays free
    on the untouched generators.
    """
    n = rng.randint(2, 5)
    killed = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
    relators = [(g,) for g in killed]
    for _ in range(rng.randint(2, 10)):
        i = rng.randrange(len(relators))
        move = rng.random()
        if move < 0.4:
            c = rng.choice([-1, 1]) * rng.randint(1, n)
            w = (-c,) + tuple(relators[i]) + (c,)
            relators[i] = tuple(free_reduce(w))
        elif move < 0.8 and len(relators) > 1:
            j = rng.randrange(len(relators))
            if j != i:
                merged = tuple(relators[i]) + tuple(relators[j])
                merged = tuple(free_reduce(merged))
                if merged and len(merged) <= 20:
                    relators[i] = merged
        else:
            relators[i] = tuple(inverse(relators[i]))
    relators = [r for r in relators if r]
    return presentation(n, relators), n - len(killed)


def test_simplify_random_scrambles_sound():
    rng = random.Random(20260814)
    verified = 0
    for _ in range(80):
        p, expected_rank = _scrambled_free_presentation(rng)
        q, v = tietze_simplify(p)
        if v.is_verified:
            verified += 1
            assert v.witness["rank"] == expected_rank
            assert replay_tietze(p, v.witness["trace"]) == expected_rank
            # soundness cross-check through the abelianization oracle
            assert _abelianization_free_rank(p) == expected_rank
        else:
            assert v.is_unknown
    # the greedy engine should crack the vast majority of these
    assert verified >= 70


def test_simplify_never_refutes():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 4)
        relators = []
        for _ in range(rng.randint(0, 3)):
            w = [rng.choice([-1, 1]) * rng.randint(1, n)
                 for _ in range(rng.randint(1, 8))]
            w = free_reduce(w)
            if w:
                relators.append(tuple(w))
        p = presentation(n, relators)
        _, v = tietze_simplify(p)
        assert not v.is_refuted


def _count_per_candidate_elimination(gens, relators, max_len):
    """The elimination scan that recounts letters for every candidate.

    Returns the chosen (ri, g, expr, cost) and every admissible cost, so a
    caller can tell when the strict < had to break a tie.
    """
    def count(word, g):
        return sum(1 for v in word if abs(v) == g)

    best = None
    costs = []
    for ri, r in enumerate(relators):
        for g in range(1, gens + 1):
            if count(r, g) != 1:
                continue
            pos = next(k for k, v in enumerate(r) if abs(v) == g)
            rot = r[pos:] + r[:pos]
            expr = inverse(rot[1:]) if rot[0] > 0 else rot[1:]
            ok = True
            cost = 0
            for rj, other in enumerate(relators):
                if rj == ri:
                    continue
                c = count(other, g)
                if not c:
                    continue
                if len(other) + c * (len(expr) - 1) > max_len:
                    ok = False
                    break
                cost += c * max(len(expr) - 1, 0)
            if ok:
                costs.append(cost)
                if best is None or cost < best[3]:
                    best = (ri, g, expr, cost)
    return best, costs


def test_find_elimination_matches_the_per_candidate_count():
    rng = random.Random(4)
    ties = over_length = repeated = 0
    for _ in range(3000):
        gens = rng.randint(1, 5)
        max_len = rng.randint(2, 14)
        relators = []
        for _ in range(rng.randint(1, 6)):
            word = tuple(rng.choice((1, -1)) * rng.randint(1, gens)
                         for _ in range(rng.randint(1, 16)))
            relators.append(word)
            over_length += len(word) > max_len
            repeated += len(set(map(abs, word))) < len(word)
        if rng.random() < 0.2:
            relators.append(relators[0])  # a duplicate relator
        expected, costs = _count_per_candidate_elimination(gens, relators,
                                                           max_len)
        ties += bool(costs) and costs.count(min(costs)) > 1
        assert _find_elimination(relators, max_len) == expected
    # the draws reach the cases where the two scans could part ways
    assert min(ties, over_length, repeated) > 100


def _per_rotation_best_shortening(relators, budget):
    """The shortening scan that builds and spends every rotation."""
    best = None
    for i, ri in enumerate(relators):
        for j, rj in enumerate(relators):
            if i == j:
                continue
            for s in (1, -1):
                base = rj if s == 1 else inverse(rj)
                for b in range(len(base)):
                    if not budget.spend():
                        return best
                    w = cyclic_reduce(ri + base[b:] + base[:b])
                    gain = len(ri) - len(w)
                    if gain > 0 and (best is None or gain > best[0]):
                        best = (gain, i, j, s, b, w)
    return best


def _cyclic_relators(rng, gens, count, max_len):
    out = []
    while len(out) < count:
        w = cyclic_reduce(tuple(rng.choice((1, -1)) * rng.randint(1, gens)
                                for _ in range(rng.randint(1, max_len))))
        if w:
            out.append(w)
    return out


def test_best_shortening_spends_the_budget_rotation_by_rotation():
    rng = random.Random(11)
    cut_short = 0
    for _ in range(40):
        relators = _cyclic_relators(rng, rng.randint(1, 3),
                                    rng.randint(2, 4), 8)
        total = 2 * (len(relators) - 1) * sum(map(len, relators))
        for steps in range(total + 2):
            want_budget, got_budget = _Budget(steps), _Budget(steps)
            want = _per_rotation_best_shortening(relators, want_budget)
            got = _best_shortening(relators, got_budget)
            assert (got, got_budget.left) == (want, want_budget.left)
            cut_short += want is not None and steps < total
    # some scans find a shortening before the budget cuts them off
    assert cut_short > 100


def _tietze_corpus():
    """Scrambled free presentations, then relator lists in which no
    generator occurs exactly once, so that no elimination applies and
    the products, the plateau and the budget do the work."""
    rng = random.Random(20261018)
    corpus = [_scrambled_free_presentation(rng)[0] for _ in range(60)]
    for _ in range(100):
        gens, count = rng.randint(2, 4), rng.randint(3, 8)
        relators = []
        while len(relators) < count:
            w = _cyclic_relators(rng, gens, 1, 10)[0]
            if len(w) >= 4 and 1 not in Counter(map(abs, w)).values():
                relators.append(w)
        corpus.append(presentation(gens, relators))
    return corpus


def test_tietze_outcomes_on_a_seeded_corpus_are_pinned():
    # a change in any final presentation, reason or trace shows here
    digest = hashlib.sha256()
    reasons = Counter()
    for p in _tietze_corpus():
        q, v = tietze_simplify(p)
        reasons[v.reason.split(";")[0].split(" of rank")[0]] += 1
        trace = v.witness["trace"] if v.is_verified else None
        digest.update(json.dumps([q.num_generators, q.relators, v.status,
                                  v.reason, trace]).encode())
    # the corpus reaches every way out, the budget's included
    assert reasons == {"free": 92, "no simplifying move found": 65,
                       "budget exhausted": 3}
    assert digest.hexdigest() == TIETZE_CORPUS_SHA256

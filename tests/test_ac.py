import hashlib
import json
import random
from collections import Counter, deque
from contextlib import contextmanager
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import ac
from trisect.ac import (BalancedPresentation, ab_det, ac_search,
                        ak_presentation, apply_ac_move, canonical_key,
                        replay_ac_path, trivial_presentation,
                        _aligned_products, _normalize_start, _product_moves,
                        _stable_edges, _state)
from trisect.words import (byte_word, cyclic_reduce, int_word, inverse,
                           map_letters)


def test_ak_presentation_family():
    p1 = ak_presentation(1)
    assert p1.relators == ((2, 1, 2, -1, -2, -1), (1, 1, -2))
    p2 = ak_presentation(2)
    assert p2.relators[1] == (1, 1, 1, -2, -2)
    p3 = ak_presentation(3)
    assert p3.relators[1] == (1, 1, 1, 1, -2, -2, -2)
    assert p3.relators[0] == p1.relators[0]
    with pytest.raises(ValueError):
        ak_presentation(0)


def test_balanced_presentation_validation():
    with pytest.raises(ValueError):
        BalancedPresentation(2, ((1,),))
    with pytest.raises(ValueError):
        BalancedPresentation(1, ((1, 2),))
    # words are freely reduced on construction
    p = BalancedPresentation(1, ((1, -1, 1),))
    assert p.relators == ((1,),)


def test_ab_det_against_closed_form():
    for n in range(1, 11):
        assert ab_det(ak_presentation(n)) == (-1) * (-n) - 1 * (n + 1)
        assert ab_det(ak_presentation(n)) == -1


def test_ab_det_examples():
    assert ab_det(BalancedPresentation(1, ((1,),))) == 1
    assert ab_det(BalancedPresentation(2, ((1, 1), (2,)))) == 2
    assert ab_det(BalancedPresentation(0, ())) == 1


def test_invert_is_an_involution():
    p = ak_presentation(2)
    q = apply_ac_move(apply_ac_move(p, ("invert", 1)), ("invert", 1))
    assert q == p
    assert canonical_key(apply_ac_move(p, ("invert", 1))) == canonical_key(p)


def test_multiply_concatenates():
    p = BalancedPresentation(2, ((1,), (2,)))
    q = apply_ac_move(p, ("multiply", 1, 2))
    assert q.relators == ((1, 2), (2,))
    with pytest.raises(ValueError):
        apply_ac_move(p, ("multiply", 1, 1))
    with pytest.raises(ValueError):
        apply_ac_move(p, ("multiply", 0, 2))


def test_conjugate_and_its_inverse():
    p = ak_presentation(1)
    q = apply_ac_move(p, ("conjugate", 2, 1, 1))
    assert q.relators[1] == (1, 1, 1, -2, -1)
    back = apply_ac_move(q, ("conjugate", 2, 1, -1))
    assert back == p
    with pytest.raises(ValueError):
        apply_ac_move(p, ("conjugate", 1, 3, 1))
    with pytest.raises(ValueError):
        apply_ac_move(p, ("conjugate", 1, 1, 2))


def test_stabilize_and_destabilize():
    p = ak_presentation(1)
    q = apply_ac_move(p, ("stabilize",))
    assert q.generators == 3
    assert q.relators[2] == (3,)
    back = apply_ac_move(q, ("destabilize", 3))
    assert back == p
    with pytest.raises(ValueError):
        apply_ac_move(q, ("destabilize", 1))  # not a single letter
    r = BalancedPresentation(2, ((2,), (2, 1)))
    with pytest.raises(ValueError):
        apply_ac_move(r, ("destabilize", 1))  # generator used elsewhere
    with pytest.raises(ValueError):
        apply_ac_move(p, ("frobnicate", 1))


def test_destabilize_relabels_higher_generators():
    p = BalancedPresentation(3, ((2,), (1, 3), (3, 1)))
    q = apply_ac_move(p, ("destabilize", 1))
    assert q.generators == 2
    assert q.relators == ((1, 2), (2, 1))


def _random_presentation(rng, n, max_len):
    rel = []
    for _ in range(n):
        w = []
        for _ in range(rng.randrange(1, max_len + 1)):
            g = rng.randrange(1, n + 1)
            w.append(g if rng.random() < 0.5 else -g)
        rel.append(tuple(w))
    return BalancedPresentation(n, tuple(rel))


def _random_move(rng, p):
    n = p.generators
    kinds = ["invert", "conjugate"] if n >= 1 else []
    if n >= 2:
        kinds.append("multiply")
    kinds.append("stabilize")
    for i, r in enumerate(p.relators, 1):
        if len(r) == 1 and not any(
                any(abs(v) == abs(r[0]) for v in o)
                for k, o in enumerate(p.relators) if k != i - 1):
            kinds.append(("destabilize", i))
            break
    kind = rng.choice(kinds)
    if isinstance(kind, tuple):
        return kind
    if kind == "invert":
        return ("invert", rng.randrange(1, n + 1))
    if kind == "conjugate":
        return ("conjugate", rng.randrange(1, n + 1),
                rng.randrange(1, n + 1), rng.choice((1, -1)))
    if kind == "multiply":
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        while j == i:
            j = rng.randrange(1, n + 1)
        return ("multiply", i, j)
    return ("stabilize",)


def test_ab_det_is_move_invariant():
    rng = random.Random(20260814)
    for _ in range(1000):
        p = _random_presentation(rng, rng.randrange(1, 4), 6)
        want = abs(ab_det(p))
        for _ in range(5):
            p = apply_ac_move(p, _random_move(rng, p))
            assert abs(ab_det(p)) == want


def test_canonical_key_is_symmetry_invariant():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 4)
        p = _random_presentation(rng, n, 6)
        key = canonical_key(p)
        rel = list(p.relators)
        rng.shuffle(rel)
        assert canonical_key(BalancedPresentation(n, tuple(rel))) == key
        i = rng.randrange(len(rel))
        w = rel[i]
        if w:
            r = rng.randrange(len(w))
            rel[i] = w[r:] + w[:r]
        assert canonical_key(BalancedPresentation(n, tuple(rel))) == key
        rel[i] = tuple(-v for v in reversed(rel[i]))
        assert canonical_key(BalancedPresentation(n, tuple(rel))) == key
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        table = {g: (perm[g - 1] * rng.choice((1, -1)),)
                 for g in range(1, n + 1)}
        relabeled = tuple(map_letters(w, table) for w in rel)
        assert canonical_key(BalancedPresentation(n, relabeled)) == key


def test_canonical_key_examples():
    a = BalancedPresentation(2, ((1,), (2,)))
    b = BalancedPresentation(2, ((2,), (1,)))
    assert canonical_key(a) == canonical_key(b)
    c = BalancedPresentation(1, ((1,),))
    d = BalancedPresentation(1, ((-1,),))
    assert canonical_key(c) == canonical_key(d)
    assert canonical_key(ak_presentation(1)) != canonical_key(ak_presentation(2))


def _brute_cyclic_min(w):
    core = cyclic_reduce(w)
    if not core:
        return ()
    return min(c[i:] + c[:i] for c in (core, inverse(core))
               for i in range(len(c)))


def _oracle_key(p):
    """The key computed the long way: rebuild every relator under every
    signed relabeling, then minimize over all rotations and inversions."""
    n = p.generators
    best = None
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            table = {g: (signs[g - 1] * perm[g - 1],)
                     for g in range(1, n + 1)}
            cand = tuple(sorted(_brute_cyclic_min(map_letters(w, table))
                                for w in p.relators))
            if best is None or cand < best:
                best = cand
    body = "|".join(",".join(str(v) for v in r) for r in best)
    return ("%d:%s" % (n, body)).encode("ascii")


def test_canonical_key_matches_the_relabeling_oracle():
    rng = random.Random(20261018)
    shared = {}

    def word(n):
        return tuple(rng.choice((1, -1)) * rng.randrange(1, n + 1)
                     for _ in range(rng.randrange(0, 9)))

    for _ in range(60):
        n = rng.randrange(0, 4)
        p = BalancedPresentation(n, tuple(word(n) for _ in range(n)))
        # the same relators again with one more generator: a memo keyed
        # by word alone would hand them their images under n relabelings
        q = BalancedPresentation(n + 1, p.relators + (word(n + 1),))
        for pres in (p, q, p):
            want = _oracle_key(pres)
            assert canonical_key(pres) == want
            assert _memo_key(pres, shared) == want
    assert _memo_key(BalancedPresentation(0, ()), shared) == b"0:"


def test_a_memo_fed_rotations_and_inverses_keys_by_relator_class():
    """Images are memoized per relator class, so a class first met as a
    rotation or an inverse must still key the original word correctly."""
    rng = random.Random(20261019)
    for _ in range(60):
        n = rng.randrange(1, 4)
        p = _random_presentation(rng, n, 8)
        twisted = []
        for w in p.relators:
            r = rng.randrange(len(w)) if w else 0
            w = w[r:] + w[:r]
            twisted.append(inverse(w) if rng.random() < 0.5 else w)
        q = BalancedPresentation(n, tuple(twisted))
        memo = {}
        want = _oracle_key(p)
        assert _memo_key(q, memo) == want
        assert _memo_key(p, memo) == want
        assert _memo_key(apply_ac_move(p, ("stabilize",)), memo) == \
            _oracle_key(apply_ac_move(p, ("stabilize",)))


@st.composite
def _keyed_presentations(draw):
    """Presentations on up to 4 generators (the stable search reaches 4
    from AK(2)), with empty relators, relators of one class and relators
    whose classes tie for the least image."""
    n = draw(st.integers(0, 4))
    letters = [v for g in range(1, n + 1) for v in (g, -g)]
    rels = []
    for i in range(n):
        how = draw(st.sampled_from(("free", "same class", "tie"))) \
            if i else "free"
        if how == "free":
            w = tuple(draw(st.lists(st.sampled_from(letters), max_size=6)))
        else:
            w = rels[draw(st.integers(0, i - 1))]
            if how == "tie":
                # a signed relabeling keeps the least image of the class
                perm = draw(st.permutations(range(1, n + 1)))
                table = {g: (perm[g - 1] * draw(st.sampled_from((1, -1))),)
                         for g in range(1, n + 1)}
                w = map_letters(w, table)
            r = draw(st.integers(0, max(len(w) - 1, 0)))
            w = w[r:] + w[:r]
            if draw(st.booleans()):
                w = inverse(w)
        rels.append(w)
    return BalancedPresentation(n, tuple(rels))


@contextmanager
def _cold_tables():
    """Empty symmetry tables for the block; the process's come back after."""
    saved, ac._SYMMETRY = ac._SYMMETRY, {}
    try:
        yield
    finally:
        ac._SYMMETRY = saved


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_keyed_presentations())
def test_canonical_key_equals_the_oracle(p):
    want = _oracle_key(p)
    # the process's tables, warmed by the earlier examples and tests
    assert canonical_key(p) == want
    with _cold_tables():
        assert canonical_key(p) == want
    # one memo across generator counts, as a stable search keeps it: the
    # same relators must not get their images under the other count
    memo = {}
    q = apply_ac_move(p, ("stabilize",)) if p.generators < 4 else p
    want_q = _oracle_key(q)
    assert _memo_key(q, memo) == want_q
    assert _memo_key(p, memo) == want
    assert _memo_key(q, memo) == want_q


def _text(key):
    """The text ``canonical_key`` writes for a search key."""
    body = "|".join(",".join(str(b - ac._BASE) for b in x) for x in key)
    return ("%d:%s" % (len(key), body)).encode("ascii")


def _memo_key(p, memo):
    """``canonical_key(p)``, keyed on a memo shared across calls as one
    search shares its memo."""
    return _text(ac._key(_state(p), memo))


def _presentation(state):
    """The presentation a search state (a tuple of byte relators) spells,
    through the validating constructor, which must keep every relator."""
    p = BalancedPresentation(len(state), tuple(map(int_word, state)))
    assert _state(p) == state
    return p


def _edges(state, stable, gen_cap, cap):
    """Every edge out of a search state with its child built whole (None
    over the length cap): the aligned products, then, when stable, the
    trivial-pair edges."""
    for desc, core in _aligned_products(state, cap):
        i = desc[0] - 1
        yield desc, (None if core is None
                     else state[:i] + (core,) + state[i + 1:])
    if stable:
        yield from _stable_edges(state, gen_cap, cap)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_keyed_presentations(), st.integers(0, 4))
def test_child_keys_equal_the_keys_of_the_built_children(p, slack):
    state = _state(_normalize_start(p)[0])
    n, cap = len(state), sum(map(len, state)) + slack
    memo, stats = {}, Counter()
    parent = ac._key(state, memo)
    got = list(ac._step((parent, None, state, None, None), {}, False, memo,
                        stats, False, n, cap))
    keys = {}
    for k, (key, named, base, i, core, *desc) in enumerate(got):
        # a child is named by the expanded state's key and state, the
        # replaced relator and the core, and built only from them; its
        # descriptor fills the rest of the record
        desc = tuple(desc)
        assert named == parent
        assert (base, i, len(desc)) == (state, desc[0] - 1, 5)
        child = base[:i] + (core,) + base[i + 1:]
        keys[desc] = key
        assert key == ac._key(child, {})
        assert _text(key) == canonical_key(_presentation(child))
        # the oracle tries every relabeling: every 8th child from n = 3 on
        if n < 3 or not k % 8:
            assert _text(key) == _oracle_key(_presentation(child))
    # every other child is a sibling of one keyed earlier: the same relator
    # replaced by a core of the same class, so the same key
    earlier = {}
    skipped = 0
    for desc, child in _edges(state, False, n, cap):
        if child is None:
            continue
        key = ac._key(child, {})
        if desc in keys:
            assert keys[desc] == key
            earlier.setdefault(desc[0], set()).add(key)
        else:
            assert key in earlier.get(desc[0], ())
            skipped += 1
    assert (stats["child_keys"], stats["sibling_skips"]) == \
        (len(got), skipped)


@st.composite
def _states_of_one_key(draw):
    """A cyclically reduced search state on 2 or 3 generators and an image
    of it with the generators relabeled with signs, every relator rotated
    and perhaps inverted, and the relators reordered."""
    n = draw(st.integers(2, 3))
    letters = [v for g in range(1, n + 1) for v in (g, -g)]
    p = _normalize_start(BalancedPresentation(n, tuple(
        tuple(draw(st.lists(st.sampled_from(letters), max_size=5)))
        for _ in range(n))))[0]
    perm = draw(st.permutations(range(1, n + 1)))
    table = {g: (perm[g - 1] * draw(st.sampled_from((1, -1))),)
             for g in range(1, n + 1)}
    image = []
    for w in p.relators:
        w = map_letters(w, table)
        r = draw(st.integers(0, max(len(w) - 1, 0)))
        w = w[r:] + w[:r]
        image.append(inverse(w) if draw(st.booleans()) else w)
    image = draw(st.permutations(image))
    return _state(p), _state(BalancedPresentation(n, tuple(image)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_states_of_one_key(), st.booleans(), st.integers(0, 3))
def test_child_keys_depend_on_the_key_alone(states, stable, slack):
    # the fact a closure bound over keys rests on: states of one key have
    # the same set of child keys, stable or not
    a, b = states
    assert ac._key(a, {}) == ac._key(b, {})
    cap = sum(map(len, a)) + slack

    def child_keys(state):
        return {child[0] for *_, child in ac._expansion(
            state, None, {}, stable, len(state) + 2, cap)
            if child is not None}

    assert child_keys(a) == child_keys(b)


def _letter_maps(n):
    """Each signed relabeling of n generators as a map of byte letters, in
    image order: entry 2k is the k-th of ``_relabelings(n)``, 2k + 1 its
    negation."""
    letters = [ac._BASE + g for g in range(1, n + 1)] + \
        [ac._BASE - g for g in range(1, n + 1)]
    maps = []
    for image, inverse_, _ in ac._relabelings(n):
        for t in (image, inverse_):
            maps.append(tuple(t[b] for b in letters))
    return letters, maps


@pytest.mark.parametrize("n, samples", [(1, None), (2, None), (3, None),
                                        (4, 12), (5, 4)])
def test_composer_indices_compose_the_signed_relabelings(n, samples):
    letters, maps = _letter_maps(n)
    assert len(maps) == 2 ** n * len(list(permutations(range(n))))
    where = {m: r for r, m in enumerate(maps)}
    assert len(where) == len(maps)
    position = {b: i for i, b in enumerate(letters)}
    indices = ac._composer(n, ac._relabelings(n))
    rng = random.Random(n)
    ss = range(len(maps)) if samples is None else \
        rng.sample(range(len(maps)), samples)
    for s in ss:
        got = indices(s)
        for r, m in enumerate(maps):
            # sigma_r o sigma_s: apply sigma_s first, then sigma_r
            composed = tuple(m[position[b]] for b in maps[s])
            assert got[r] == where[composed], (n, r, s)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_images_equal_the_images_computed_directly(n):
    rng = random.Random(20261019 + n)
    tables = ac._relabelings(n)
    indices = ac._composer(n, tables)
    for _ in range(6 if n < 4 else 2):
        w = tuple(rng.choice((1, -1)) * rng.randrange(1, n + 1)
                  for _ in range(rng.randrange(1, 8)))
        c = ac._byte_class(byte_word(w))
        base = ac._class_images(c, tables)
        for s in range(len(base[0])):
            assert ac._orbit_images(base, indices(s)) == \
                ac._class_images(base[0][s], tables), (w, s)


@pytest.fixture
def cold_tables():
    """Empty symmetry tables for the test."""
    with _cold_tables():
        yield


@pytest.fixture
def image_calls(monkeypatch, cold_tables):
    """The class words that ``_class_images`` computes images for, from
    empty symmetry tables."""
    calls = []
    direct = ac._class_images

    def counted(word, tables):
        calls.append(word)
        return direct(word, tables)

    monkeypatch.setattr(ac, "_class_images", counted)
    return calls


def _image_counts(classes):
    """What the ``classes`` a search's memo met on one generator count add
    to its stats: the relabeling orbits met (``class_images``) and the
    other classes met in them (``orbit_images``)."""
    orbits = len({entry[1] for entry in classes.values()})
    return orbits, len(classes) - orbits


def test_a_relabeled_class_takes_its_images_from_the_orbit(image_calls):
    p = trivial_presentation(3)
    memo = {}
    assert _memo_key(p, memo) == _oracle_key(p)
    # x1, x2 and x3 are one orbit: its images are computed for x1 alone
    assert len(image_calls) == 1
    assert _image_counts(memo[3]) == (1, 2)


@pytest.mark.parametrize("relators", [
    ((1, 2), (2, 3, -1), (3, 4), (4, 5, 5), (5, -1)),
    ((1,), (2, -3), (3, 2), (4, 1, -4), (5, 2, 5, -3)),
])
def test_five_generator_keys_equal_the_oracle(relators):
    p = BalancedPresentation(5, relators)
    memo = {}
    assert _memo_key(p, memo) == _oracle_key(p)
    # two of the relators are one orbit, so one class took the orbit path
    assert _image_counts(memo[5])[1] >= 1


def test_search_stats_count_class_and_orbit_images(image_calls):
    res = ac_search(ak_presentation(2), 32, 20, stable=True)
    assert res.verdict.is_verified
    assert res.stats["class_images"] == len(image_calls)
    # deterministic work counters of the search's expansions (writing the
    # path out counts no class); the images of 205 classes were relabeled
    # from an orbit instead of computed
    assert (res.stats["class_images"], res.stats["orbit_images"]) == \
        (527, 205)
    # 3,358 children met a key; 1,211 of them were skipped for an earlier
    # sibling's relator class instead of keyed
    assert (res.stats["child_keys"], res.stats["sibling_skips"]) == \
        (2147, 1211)
    # stats stay out of the witness
    assert set(res.verdict.witness) == {"kind", "moves", "depth"}
    # the same search again takes every class's images from the tables the
    # first one filled, and counts alike
    image_calls.clear()
    again = ac_search(ak_presentation(2), 32, 20, stable=True)
    assert image_calls == []
    assert (again.path, again.stats) == (res.path, res.stats)


# budgets 32/20; the counts and path digests pin each search tree
@pytest.mark.parametrize("n, stable, cap, status, visited, stored, pruned, "
                         "moves, digest", [
    (1, False, 20000, "verified", 5, 30, 0, 12, "318d0b41c6b15ed0"),
    (2, False, 20000, "verified", 38, 1026, 0, 43, "8dbb961e9483b75d"),
    (2, True, 20000, "verified", 60, 1325, 0, 43, "8dbb961e9483b75d"),
    (3, False, 5000, "unknown", 102, 5000, 1285, None, None),
])
def test_search_trees_are_pinned(n, stable, cap, status, visited, stored,
                                 pruned, moves, digest):
    res = ac_search(ak_presentation(n), 32, 20, stable=stable,
                    max_states=cap)
    assert res.verdict.status == status
    assert (res.stats["visited"], res.stats["stored"],
            res.stats["pruned_length"]) == (visited, stored, pruned)
    # stable AK(2) visits 3 states at the generator cap; writing the path
    # out must not add to that count
    assert res.stats["at_generator_cap"] == (3 if stable else 0)
    if moves is None:
        assert res.path is None
    else:
        assert len(res.path) == moves
        text = json.dumps(res.verdict.witness["moves"]).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest


def _outcome(res):
    return res.verdict.status, res.verdict.witness, res.stats


def _streamed(monkeypatch):
    """The states whose expansions the child producer streams for a search
    from now on, in order (the writing out of a path left out): a search
    replays its other expansions from kept records."""
    states = []
    direct = ac._expansion

    def counted(state, key, memo, stable, gen_cap, cap, target=None):
        if target is None:  # when first iterated, as the producer runs
            states.append(state)
        yield from direct(state, key, memo, stable, gen_cap, cap, target)
    monkeypatch.setattr(ac, "_expansion", counted)
    return states


def _expansions(outcomes):
    """How many states the searches expanded."""
    return sum(stats["visited"] - stats["pruned_depth"]
               for _, _, stats in outcomes)


def test_searches_answer_alike_whatever_filled_the_tables(image_calls,
                                                          monkeypatch):
    # the pinned trees: AK(1), AK(2), stable AK(2), capped AK(3) and three
    # three-generator scrambles
    cases = [(ak_presentation(n), 32, stable, cap) for n, stable, cap in
             ((1, False, 20000), (2, False, 20000), (2, True, 20000),
              (3, False, 5000))]
    cases += [(_scramble3(seed), 16, False, 3000) for seed in (2, 3, 5)]
    streamed = _streamed(monkeypatch)

    def search(case):
        p, length, stable, cap = case
        return _outcome(ac_search(p, length, 20, stable=stable,
                                  max_states=cap))

    cold = []
    for case in cases:
        with _cold_tables():
            cold.append(search(case))
    # alone, a search expands no state twice, so it keeps no records and
    # streams every expansion
    assert len(streamed) == _expansions(cold)
    # each search on the tables the ones before it filled, then again on
    # tables that already hold every class they meet and every backward
    # expansion they repeat
    assert [search(case) for case in cases] == cold
    image_calls.clear()
    streamed.clear()
    assert [search(case) for case in cases] == cold
    assert image_calls == []
    replayed = _expansions(cold) - len(streamed)
    ac._SYMMETRY.clear()
    streamed.clear()
    assert [search(case) for case in reversed(cases)] == cold[::-1]
    # of the 294 expansions, the second pass replays the 97 that the first
    # pass kept (a backward expansion is kept the second time the process
    # streams it), and the reversed pass on emptied tables 11 of its own
    assert (_expansions(cold), replayed,
            _expansions(cold) - len(streamed)) == (294, 97, 11)


def _stored(table):
    """The units a symmetry table holds, counted from its orbit index,
    index lists and kept expansions: an image, a composer index, a record,
    a class lookup in one and a mark are one each."""
    bases = {id(entry): entry for entry in table.orbits.values()}
    return sum(len(entry[0]) for entry in bases.values()) + \
        sum(map(len, table.indices.values())) + \
        sum(sum(1 + len(record[0]) for record in kept) if kept else 1
            for kept in table.records.values())


def test_a_capped_symmetry_table_empties_and_answers_alike(monkeypatch,
                                                          cold_tables):
    p = ak_presentation(2)

    def keys(res):
        """The canonical key of every presentation along the path."""
        cur, got = p, [canonical_key(p)]
        for move in res.path:
            cur = apply_ac_move(cur, move)
            got.append(canonical_key(cur))
        return got

    want = ac_search(p, 32, 20, stable=True)
    want_keys = keys(want)
    # 1,000 holds two classes' images on 4 generators (384 each)
    ac._SYMMETRY.clear()
    monkeypatch.setattr(ac, "_SYMMETRY_CAP", 1000)
    emptied = []
    direct = ac._Symmetry.store

    def watched(table, size):
        held = _stored(table)
        assert held == table.size <= 1000
        direct(table, size)
        emptied.append(table.size < held + size)
    monkeypatch.setattr(ac._Symmetry, "store", watched)
    res = ac_search(p, 32, 20, stable=True)
    assert all(_stored(table) <= 1000 for table in ac._SYMMETRY.values())
    assert any(emptied)
    assert (res.path, _outcome(res)) == (want.path, _outcome(want))
    assert keys(res) == want_keys
    # kept expansions go with the rest: at 4,000 units a search's marks on
    # 2 generators outlive it, so the next ones keep records, and a table
    # that empties in the middle of a search drops them there
    ac._SYMMETRY.clear()
    monkeypatch.setattr(ac, "_SYMMETRY_CAP", 4000)
    dropped = []

    def dropping(table, size):
        held = _stored(table)
        assert held == table.size <= 4000
        kept = sum(1 for records in table.records.values() if records)
        direct(table, size)
        if table.size < held + size:
            dropped.append(kept)
    monkeypatch.setattr(ac._Symmetry, "store", dropping)
    for _ in range(3):
        dropped.append(None)  # a search starts
        res = ac_search(p, 32, 20, stable=True)
        assert (res.path, _outcome(res)) == (want.path, _outcome(want))
        assert keys(res) == want_keys
    assert all(_stored(table) <= 4000 for table in ac._SYMMETRY.values())
    # records were dropped, and kept again, within one search
    assert any(kept for kept in dropped[dropped.index(None, 1):])
    assert any(kept for table in ac._SYMMETRY.values()
               for kept in table.records.values())


def test_the_symmetry_tables_hold_the_pinned_units(cold_tables):
    # the pinned trees on empty tables, at 32/20: AK(1), AK(2), stable
    # AK(2), and AK(3) capped at 5,000 states; what each generator count's
    # table then holds, in the units ``_SYMMETRY_CAP`` counts, pins its
    # accounting, and the units are those the table's contents count to
    for n, stable, cap in ((1, False, 20000), (2, False, 20000),
                           (2, True, 20000), (3, False, 5000)):
        ac_search(ak_presentation(n), 32, 20, stable=stable, max_states=cap)
    assert {n: table.size for n, table in ac._SYMMETRY.items()} == \
        {1: 4, 2: 22204, 3: 3232, 4: 10755}
    assert all(_stored(table) == table.size
               for table in ac._SYMMETRY.values())


# a stabilization lengthens by one letter, so at these caps it is pruned
@pytest.mark.parametrize("max_length, visited, stored, pruned", [
    (9, 4, 15, 90),
    (10, 4, 15, 50),
])
def test_stable_search_prunes_over_the_length_cap(max_length, visited,
                                                  stored, pruned):
    res = ac_search(ak_presentation(1), max_length, 20, stable=True)
    assert res.verdict.is_verified
    assert (res.stats["visited"], res.stats["stored"],
            res.stats["pruned_length"]) == (visited, stored, pruned)


def _scramble3(seed):
    """A seeded AC scramble of the trivial presentation on 3 generators,
    total length at least 10."""
    rng = random.Random(seed)
    p = trivial_presentation(3)
    while p.total_length() < 10 or p.is_trivial_form():
        i, j = rng.sample(range(1, 4), 2)
        if rng.random() < 0.5:
            p = apply_ac_move(p, ("invert", j))
        p = apply_ac_move(p, ("conjugate", i, rng.randrange(1, 4),
                                  rng.choice((1, -1))))
        p = apply_ac_move(p, ("multiply", i, j))
    return p


# budgets 16/20/3000; 48 signed relabelings per relator class at n = 3
@pytest.mark.parametrize("seed, visited, stored, pruned, moves, digest", [
    (2, 9, 130, 238, 15, "b4ef72451dd50eeb"),
    (3, 15, 225, 110, 16, "2866e70385813eeb"),
    (5, 65, 827, 8989, 22, "843afbfb13ec5859"),
])
def test_three_generator_scramble_trees_are_pinned(seed, visited, stored,
                                                   pruned, moves, digest):
    p = _scramble3(seed)
    res = ac_search(p, 16, 20, max_states=3000)
    assert res.verdict.is_verified
    assert (res.stats["visited"], res.stats["stored"],
            res.stats["pruned_length"]) == (visited, stored, pruned)
    assert len(res.path) == moves
    text = json.dumps(res.verdict.witness["moves"]).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == digest
    assert replay_ac_path(p, res.path).is_trivial_form()


def _rotations_and_inverses(w):
    """Every rotation of byte word ``w`` and of its inverse."""
    inv = w[::-1].translate(ac._NEGATE)
    return [x[k:] + x[:k] for x in (w, inv) for k in range(max(len(x), 1))]


# AK(2) (its stable edges reach 3 generators) and a three-generator
# scramble, each through the first 30 expansions of a search from it
@pytest.mark.parametrize("p, cap, stable", [
    (ak_presentation(2), 32, False),
    (ak_presentation(2), 32, True),
    (_scramble3(5), 16, False),
], ids=["ak2", "ak2-stable", "scramble3-5"])
def test_the_memo_holds_one_entry_per_relator_class(p, cap, stable):
    state = _state(_normalize_start(p)[0])
    gen_cap = len(state) + 2
    memo, stats = {}, Counter()
    parents = {ac._key(state, memo)}
    frontier, expanded = deque([state]), []
    while frontier and len(expanded) < 30:
        state = frontier.popleft()
        expanded.append(state)
        for key, _, base, i, core, *_ in ac._step(
                (None, None, state, None, None), parents, False, memo, stats,
                stable, gen_cap, cap):
            parents.add(key)
            frontier.append(base if i is None
                            else base[:i] + (core,) + base[i + 1:])
    assert stats["child_keys"] > len(expanded)
    assert set(memo) == ({2, 3} if stable else {len(state)})
    for classes in memo.values():
        # keyed by class words alone: one entry per class
        assert classes and all(ac._byte_class(c) == c == entry[0][0]
                               for c, entry in classes.items())
    # a rotation or inverse of any relator met reaches its class's entry
    for state in expanded:
        n = len(state)
        for w in state:
            entry = memo[n][ac._byte_class(w)]
            assert all(ac._lookup(memo[n], n, x) is entry
                       for x in _rotations_and_inverses(w))


# the trivial root and AK(2) on 2 generators with stable edges (their
# lookups reach 1 and 3 generators), and a three-generator scramble
@pytest.mark.parametrize("p, cap, stable", [
    (trivial_presentation(2), 32, True),
    (ak_presentation(2), 32, True),
    (_scramble3(5), 16, False),
], ids=["trivial2-stable", "ak2-stable", "scramble3-5"])
def test_replayed_records_answer_as_the_streamed_expansion(cold_tables,
                                                           monkeypatch, p,
                                                           cap, stable):
    state = _state(_normalize_start(p)[0])
    key = ac._key(state, {})
    gen_cap = len(state) + 2
    records = list(ac._expansion(state, key, {}, stable, gen_cap, cap))
    children = [record[3] for record in records if record[3] is not None]
    assert records[-1][3] is None and len(children) > 3
    assert all(child[1] == key for child in children)
    # a side whose parents hold every third child's key
    parents = {child[0] for child in children[::3]}
    fresh = [child for child in children if child[0] not in parents]
    table, rkey = ac._symmetry(len(state)), (state, stable, gen_cap, cap)

    def step(backward, k):
        """The first k children a search step from the state takes, with
        the counts and memo it leaves, from a memo that met the state and
        the trivial presentation (the search meets both first)."""
        memo, stats = {}, Counter()
        ac._key(state, memo)
        ac._key(_state(trivial_presentation(len(state))), memo)
        taken = islice(ac._step((key, None, state, None, None), parents,
                                backward, memo, stats, stable, gen_cap, cap),
                       k)
        return list(taken), dict(stats), memo

    # the meet and the state cap stop a search after any child; a forward
    # step streams its expansion and marks nothing
    ks = (1, 2, len(children) // 2, len(fresh), None)
    streamed = {k: step(False, k) for k in ks}
    assert rkey not in table.records
    # through the process's table: the first backward step marks the
    # state, and the second keeps its records only if it streams them all,
    # not if it stops at its last new child
    for k in (1, len(fresh), None):
        assert step(True, k) == streamed[k]
        assert table.records[rkey] == (() if k else records)
    # replayed from then on, either way, with no expansion streamed
    monkeypatch.setattr(ac, "_expansion", None)
    kept = [record[3] for record in table.records[rkey]]
    for backward in (True, False):
        for k in ks:
            assert step(backward, k) == streamed[k]
        taken = step(backward, None)[0]
        assert taken == fresh
        assert all(a is b for a, b in zip(taken, [
            child for child in kept if child and child[0] not in parents]))
    assert _stored(table) == table.size


def _first_child_keyed_to(state, target, stable, gen_cap, cap):
    """The unfiltered rule for a backward step of a path: the descriptor
    (the record's tail) of the first child of the whole expansion, keyed
    with a fresh memo, whose key is the target."""
    return next(child[5:] for child in ac._step(
        (None, None, state, None, None), {}, False, {}, Counter(), stable,
        gen_cap, cap) if child[0] == target)


@pytest.mark.parametrize("p, cap, stable, states", [
    (ak_presentation(1), 32, False, 20000),
    (ak_presentation(2), 32, False, 20000),
    (ak_presentation(2), 32, True, 20000),
    (ak_presentation(1), 9, True, 20000),
    (ak_presentation(1), 10, True, 20000),
] + [(_scramble3(seed), 16, False, 3000) for seed in (2, 3, 5)],
    ids=["ak1", "ak2", "ak2-stable", "ak1-stable-9", "ak1-stable-10",
         "scramble3-2", "scramble3-3", "scramble3-5"])
def test_the_path_takes_the_move_the_unfiltered_rule_takes(monkeypatch, p,
                                                           cap, stable,
                                                           states):
    steps = []
    direct = ac._expansion

    def checked(state, key, memo, stable, gen_cap, cap, target=None):
        if target is None:
            return direct(state, key, memo, stable, gen_cap, cap)
        records = list(direct(state, key, memo, stable, gen_cap, cap,
                              target))
        got = next(child[5:] for *_, child in records
                   if child and child[0] == target)
        steps.append((got, _first_child_keyed_to(state, target, stable,
                                                 gen_cap, cap)))
        return iter(records)
    monkeypatch.setattr(ac, "_expansion", checked)
    res = ac_search(p, cap, 20, stable=stable, max_states=states)
    assert res.verdict.is_verified
    assert replay_ac_path(p, res.path).is_trivial_form()
    assert steps
    assert [got for got, _ in steps] == [want for _, want in steps]


def test_only_an_exhausted_uncut_search_is_complete():
    # AK(2) within total length 11: one side's component closed, and only
    # the length cap cut anything there
    bound = ac_search(ak_presentation(2), 11, 10 ** 6, max_states=10 ** 6)
    assert bound.verdict.is_unknown and bound.stats["complete"] is True
    assert bound.stats["pruned_length"] > 0
    # the state cap and the depth cap cut a search; a found path bounds
    # nothing
    capped = ac_search(ak_presentation(3), 32, 20, max_states=5000)
    assert capped.stats["aborted"] == "state-cap"
    shallow = ac_search(ak_presentation(2), 32, 1)
    assert shallow.verdict.is_unknown and shallow.stats["pruned_depth"]
    found = [ac_search(ak_presentation(n), 32, 20, stable=stable)
             for n, stable in ((1, False), (2, False), (2, True))]
    found += [ac_search(_scramble3(seed), 16, 20, max_states=3000)
              for seed in (2, 3, 5)]
    assert all(res.verdict.is_verified for res in found)
    assert not any(res.stats["complete"] for res in [capped, shallow] + found)
    assert all("complete" not in res.verdict.witness for res in found)


def test_a_closed_backward_side_stops_the_search(monkeypatch):
    # within total length 11 AK(2) has no child, so standing in for the
    # trivial presentation it closes the backward side at its root, while
    # the forward side from AK(1) is still open: the search stops there
    monkeypatch.setattr(ac, "trivial_presentation",
                        lambda n: ak_presentation(2))
    res = ac_search(ak_presentation(1), 11, 10 ** 6, max_states=10 ** 6)
    assert res.verdict.is_unknown and res.stats["complete"] is True
    assert res.stats["visited"] == 2 and res.stats["stored"] > 2
    assert "the trivial presentation's component closed at 1 key " in \
        res.verdict.reason


def test_aligned_products_replay_to_their_children():
    # children are built by seam arithmetic, which is exact on cyclically
    # reduced relators only; every search state has them, so the states
    # here come through the search's own start normalization
    rng = random.Random(3)
    built = pruned = 0
    trivial_pairs = Counter()
    presentations = [_normalize_start(
        _random_presentation(rng, rng.randrange(2, 4), 5))[0]
        for _ in range(30)]
    # this one destabilizes x2, renaming x3 to x2
    presentations.append(BalancedPresentation(3, ((2,), (1, 3), (3, -1))))
    for p in presentations:
        state = _state(p)
        cap = p.total_length() + 2
        for desc, child in _edges(state, True, p.generators + 1, cap):
            moves = _product_moves(p, desc)
            if not isinstance(desc[0], str):
                assert moves.count(("multiply", desc[0], desc[1])) == 1
            end = replay_ac_path(p, moves)
            if child is None:
                assert end.total_length() > cap
                pruned += 1
                continue
            # the byte words of what the validating replay builds
            assert _presentation(child) == end
            assert end.total_length() <= cap
            if isinstance(desc[0], str):
                trivial_pairs[desc[0]] += 1
                continue
            # the core replaces relator i in place
            i = desc[0] - 1
            assert child[:i] + child[i + 1:] == state[:i] + state[i + 1:]
            built += 1
    assert built and pruned
    assert trivial_pairs["stabilize"] and trivial_pairs["destabilize"]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g))),
             max_size=6),
    min_size=n, max_size=n)))
def test_children_of_a_cyclically_reduced_state_are_cyclically_reduced(rels):
    # the precondition of the seam kernel that builds every child core
    state = _state(_normalize_start(
        BalancedPresentation(len(rels), tuple(map(tuple, rels))))[0])
    assert all(cyclic_reduce(int_word(r)) == int_word(r) for r in state)
    built = 0
    for _, child in _edges(state, True, len(state) + 2,
                           sum(map(len, state)) + 2):
        if child is not None:
            assert all(cyclic_reduce(int_word(r)) == int_word(r)
                       for r in child)
            assert all(isinstance(r, bytes) for r in child)
            built += 1
    assert built


def _component(p, cap, memo, stable=False, gen_cap=None):
    """The ``canonical_key`` texts of every state a plain breadth-first
    search over ``_edges`` reaches from ``p`` within total length cap, and
    when stable within ``gen_cap`` generators."""
    seen = {_memo_key(p, memo)}
    queue = deque([_state(p)])
    while queue:
        state = queue.popleft()
        for _, child in _edges(state, stable, gen_cap, cap):
            if child is None:
                continue
            text = _memo_key(_presentation(child), memo)
            if text not in seen:
                seen.add(text)
                queue.append(child)
    return seen


# the states a stable search visits at the generator cap, per total length
_AT_GENERATOR_CAP = {15: 1, 16: 10, 17: 557}


@pytest.mark.parametrize("cap, stable, visited, stored, component", [
    (15, False, 10, 13, 7), (17, False, 266, 325, 257), (13, True, 1, 2, 1),
    (14, True, 2, 3, 2), (15, True, 22, 35, 16), (16, True, 144, 252, 126),
    (17, True, 4741, 6619, 4614)])
def test_ak3_closes_its_component_within_total_length(cap, stable, visited,
                                                      stored, component):
    # exhaustive bounds: with depth unbounded, AK(3)'s side closes before
    # the trivial presentation's, so the search stops there, and the
    # trivial side keeps what it stored by then; stable at 13, on at most
    # 4 generators, a search that walked the trivial side passed 1.1 GB
    # unfinished
    res = ac_search(ak_presentation(3), cap, 10 ** 6, stable=stable,
                    max_states=10 ** 7)
    assert res.verdict.status == "unknown"
    assert (res.stats["visited"], res.stats["stored"]) == (visited, stored)
    # a state at the generator cap offers no stabilization, so the capped
    # edges are still closed under inverses: it is expanded and counted,
    # and the side still closes
    at_cap = _AT_GENERATOR_CAP.get(cap, 0) if stable else 0
    assert (res.stats["pruned_depth"], res.stats["at_generator_cap"],
            res.stats["aborted"], res.stats["complete"]) == \
        (0, at_cap, None, True)
    assert ("the input's component closed at %d key" % component) in \
        res.verdict.reason
    assert ("within total length %d and 4 generators:" % cap in
            res.verdict.reason) == stable
    # a plain breadth-first search over the same edges, on at most 4
    # generators when stable, reaches as many keys
    if cap < 17:
        p = _normalize_start(ak_presentation(3))[0]
        assert len(_component(p, cap, {}, stable, 4)) == component


def test_ak3_has_no_trivialization_within_total_length_13():
    # an exhaustive bound: with depth unbounded, no path of the search's
    # edges through cyclically reduced states of total length at most 13
    # joins AK(3) to the trivial presentation
    p = ak_presentation(3)
    res = ac_search(p, 13, 10 ** 6, max_states=10 ** 7)
    assert res.verdict.status == "unknown"
    # AK(3)'s side closes at its root, which every product of its
    # relators replaces by a longer one: the two roots are all it stores
    assert (res.stats["visited"], res.stats["stored"]) == (1, 2)
    assert (res.stats["pruned_depth"], res.stats["aborted"]) == (0, None)
    # nothing but the length cap cut it, and the stats say so
    assert res.stats["complete"] is True
    assert "the input's component closed at 1 key " in res.verdict.reason
    # a plain search from both ends finds AK(3) alone and the 3,364 keys
    # of the trivial form's component, none of them AK(3)'s; the key set
    # is pinned, so it may depend on no hash order
    memo = {}
    start = _component(_normalize_start(p)[0], 13, memo)
    goal = _component(trivial_presentation(2), 13, memo)
    assert (len(start), len(goal)) == (1, 3364)
    assert not start & goal
    text = b"\n".join(sorted(start | goal))
    assert hashlib.sha256(text).hexdigest() == \
        "1d41b71f6ff1a4a12d0dbd06aa078d47f17f24bf970ab06e1a9ba065307fbc3f"


def test_a_search_whose_keys_outgrow_the_state_cap_answers_unknown(
        monkeypatch):
    def no_relabelings(n):
        raise AssertionError("built the relabelings of %d generators" % n)

    monkeypatch.setattr(ac, "_relabelings", no_relabelings)
    # x1, ..., x8 and x9 x1: a key would compare 2^9 9! = 185,794,560
    # signed relabelings
    p = BalancedPresentation(9, tuple((g,) for g in range(1, 9)) + ((9, 1),))
    assert abs(ab_det(p)) == 1
    res = ac_search(p, 32, 20)
    assert res.verdict.is_unknown and not res.found
    assert "exhausted" in res.verdict.reason
    assert res.stats["aborted"] == "relabelings"
    assert res.stats["visited"] == 0


@pytest.mark.parametrize("cap, aborted", [(383, "relabelings"),
                                          (384, "state-cap")])
def test_the_relabeling_bound_counts_the_stable_generators(cap, aborted):
    # stable AK(2) reaches 4 generators: 2^4 4! = 384 relabelings
    res = ac_search(ak_presentation(2), 32, 20, stable=True, max_states=cap)
    assert res.verdict.is_unknown
    assert res.stats["aborted"] == aborted


def test_search_on_trivial_presentation():
    res = ac_search(trivial_presentation(2), 10, 5)
    assert res.found
    assert res.path == ()
    assert res.verdict.is_verified


def test_search_trivializes_first_family_member():
    p = ak_presentation(1)
    res = ac_search(p, 32, 20)
    assert res.found
    assert res.verdict.is_verified
    end = replay_ac_path(p, res.path)
    assert end.is_trivial_form()
    assert canonical_key(end) == canonical_key(trivial_presentation(2))
    assert res.verdict.witness["kind"] == "ac-path"
    assert [tuple(m) for m in res.verdict.witness["moves"]] == list(res.path)


def test_search_exhausts_on_third_family_member():
    res = ac_search(ak_presentation(3), 32, 20, max_states=4000)
    assert not res.found
    assert res.verdict.is_unknown
    assert "exhausted" in res.verdict.reason


def test_a_state_capped_search_names_the_state_cap():
    res = ac_search(ak_presentation(3), 32, 20, max_states=500)
    assert res.verdict.is_unknown
    assert res.stats["aborted"] == "state-cap"
    assert res.stats["stored"] == 500


def test_search_refutes_bad_abelianization():
    p = BalancedPresentation(2, ((1, 1), (2,)))
    res = ac_search(p, 20, 10)
    assert not res.found
    assert res.verdict.is_refuted
    assert res.verdict.witness == {"kind": "ab-det", "det": 2}
    # the refutation carries the same stats as a search that ran
    found = ac_search(ak_presentation(1), 32, 20)
    assert found.found
    assert set(res.stats) == set(found.stats)
    assert res.stats["visited"] == res.stats["child_keys"] == 0
    assert (found.stats["child_keys"], found.stats["sibling_skips"]) == \
        (52, 27)


def test_search_handles_unreduced_start():
    p = BalancedPresentation(2, ((1, 2, -1), (1,)))
    res = ac_search(p, 10, 5)
    assert res.found
    end = replay_ac_path(p, res.path)
    assert end.is_trivial_form()


def test_stable_search_replays_too():
    q = apply_ac_move(ak_presentation(1), ("stabilize",))
    res = ac_search(q, 32, 20, stable=True)
    assert res.found
    end = replay_ac_path(q, res.path)
    assert end.is_trivial_form()


def test_search_budget_validation():
    with pytest.raises(ValueError):
        ac_search(ak_presentation(1), 0, 5)
    with pytest.raises(ValueError):
        ac_search(ak_presentation(1), 10, 0)
    for max_states in (0, -1):
        with pytest.raises(ValueError, match="budgets must be positive"):
            ac_search(ak_presentation(1), 32, 20, max_states=max_states)

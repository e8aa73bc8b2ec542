from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import words

_WORDS = st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)),
                  max_size=14).map(tuple)
_CORES = _WORDS.map(words.cyclic_reduce)


def _rotations(word):
    """All cyclic rotations of a word (the word itself if empty)."""
    if not word:
        return [()]
    return [word[i:] + word[:i] for i in range(len(word))]


def test_free_reduce():
    # x1 X1 -> empty; staggered cancellations collapse
    assert words.free_reduce((1, -1)) == ()
    assert words.free_reduce((1, 2, -2, -1)) == ()
    assert words.free_reduce((1, 2, -2, 3)) == (1, 3)
    assert words.free_reduce(()) == ()


def test_cyclic_reduce_strips_wraparound():
    assert words.cyclic_reduce((1, 2, -1)) == (2,)
    assert words.cyclic_reduce((1, 2, 3, -2, -1)) == (3,)
    assert words.cyclic_reduce((1, 2)) == (1, 2)
    # a single letter conjugated by itself survives
    assert words.cyclic_reduce((1, 1, -1)) == (1,)


def test_inverse_involution():
    rng = random.Random(7)
    for _ in range(50):
        w = words.free_reduce(tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(12)))
        assert words.inverse(words.inverse(w)) == w
        assert words.free_reduce(w + words.inverse(w)) == ()


def test_cyclic_min_is_rotation_and_inversion_invariant():
    rng = random.Random(11)
    for _ in range(60):
        w = words.cyclic_reduce(tuple(rng.choice((1, -1, 2, -2)) for _ in range(10)))
        if not w:
            continue
        key = words.cyclic_min(w)
        for rot in _rotations(w):
            assert words.cyclic_min(rot) == key
        assert words.cyclic_min(words.inverse(w)) == key


@settings(derandomize=True, database=None, max_examples=300)
@given(_WORDS)
def test_least_rotation_and_cyclic_min_against_all_rotations(w):
    assert words.least_rotation(w) == min(_rotations(w))
    core = words.cyclic_reduce(w)
    want = min(_rotations(core) + _rotations(words.inverse(core)))
    assert words.cyclic_min(w) == want


@settings(derandomize=True, database=None, max_examples=400)
@given(_CORES, _CORES)
def test_rotation_product_is_the_cyclically_reduced_product(u, base):
    for r in range(max(len(base), 1)):
        assert (words.rotation_product(u, base, r)
                == words.cyclic_reduce(u + base[r:] + base[:r]))


@settings(derandomize=True, database=None, max_examples=400)
@given(_WORDS.map(words.free_reduce), _CORES)
def test_the_seam_routine_answers_alike_on_int_and_byte_words(u, base):
    # one rotation_product and one strip_wrap serve both encodings
    bu, bbase = words.byte_word(u), words.byte_word(base)
    assert words.int_word(words.strip_wrap(bu)) == words.strip_wrap(u)
    assert words.int_word(words.least_rotation(bbase)) == \
        words.least_rotation(base)
    for r in range(max(len(base), 1)):
        got = words.rotation_product(bu, bbase, r)
        assert isinstance(got, bytes)
        assert words.int_word(got) == words.rotation_product(u, base, r)


@settings(derandomize=True, database=None, max_examples=200)
@given(st.lists(st.integers(1, 127).flatmap(
    lambda g: st.sampled_from((g, -g)))).map(tuple))
def test_byte_words_round_trip_in_letter_order(w):
    b = words.byte_word(w)
    assert isinstance(b, bytes) and len(b) == len(w)
    assert words.int_word(b) == w
    assert words.byte_word(words.int_word(b)) == b
    # byte order is letter order, and inverse letters sum to 2 * BYTE_BASE
    assert sorted(b) == [words.BYTE_BASE + v for v in sorted(w)]
    assert words.byte_word(words.inverse(w)) == \
        bytes(2 * words.BYTE_BASE - x for x in reversed(b))


@settings(derandomize=True, database=None, max_examples=400)
@given(_CORES.filter(bool), _CORES.filter(bool))
def test_exactly_the_cancelling_rotations_shorten_the_product(u, base):
    # any other rotation gives len(u) + len(base) letters, so it can
    # neither shorten u nor keep its length
    cancelling = words.cancelling_rotations(u, base)
    assert cancelling == sorted(set(cancelling))
    for r, rot in enumerate(_rotations(base)):
        product = words.cyclic_reduce(u + rot)
        assert (r in cancelling) == (len(product) < len(u) + len(base))


def test_substitute():
    # y -> x x inside y x y
    assert words.substitute((2, 1, 2), 2, (1, 1)) == (1, 1, 1, 1, 1)
    # occurrences of the inverse get the inverse expression
    assert words.substitute((-2,), 2, (1, 1)) == (-1, -1)


def _letter_counts(word):
    counts = {}
    for v in word:
        counts[abs(v)] = counts.get(abs(v), 0) + (1 if v > 0 else -1)
    return counts


def test_christoffel_frozen_words():
    # small slopes, fixed by the construction
    assert words.christoffel_word(1, 0) == (1,)
    assert words.christoffel_word(0, 1) == (2,)
    assert words.christoffel_word(1, 1) == (1, 2)
    assert words.christoffel_word(2, 3) == (1, 2, 1, 2, 2)
    assert words.christoffel_word(1, -1) == (1, -2)


def test_christoffel_abelianization_oracle():
    # oracle: letter-count expansion must equal the slope, and the word must
    # use exactly |p| + |q| letters (an embedded (p, q) torus curve does)
    for p, q in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, 2), (5, -3), (-4, 1)]:
        w = words.christoffel_word(p, q)
        counts = _letter_counts(w)
        assert counts.get(1, 0) == p
        assert counts.get(2, 0) == q
        assert len(w) == abs(p) + abs(q)


def test_christoffel_rejects_bad_slopes():
    import pytest
    with pytest.raises(ValueError):
        words.christoffel_word(0, 0)
    with pytest.raises(ValueError):
        words.christoffel_word(2, 4)


def test_surface_word_round_trip():
    w = (1, -2, 4, -3)
    text = words.format_surface_word(w)
    assert text == "x1 Y1 y2 X2"
    assert words.parse_surface_word(text) == w


def test_generator_word_round_trip():
    w = (2, -1, 1)
    assert words.format_generator_word(w) == "x2 X1 x1"
    assert words.parse_generator_word("x2 X1 x1") == w

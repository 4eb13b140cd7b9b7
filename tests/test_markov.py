"""Braid moves that keep the closure's link keep every invariant.

Conjugation, rotation, the flip i -> n - i (conjugation by the half
twist), a positive or negative Markov stabilization and an inserted
sigma sigma^-1 change the diagram and not the link, so V, the Conway
polynomial and Kh must not change, with no oracle needed.  Negating every
letter gives the mirror image, which must map each invariant as
:data:`poslink.batch._MIRRORS` says.  The moves also reach 15-18
crossings, where no full cube can check the tangle builder.
"""

from __future__ import annotations

import random

import pytest

from poslink import BraidWord, braid_closure, conway, jones_V, khovanov_homology
from poslink.batch import _MIRRORS


def conjugated(word: BraidWord, g: int) -> BraidWord:
    return BraidWord(word.strand_count, (g, *word.letters, -g))


def rotated(word: BraidWord, k: int) -> BraidWord:
    return BraidWord(word.strand_count, word.letters[k:] + word.letters[:k])


def flipped(word: BraidWord) -> BraidWord:
    n = word.strand_count
    return BraidWord(n, (n - g if g > 0 else -n - g for g in word.letters))


def stabilized(word: BraidWord, sign: int) -> BraidWord:
    n = word.strand_count
    return BraidWord(n + 1, (*word.letters, sign * n))


def inserted(word: BraidWord, at: int, g: int) -> BraidWord:
    return BraidWord(word.strand_count, word.letters[:at] + (g, -g) + word.letters[at:])


def mirrored(word: BraidWord) -> BraidWord:
    return BraidWord(word.strand_count, (-g for g in word.letters))


def moves(word: BraidWord, rng: random.Random) -> list[BraidWord]:
    """One of each move, at a random place and with a random letter."""
    n, letters = word.strand_count, word.letters
    g = rng.choice((1, -1)) * rng.randint(1, n - 1)
    return [
        conjugated(word, g),
        rotated(word, rng.randrange(max(len(letters), 1))),
        flipped(word),
        stabilized(word, rng.choice((1, -1))),
        inserted(word, rng.randint(0, len(letters)), g),
    ]


def invariants(word: BraidWord, cap: int = 16) -> dict[str, object]:
    d = braid_closure(word)
    return {"jones": jones_V(d), "conway": conway(d), "kh": khovanov_homology(d, cap=cap)}


def random_words(seed: int, count: int) -> list[BraidWord]:
    """Signed words on 2-4 strands with up to 9 letters."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, 4)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 9))]
        words.append(BraidWord(n, letters))
    return words


class TestBraidMoves:
    def test_moves_keep_every_invariant(self):
        rng = random.Random(28)
        pairs = 0
        for word in random_words(28, 60):
            before = invariants(word)
            for moved in moves(word, rng):
                assert invariants(moved) == before, (word, moved)
                pairs += 1
        assert pairs == 300

    def test_mirror_maps_every_invariant(self):
        for word in random_words(29, 60):
            before = invariants(word)
            after = invariants(mirrored(word))
            assert after == {name: _MIRRORS[name](value) for name, value in before.items()}, word

    def test_moves_compose(self):
        # a chain of moves drifts far from the word it started at
        rng = random.Random(30)
        for word in random_words(31, 10):
            before, moved = invariants(word), word
            for _ in range(4):
                moved = rng.choice(moves(moved, rng))
                if len(moved.letters) > 14:
                    break
            assert invariants(moved, cap=20) == before, (word, moved)


# alternating closures whose complexes the tangle builder once left at
# 27 s and 49 s; each form below now builds in under a second
HARD = [BraidWord(4, (1, -2, 3) * 5), BraidWord(5, (1, -2, 3, -4) * 4)]


@pytest.mark.parametrize("word", HARD, ids=lambda w: " ".join(map(str, w.letters)))
def test_hard_closures_under_moves(word):
    before = invariants(word, cap=18)
    for moved in (conjugated(word, -2), stabilized(word, 1), stabilized(word, -1)):
        assert invariants(moved, cap=18) == before, moved
    after = invariants(mirrored(word), cap=18)
    assert after == {name: _MIRRORS[name](value) for name, value in before.items()}

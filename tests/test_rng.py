"""The sign draw behind verify-appendix, cli._signs, against a word-by-word
loop over random.Random.getrandbits.

getrandbits(k) for k <= 32 is the top k bits of one 32-bit Mersenne Twister
word, and a longer draw stores its words least significant first, the last
word's top bits in the low end. So one draw of `count` signs must equal the
words drawn one at a time, bit i of each word at position i.
"""

import random

import numpy as np
import pytest

from bellbench.cli import _signs

SEEDS = [0, 42, -3, 2**64 + 5]
COUNTS = [1, 63, 64, 65, 1000, 2**16 + 1]


def scalar_words(gen, count):
    """The words of a count-bit draw, one getrandbits call per word."""
    return [gen.getrandbits(min(32, count - start)) for start in range(0, count, 32)]


def scalar_signs(gen, count):
    """count signs from the scalar words, bit i of each word at position i."""
    words = scalar_words(gen, count)
    bits = [(word >> i) & 1 for word in words for i in range(32)][:count]
    return np.array([1.0 if bit else -1.0 for bit in bits])


@pytest.mark.parametrize("seed, expected", [
    (0, [0xD82C07CD, 0x629F6FBE, 0xC2094CAC]),
    (42, [0xA3B1799D, 0x1C80317F, 0x06671AD1]),
])
def test_known_answer_words(seed, expected):
    assert scalar_words(random.Random(seed), 96) == expected
    bits = [(word >> i) & 1 for word in expected for i in range(32)]
    assert _signs(random.Random(seed), 96).tolist() == [2.0 * bit - 1.0 for bit in bits]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", COUNTS)
def test_words_match_scalar_loop(seed, count):
    fast, slow = random.Random(seed), random.Random(seed)
    signs = _signs(fast, count)
    assert signs.dtype == np.float64
    assert signs.shape == (count,)
    assert np.array_equal(signs, scalar_signs(slow, count))
    # the state hands off: both continue the same stream
    assert fast.getrandbits(32) == slow.getrandbits(32)
    assert np.array_equal(_signs(fast, 5), scalar_signs(slow, 5))


def test_zero_words_leave_the_state():
    gen = random.Random(7)
    assert _signs(gen, 0).size == 0
    assert gen.getrandbits(32) == random.Random(7).getrandbits(32)


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_calls_continue_one_stream(seed):
    gen, ref = random.Random(seed), random.Random(seed)
    first = _signs(gen, 222).reshape(37, 6)  # the last word's low 2 bits drop
    assert np.array_equal(first, scalar_signs(ref, 222).reshape(37, 6))
    assert gen.getrandbits(32) == ref.getrandbits(32)
    second = _signs(gen, 64000).reshape(1000, 64)
    assert np.array_equal(second, scalar_signs(ref, 64000).reshape(1000, 64))
    assert gen.random() == ref.random()

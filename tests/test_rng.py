"""The draw behind verify-appendix, zukowski._digits, against a word-by-word loop
over random.Random.getrandbits.

getrandbits(k) for k <= 32 is the top k bits of one 32-bit Mersenne Twister
word, and a longer draw stores its words least significant first, the last
word's top bits in the low end. So one draw of `count` digits of `width` bits
must equal the words drawn one at a time, bit i of each word at position i,
each run of `width` bits read least significant first.
"""

import random

import numpy as np
import pytest

from bellbench.zukowski import _digits

SEEDS = [0, 42, -3, 2**64 + 5]
COUNTS = [1, 63, 64, 65, 1000, 2**16 + 1]
WIDTHS = [1, 2, 4, 8]


def scalar_words(gen, count):
    """The words of a count-bit draw, one getrandbits call per word."""
    return [gen.getrandbits(min(32, count - start)) for start in range(0, count, 32)]


def scalar_digits(gen, count, width):
    """count digits of `width` bits from the scalar words: digit j of a word
    is its bits j * width .. (j + 1) * width - 1."""
    words = scalar_words(gen, count * width)
    mask = 2**width - 1
    return [(word >> shift) & mask for word in words for shift in range(0, 32, width)][:count]


@pytest.mark.parametrize("seed, expected", [
    (0, [0xD82C07CD, 0x629F6FBE, 0xC2094CAC]),
    (42, [0xA3B1799D, 0x1C80317F, 0x06671AD1]),
])
def test_known_answer_words(seed, expected):
    assert scalar_words(random.Random(seed), 96) == expected
    bits = [(word >> i) & 1 for word in expected for i in range(32)]
    assert _digits(random.Random(seed), 96, 1).tolist() == bits
    assert _digits(random.Random(seed), 12, 8).tolist() == [
        (word >> shift) & 0xFF for word in expected for shift in range(0, 32, 8)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", COUNTS)
def test_words_match_scalar_loop(seed, count):
    for width in WIDTHS:
        fast, slow = random.Random(seed), random.Random(seed)
        digits = _digits(fast, count, width)
        assert digits.dtype == np.uint8
        assert digits.shape == (count,)
        assert digits.tolist() == scalar_digits(slow, count, width), width
        # the state hands off: both continue the same stream
        assert fast.getrandbits(32) == slow.getrandbits(32)
        assert _digits(fast, 5, width).tolist() == scalar_digits(slow, 5, width)


def test_zero_words_leave_the_state():
    for width in WIDTHS:
        gen = random.Random(7)
        assert _digits(gen, 0, width).size == 0
        assert gen.getrandbits(32) == random.Random(7).getrandbits(32)


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_calls_continue_one_stream(seed):
    gen, ref = random.Random(seed), random.Random(seed)
    first = _digits(gen, 111, 2).reshape(37, 3)  # the last word's low 2 bits drop
    assert first.tolist() == np.reshape(scalar_digits(ref, 111, 2), (37, 3)).tolist()
    assert gen.getrandbits(32) == ref.getrandbits(32)
    second = _digits(gen, 8000, 8).reshape(1000, 8)
    assert second.tolist() == np.reshape(scalar_digits(ref, 8000, 8), (1000, 8)).tolist()
    assert gen.random() == ref.random()

"""The vectorized xorshift64* draws against the scalar next_uint64 loop."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellbench
from bellbench import rng
from bellbench.rng import XorShift64Star

SEEDS = [0, 42, -3, 2**64 + 5]
COUNTS = [1, 63, 64, 65, 1000, 2**16 + 1]


def scalar_words(gen, count):
    return [gen.next_uint64() for _ in range(count)]


def scalar_signs(gen, count):
    """count signs from the scalar words, bit i of each word at position i."""
    words = scalar_words(gen, (count + 63) // 64)
    bits = [(word >> i) & 1 for word in words for i in range(64)][:count]
    return np.array([1.0 if bit else -1.0 for bit in bits])


@pytest.mark.parametrize("seed, expected", [
    (0, [0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD, 0xB3C638353C668C91]),
    (42, [0x31B0ECE7C4F697A2, 0x9008A3B1CB686F03, 0x7C7173ABD97BE16F]),
])
def test_known_answer_words(seed, expected):
    assert scalar_words(XorShift64Star(seed), 3) == expected
    assert XorShift64Star(seed)._words(3).tolist() == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", COUNTS)
def test_words_match_scalar_loop(seed, count):
    fast, slow = XorShift64Star(seed), XorShift64Star(seed)
    words = fast._words(count)
    assert words.dtype == np.uint64
    assert words.tolist() == scalar_words(slow, count)
    # the state hands off: both continue the same stream
    assert fast.next_uint64() == slow.next_uint64()
    assert fast._words(5).tolist() == scalar_words(slow, 5)


def test_zero_words_leave_the_state():
    gen = XorShift64Star(7)
    assert gen._words(0).size == 0
    assert gen.next_uint64() == XorShift64Star(7).next_uint64()


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_calls_continue_one_stream(seed):
    gen, ref = XorShift64Star(seed), XorShift64Star(seed)
    first = gen.sign_matrix(37, 6)  # 222 signs: the last word's top bits drop
    assert first.dtype == np.float64
    assert np.array_equal(first, scalar_signs(ref, 222).reshape(37, 6))
    assert gen.next_uint64() == ref.next_uint64()
    second = gen.sign_matrix(1000, 64)
    assert np.array_equal(second, scalar_signs(ref, 64000).reshape(1000, 64))
    assert gen.uniform() == ref.uniform()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 500, 2049])
def test_uniforms_match_scalar_uniform(seed, count):
    fast, slow = XorShift64Star(seed), XorShift64Star(seed)
    values = fast.uniforms(count)
    expected = [slow.uniform() for _ in range(count)]
    assert values.dtype == np.float64
    assert values.tolist() == expected
    assert 0.0 <= values.min() and values.max() < 1.0
    assert fast.next_uint64() == slow.next_uint64()


def test_jump_tables_follow_the_scalar_step():
    """Entry 256 b + v of the T^(2^j) tables is 2^j scalar steps of v << 8b."""
    for j in range(4):
        tables = rng._jump_tables(j)
        for b, v in [(0, 1), (0, 255), (3, 0x5A), (7, 128), (7, 255)]:
            x = v << (8 * b)
            for _ in range(2**j):
                x = rng._step(x)
            assert int(tables[256 * b + v]) == x


def test_import_builds_no_tables():
    code = ("import bellbench.cli, bellbench.rng as r; "
            "print(r._jump_tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(bellbench.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "0"

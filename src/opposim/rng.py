"""Seeded random streams, bit for bit equal to numpy's default generator.

`Stream(entropy)` draws the same values as
`numpy.random.Generator(numpy.random.PCG64(numpy.random.SeedSequence(entropy)))`
for the calls the simulator makes: `random`, `uniform`, `integers` and
`permutation`. The streams are

- SeedSequence's entropy pool (four 32-bit words, hash-mixed) and its
  `generate_state`, which seeds the generator;
- PCG64: a 128-bit LCG with the XSL-RR output function (O'Neill, "PCG: A
  Family of Simple Fast Space-Efficient Statistically Good Algorithms for
  Random Number Generation", 2014);
- bounded integers by Lemire's multiply-and-reject method (Lemire, "Fast
  Random Integer Generation in an Interval", ACM TOMACS 2019), taking
  32-bit halves from one buffered 64-bit draw when the range fits in 32
  bits, as numpy does.

A run draws a few thousand scalars, so plain integer arithmetic costs less
than loading numpy. tests/test_rng.py compares every draw kind with numpy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG's 128-bit multiplier
_TO_DOUBLE = 1.0 / 9007199254740992.0        # 2**-53

# SeedSequence's hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_INF = float("inf")


def _words(entropy: Sequence[int]) -> List[int]:
    """The entropy as 32-bit words: each integer least significant word
    first, zero as one word."""
    words = []
    for n in entropy:
        n = int(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _MASK32)
        n >>= 32
        while n:
            words.append(n & _MASK32)
            n >>= 32
    return words


def _pool(words: List[int]) -> List[int]:
    """SeedSequence's mixed entropy pool."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: List[int], n_words: int) -> List[int]:
    """SeedSequence.generate_state(n_words, np.uint32)."""
    hash_const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return state


def _lemire(draw, bits: int, excl: int) -> int:
    """An integer in [0, excl) from `bits`-bit draws: the high bits of a
    draw times excl, drawn again while the low bits fall among the
    2**bits % excl values that would bias the result."""
    m = draw() * excl
    low_mask = (1 << bits) - 1
    if m & low_mask < excl:      # excl bounds the threshold: skip the modulo
        threshold = (1 << bits) % excl
        while m & low_mask < threshold:
            m = draw() * excl
    return m >> bits


class Stream:
    """One PCG64 stream seeded through SeedSequence(entropy).

    `state` is the LCG state, `inc` its odd increment and `half` the
    buffered upper half of a 64-bit draw that the next 32-bit draw returns
    (None when empty); together they are numpy's `bit_generator.state`.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, entropy: Sequence[int]):
        w = _generate_state(_pool(_words(entropy)), 8)
        # generate_state(4, np.uint64) pairs the words little end first
        seed = [w[2 * k] | (w[2 * k + 1] << 32) for k in range(4)]
        initstate = (seed[0] << 64) | seed[1]
        initseq = (seed[2] << 64) | seed[3]
        # pcg_setseq_128_srandom_r: step from 0, add the state, step again
        self.inc = ((initseq << 1) | 1) & _MASK128
        self.state = ((self.inc + initstate) * _MULT + self.inc) & _MASK128
        self.half: Optional[int] = None

    def next_uint64(self) -> int:
        s = self.state = (self.state * _MULT + self.inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        r = s >> 122
        return ((x >> r) | (x << (64 - r))) & _MASK64

    def next_uint32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        v = self.next_uint64()
        self.half = v >> 32
        return v & _MASK32

    def random(self, n: Optional[int] = None):
        """A double in [0, 1), or a list of n of them."""
        if n is not None:
            return [self.random() for _ in range(n)]
        return (self.next_uint64() >> 11) * _TO_DOUBLE

    def uniform(self, low: float, high: float) -> float:
        low = float(low)
        span = float(high) - low
        if not 0.0 <= span < _INF:
            if span < 0.0:
                raise ValueError("high - low < 0")
            raise OverflowError("high - low range exceeds valid bounds")
        return low + span * self.random()

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """An integer in [low, high), or in [0, low) when high is None."""
        if high is None:
            low, high = 0, low
        low, high = int(low), int(high) - 1
        if low < _INT64_MIN or high > _INT64_MAX:
            raise ValueError("integers bounds are out of int64 range")
        if low > high:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        rng = high - low
        if rng == 0:
            return low
        if rng < _MASK32:
            return low + _lemire(self.next_uint32, 32, rng + 1)
        if rng == _MASK32:
            return low + self.next_uint32()
        if rng == _MASK64:
            return low + self.next_uint64()
        return low + _lemire(self.next_uint64, 64, rng + 1)

    def permutation(self, n: int) -> List[int]:
        """A shuffled range(n): numpy's Fisher-Yates from the top, each
        index drawn by masked rejection."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self.next_uint32 if i <= _MASK32 else self.next_uint64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            out[i], out[j] = out[j], out[i]
        return out

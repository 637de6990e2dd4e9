"""opposim.rng against numpy, the reference it reproduces.

Every draw kind the program makes is compared value for value, and the
generator state after each draw, with
`numpy.random.Generator(numpy.random.PCG64(numpy.random.SeedSequence(...)))`.
"""

import random

import numpy as np
import pytest

from opposim.engine import RNG_STREAMS
from opposim.rng import Stream

# the program's stream ids: the run's named streams and the two map streams
# (synth_map, place_pois)
STREAM_IDS = sorted(RNG_STREAMS.values()) + [0x6D61, 0x504F49]
SEEDS = [0, 1, 7, 1000, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 40 + 3,
         2 ** 64 + 1]

# integers ranges, one or more per numpy path: a range of 0, the 32-bit
# Lemire path, the full 32-bit range, the 64-bit Lemire path and the full
# 64-bit range
BOUNDS = [(0, 1), (5, 6), (0, 2), (0, 3), (0, 7), (-5, 95), (0, 300),
          (0, 2 ** 31), (3, 2 ** 31 + 3), (0, 2 ** 32 - 1), (0, 2 ** 32),
          (-7, 2 ** 32 - 7), (0, 2 ** 32 + 1), (0, 3 * 2 ** 32 + 11),
          (0, 2 ** 62), (0, 2 ** 63 - 1), (-2 ** 63, 2 ** 63 - 1),
          (-2 ** 63, 2 ** 63)]


def reference(entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def same_state(stream, gen):
    s = gen.bit_generator.state
    half = s["uinteger"] if s["has_uint32"] else None
    return (stream.state, stream.inc, stream.half) == (
        s["state"]["state"], s["state"]["inc"], half)


def draw(rng, kind, arg):
    """One draw of `kind`, as plain Python values."""
    if kind == "random":
        return float(rng.random())
    if kind == "random_n":
        return [float(v) for v in rng.random(arg)]
    if kind == "uniform":
        return float(rng.uniform(*arg))
    if kind == "integers_high":
        return int(rng.integers(arg[1]))
    if kind == "integers":
        return int(rng.integers(*arg))
    if kind == "permutation":
        return [int(v) for v in rng.permutation(arg)]
    raise AssertionError(kind)


def mixed_draws(seed, count):
    """Draw kinds in a random order, integers interleaved with doubles so
    that a buffered 32-bit half meets every other kind."""
    pick = random.Random(seed)
    out = []
    for _ in range(count):
        kind = pick.choice(["random", "random_n", "uniform", "integers",
                            "integers_high", "permutation"])
        if kind == "random_n":
            arg = pick.choice([0, 1, 2, 5])
        elif kind == "uniform":
            arg = pick.choice([(0.0, 1.0), (0.5, 1.5), (14.0, 14.0),
                               (-3.0, 1e6), (1, 4)])
        elif kind == "integers":
            arg = pick.choice(BOUNDS)
        elif kind == "integers_high":
            arg = pick.choice([b for b in BOUNDS if b[0] == 0])
        elif kind == "permutation":
            arg = pick.choice([0, 1, 2, 3, 17, 64])
        else:
            arg = None
        out.append((kind, arg))
    return out


@pytest.mark.parametrize("stream_id", STREAM_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_matches_numpy(seed, stream_id):
    assert same_state(Stream([seed, stream_id]), reference([seed, stream_id]))


@pytest.mark.parametrize("stream_id", STREAM_IDS)
@pytest.mark.parametrize("seed", [0, 3, 2 ** 32 + 1, 2 ** 40 + 9])
def test_mixed_draws_match_numpy(seed, stream_id):
    ours, ref = Stream([seed, stream_id]), reference([seed, stream_id])
    for step, (kind, arg) in enumerate(mixed_draws(seed ^ stream_id, 300)):
        assert draw(ours, kind, arg) == draw(ref, kind, arg), (step, kind, arg)
        assert same_state(ours, ref), (step, kind, arg)


@pytest.mark.parametrize("low,high", BOUNDS)
def test_every_integers_path_matches_numpy(low, high):
    for seed in (0, 2 ** 33 + 1):
        ours, ref = Stream([seed, 5]), reference([seed, 5])
        for step in range(40):
            if step % 3 == 2:     # leave a half buffered, or use it up
                assert ours.random() == ref.random()
            assert ours.integers(low, high) == int(ref.integers(low, high))
            assert same_state(ours, ref), (seed, step)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 100, 1000])
def test_permutation_matches_numpy(n):
    ours, ref = Stream([11, 0x6D61]), reference([11, 0x6D61])
    ours.integers(7)           # a buffered half the shuffle must use first
    ref.integers(7)
    assert ours.permutation(n) == [int(v) for v in ref.permutation(n)]
    assert same_state(ours, ref)
    assert ours.random(n) == [float(v) for v in ref.random(n)]


def test_entropy_forms_match_numpy():
    for entropy in ([], [0], [12345], [2 ** 100 + 7], [1, 2, 3, 4, 5, 6],
                    [2 ** 70, 3]):
        assert same_state(Stream(entropy), reference(entropy)), entropy


@pytest.mark.parametrize("args", [(0,), (-1,), (5, 5), (6, 5),
                                  (0, 2 ** 63 + 1), (-2 ** 63 - 1, 0)])
def test_bad_integers_bounds_raise_like_numpy(args):
    with pytest.raises(ValueError):
        reference([1]).integers(*args)
    with pytest.raises(ValueError):
        Stream([1]).integers(*args)


@pytest.mark.parametrize("low,high", [(2.0, 1.0), (0.0, float("inf")),
                                      (0.0, float("nan"))])
def test_bad_uniform_bounds_raise_like_numpy(low, high):
    for rng in (reference([1]), Stream([1])):
        with pytest.raises((ValueError, OverflowError)) as err:
            rng.uniform(low, high)
        assert err.type is (ValueError if high < low else OverflowError)


def test_negative_entropy_raises_like_numpy():
    for entropy in ([-1], [1, -2]):
        with pytest.raises(ValueError):
            np.random.SeedSequence(entropy)
        with pytest.raises(ValueError):
            Stream(entropy)

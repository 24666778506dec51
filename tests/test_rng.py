"""Counter-mode stream: published reference values, forking, determinism."""

import numpy as np
import pytest

from nanoalbert.rng import RngStream

# splitmix64 reference sequence for seed 0 (widely published test vector).
SEED0_FIRST3 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_matches_published_splitmix64_vectors():
    r = RngStream(0)
    assert [r.next_uint64() for _ in range(3)] == SEED0_FIRST3


def test_frozen_regression_value():
    # frozen from this implementation; guards cross-platform drift
    assert RngStream(0x123456789ABCDEF).next_uint64() == 0x157A3807A48FAA9D


def test_same_seed_same_sequence():
    a, b = RngStream(314), RngStream(314)
    assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]


def test_value_is_function_of_seed_and_position():
    a = RngStream(9)
    for _ in range(7):
        a.next_uint64()
    # jumping straight to position 7 yields the same next value
    assert RngStream(9, position=7).next_uint64() == a.next_uint64()


def test_negative_position_rejected():
    with pytest.raises(ValueError):
        RngStream(1, position=-1)


def test_child_streams_are_stable_and_distinct():
    base = RngStream(77)
    first = base.child("init").next_uint64()
    base.next_uint64()  # advancing the parent must not move its children
    assert base.child("init").next_uint64() == first
    assert base.child("batches").next_uint64() != first
    assert base.child("init").child("step1").next_uint64() != first


def test_block_matches_scalar_path():
    for seed in range(20):
        block = RngStream(seed).uint64_block(33)
        scalar = RngStream(seed)
        assert block.dtype == np.uint64
        assert list(map(int, block)) == [scalar.next_uint64() for _ in range(33)]


def test_block_advances_position():
    r = RngStream(3)
    r.uint64_block(10)
    tail = RngStream(3)
    tail.uint64_block(5)
    assert r.next_uint64() == RngStream(3, position=10).next_uint64()
    assert tail.position == 5


def test_uniform_range_and_mean():
    r = RngStream(2024)
    draws = r.uniform_block(10_000)
    assert draws.min() >= 0.0 and draws.max() < 1.0
    # mean of U(0,1) is 0.5 with sd 1/sqrt(12*n) ~ 0.0029; 4 sigma band
    assert abs(draws.mean() - 0.5) < 0.012


def test_uniform_block_matches_scalar_uniform():
    block = RngStream(11).uniform_block(64)
    scalar = RngStream(11)
    assert list(block) == [scalar.uniform() for _ in range(64)]


def test_coin_frequency():
    r = RngStream(5)
    hits = sum(r.coin(0.2) for _ in range(10_000))
    # sd = sqrt(0.2*0.8/10000) = 0.004; 5 sigma band
    assert abs(hits / 10_000 - 0.2) < 0.02


def test_randint_bounds_and_validation():
    r = RngStream(8)
    draws = [r.randint(7) for _ in range(1000)]
    assert min(draws) == 0 and max(draws) == 6
    with pytest.raises(ValueError):
        r.randint(0)


def test_sample_distinct_and_in_range():
    r = RngStream(21)
    for _ in range(50):
        picks = r.sample(30, 12)
        assert len(picks) == 12
        assert len(set(picks)) == 12
        assert all(0 <= p < 30 for p in picks)
    assert sorted(r.sample(5, 5)) == list(range(5))  # k == n allowed
    with pytest.raises(ValueError):
        r.sample(5, 6)


def test_sample_is_uniform_enough():
    # position 0 of sample(4, 2) should hit each value ~2500/10000 times
    counts = [0, 0, 0, 0]
    r = RngStream(99)
    for _ in range(10_000):
        counts[r.sample(4, 2)[0]] += 1
    assert all(abs(c - 2500) < 200 for c in counts)

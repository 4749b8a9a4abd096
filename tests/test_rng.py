import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rnntdec import SeededRng
from rnntdec.rng import _mix64

GOLDEN = 0x9E3779B97F4A7C15


def scalar_stream(seed: int, n: int) -> list[int]:
    """The first ``n`` draws of the stream seeded with ``seed``, one scalar
    finalizer call each: draw i is mix64(seed + (i+1) * GOLDEN) mod 2**64."""
    return [_mix64((seed + i * GOLDEN) % 2**64) for i in range(1, n + 1)]


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_same_seed_same_scalar_draws(seed):
    a, b = SeededRng(seed), SeededRng(seed)
    draws = [int(a.uint64(1)[0]) for _ in range(50)]  # one draw per call
    assert draws == [int(b.uint64(1)[0]) for _ in range(50)] == scalar_stream(seed, 50)


def test_same_seed_identical_first_1e4_draws():
    a, b = SeededRng(1234), SeededRng(1234)
    np.testing.assert_array_equal(a.uint64(10_000), b.uint64(10_000))


def test_scalar_and_bulk_paths_agree():
    scalar = np.array(scalar_stream(99, 257), dtype=np.uint64)
    np.testing.assert_array_equal(scalar, SeededRng(99).uint64(257))


def test_different_seeds_differ():
    assert SeededRng(1).uint64(1) != SeededRng(2).uint64(1)


def test_uniform_range_and_mean():
    u = SeededRng(5).uniform(20_000)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    z = SeededRng(6).normal(40_000, std=2.0)
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 2.0) < 0.05


def test_normal_shape_and_determinism():
    a = SeededRng(7).normal((3, 4, 5))
    b = SeededRng(7).normal((3, 4, 5))
    assert a.shape == (3, 4, 5)
    np.testing.assert_array_equal(a, b)


def test_derive_is_stable_and_independent():
    root = SeededRng(42)
    child1 = root.derive(1)
    root.uint64(1)  # consuming draws must not change derived streams
    child2 = SeededRng(42).derive(1)
    assert child1.seed == child2.seed
    assert SeededRng(42).derive(2).seed != child1.seed


def test_permutation_is_a_permutation():
    perm = SeededRng(8).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_integers_range():
    vals = SeededRng(9).integers(1000, 3, 9)
    assert vals.min() >= 3 and vals.max() <= 8
    assert set(vals.tolist()) == set(range(3, 9))

import numpy as np
import pytest

from rnntdec import SeededRng, transducer_loss
from rnntdec.errors import DomainError, ShapeError
from rnntdec.mathops import log_softmax

from helpers import enumerate_alignment_ll, naive_lattice


def test_single_blank_path():
    logits = SeededRng(0).normal((1, 1, 4))
    res = transducer_loss(logits, [])
    expected = -log_softmax(logits[0, 0])[-1]
    np.testing.assert_allclose(res.loss, expected, atol=1e-12)


def test_hand_single_path_product():
    # T=1, U=1, uniform binary distributions: P(a|0,0)=0.5, P(blank|0,1)=0.5
    logits = np.zeros((1, 2, 2))
    res = transducer_loss(logits, [0])
    np.testing.assert_allclose(res.loss, -np.log(0.25), atol=1e-12)
    np.testing.assert_allclose(res.loss, 1.386294, atol=1e-6)


def test_matches_alignment_enumeration():
    rng = SeededRng(7)
    sizes = np.random.default_rng(1)
    for _ in range(120):
        T = int(sizes.integers(1, 5))
        U = int(sizes.integers(0, 4))
        V = int(sizes.integers(2, 4))
        logits = rng.normal((T, U + 1, V + 1), std=2.0)
        target = [int(v) for v in sizes.integers(0, V, U)]
        res = transducer_loss(logits, target)
        oracle = -enumerate_alignment_ll(log_softmax(logits), target)
        np.testing.assert_allclose(res.loss, oracle, atol=1e-8)


def test_alpha_beta_agree():
    rng = SeededRng(3)
    for trial in range(30):
        logits = rng.normal((4, 4, 4), std=1.5)
        res = transducer_loss(logits, [0, 1, 2])
        lat = res.lattice
        assert lat.log_alpha[0, 0] == 0.0
        assert abs(lat.log_likelihood - lat.log_beta[0, 0]) < 1e-9
        assert (lat.log_alpha <= 1e-12).all()
        assert (lat.log_beta <= 1e-12).all()


def test_gradient_rows_sum_to_zero():
    rng = SeededRng(4)
    logits = rng.normal((3, 3, 5), std=2.0)
    res = transducer_loss(logits, [1, 0])
    np.testing.assert_allclose(res.dlogits.sum(axis=2), 0.0, atol=1e-9)


def test_gradient_matches_finite_differences():
    rng = SeededRng(5)
    logits = rng.normal((3, 3, 4), std=1.0)
    target = [2, 0]
    res = transducer_loss(logits, target)
    h = 1e-6
    for idx in np.ndindex(logits.shape):
        bump = logits.copy()
        bump[idx] += h
        plus = transducer_loss(bump, target).loss
        bump[idx] -= 2 * h
        minus = transducer_loss(bump, target).loss
        num = (plus - minus) / (2 * h)
        assert abs(num - res.dlogits[idx]) < 1e-7


def test_loss_nonnegative_and_zero_iff_certain():
    rng = SeededRng(6)
    for _ in range(20):
        logits = rng.normal((3, 3, 4), std=3.0)
        assert transducer_loss(logits, [0, 1]).loss >= 0.0
    # near-deterministic model: pushes loss towards 0
    logits = np.full((1, 2, 2), -40.0)
    logits[0, 0, 0] = 40.0  # emit the label with probability ~1
    logits[0, 1, 1] = 40.0  # then blank with probability ~1
    assert transducer_loss(logits, [0]).loss < 1e-9


def test_empty_frames():
    res = transducer_loss(np.zeros((0, 1, 3)), [])
    assert res.loss == 0.0
    with pytest.raises(DomainError):
        transducer_loss(np.zeros((0, 2, 3)), [0])


def test_feasibility_cap():
    logits = np.zeros((2, 6, 3))
    with pytest.raises(DomainError):
        transducer_loss(logits, [0, 1, 0, 1, 0], max_symbols_per_frame=2)
    # without the cap the standard lattice allows it
    assert np.isfinite(transducer_loss(logits, [0, 1, 0, 1, 0]).loss)


def test_shape_errors():
    with pytest.raises(ShapeError):
        transducer_loss(np.zeros((2, 2)), [0])
    with pytest.raises(ShapeError):
        transducer_loss(np.zeros((2, 3, 3)), [0])
    with pytest.raises(DomainError):
        transducer_loss(np.zeros((2, 2, 3)), [5])


def assert_matches_naive_lattice(logits, target):
    res = transducer_loss(logits, target)
    alpha, beta, dlogits = naive_lattice(log_softmax(logits), target)
    np.testing.assert_allclose(res.lattice.log_alpha, alpha, rtol=0, atol=1e-9)
    np.testing.assert_allclose(res.lattice.log_beta, beta, rtol=0, atol=1e-9)
    np.testing.assert_allclose(res.dlogits, dlogits, rtol=0, atol=1e-9)


def test_column_scan_matches_naive_lattice():
    rng = SeededRng(8)
    sizes = np.random.default_rng(2)
    shapes = [(1, 0), (1, 1), (1, 4), (2, 5), (3, 0), (5, 9)]
    shapes += [(int(sizes.integers(1, 12)), int(sizes.integers(0, 12))) for _ in range(40)]
    for T, U in shapes:
        V = int(sizes.integers(2, 6))
        logits = rng.normal((T, U + 1, V + 1), std=3.0)
        target = [int(v) for v in sizes.integers(0, V, U)]
        assert_matches_naive_lattice(logits, target)


def test_column_scan_long_blank_runs_keep_precision():
    # Sharp logits over a long grid: the blank runs' cumulative sums reach
    # thousands of nats, far from the cell values the scan subtracts them from.
    sizes = np.random.default_rng(3)
    T, U, V = 140, 35, 5
    logits = sizes.uniform(-40.0, 40.0, (T, U + 1, V + 1))
    target = [int(v) for v in sizes.integers(0, V, U)]
    assert_matches_naive_lattice(logits, target)

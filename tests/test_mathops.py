import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntdec import layer_norm, log_softmax, sigmoid, swish
from rnntdec.errors import ShapeError
from rnntdec.mathops import logaddexp

from helpers import fresh_log_softmax, masked_sigmoid, vector_layer_norm


class TestLayerNorm:
    def test_constant_input_goes_to_zero(self):
        x = np.full(6, 3.7)
        out = layer_norm(x, np.ones(6), np.zeros(6))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_already_normalized_with_zero_eps(self):
        x = np.array([1.0, -1.0])
        out = layer_norm(x, np.ones(2), np.zeros(2), eps=0.0)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-12)

    def test_matches_two_pass_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        gamma = np.array([1.5, 0.5, 2.0])
        beta = np.array([0.1, -0.2, 0.3])
        eps = 1e-6
        # two-pass oracle: explicit mean then explicit population variance
        mean = sum(x) / len(x)
        var = sum((v - mean) ** 2 for v in x) / len(x)
        expected = np.array(
            [(v - mean) / np.sqrt(var + eps) * g + b for v, g, b in zip(x, gamma, beta)]
        )
        np.testing.assert_allclose(layer_norm(x, gamma, beta, eps), expected, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros(3), np.zeros(2), np.zeros(3))

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12))
    def test_standardizes_nonconstant_inputs(self, values):
        x = np.array(values)
        if np.ptp(x) < 1e-3 * max(1.0, np.abs(x).max()):
            return
        out = layer_norm(x, np.ones_like(x), np.zeros_like(x), eps=0.0)
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-6


class TestSwish:
    def test_zero_fixed_point(self):
        assert swish(np.array([0.0]))[0] == 0.0

    def test_asymptote(self):
        assert abs(swish(np.array([20.0]))[0] - 20.0) < 1e-6

    def test_scalar_value(self):
        # swish(1) = 1 / (1 + e^-1)
        expected = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(swish(np.array([1.0]))[0], expected, atol=1e-12)
        np.testing.assert_allclose(expected, 0.731059, atol=1e-6)

    def test_large_negative_is_stable(self):
        out = swish(np.array([-1000.0]))
        assert np.isfinite(out).all() and abs(out[0]) < 1e-6


ORACLE_DTYPES = [np.float64, np.float32]
ORACLE_SIZES = [8, 32, 320, 333]


def oracle_inputs(D, dtype, scales):
    """64 random D-vectors, cycling through ``scales`` for their magnitude."""
    rng = np.random.default_rng(D)
    scale = np.resize(np.asarray(scales, dtype=np.float64), 64)[:, None]
    return (rng.normal(size=(64, D)) * scale).astype(dtype)


class TestSameBitsAsOracles:
    """The row-wise forms give exactly the bits of the oracles in helpers.py,
    and every row of a batched call equals the call on that row alone."""

    @pytest.mark.parametrize("dtype", ORACLE_DTYPES)
    @pytest.mark.parametrize("D", ORACLE_SIZES)
    def test_layer_norm(self, D, dtype):
        X = oracle_inputs(D, dtype, [0.01, 1.0, 3.0, 100.0])
        gamma, beta = np.random.default_rng(D + 1).normal(size=(2, D)).astype(dtype)
        for x in X:
            np.testing.assert_array_equal(layer_norm(x, gamma, beta), vector_layer_norm(x, gamma, beta))
        batch = layer_norm(X, gamma, beta)
        assert batch.shape == X.shape and batch.dtype == X.dtype
        for row, x in zip(batch, X):
            np.testing.assert_array_equal(row, layer_norm(x, gamma, beta))

    @pytest.mark.parametrize("dtype", ORACLE_DTYPES)
    @pytest.mark.parametrize("D", ORACLE_SIZES)
    def test_sigmoid(self, D, dtype):
        X = oracle_inputs(D, dtype, [1.0, 5.0, 30.0, 1000.0])
        for x in X:
            np.testing.assert_array_equal(sigmoid(x), masked_sigmoid(x))
        batch = sigmoid(X)
        assert batch.dtype == X.dtype
        for row, x in zip(batch, X):
            np.testing.assert_array_equal(row, sigmoid(x))

    @pytest.mark.parametrize("dtype", ORACLE_DTYPES)
    @pytest.mark.parametrize("shape", [(9,), (1,), (7, 6), (3, 4097), (14, 5, 6)],
                             ids=["vector", "one-class", "batch", "wide-batch", "grid"])
    def test_log_softmax(self, shape, dtype):
        rng = np.random.default_rng(len(shape) * 10 + shape[-1])
        x = (rng.normal(size=shape) * rng.choice([0.1, 3.0, 300.0], size=shape)).astype(dtype)
        before = x.copy()
        out = log_softmax(x)
        expected = fresh_log_softmax(x)
        assert out.dtype == expected.dtype == x.dtype and out.shape == x.shape
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(x, before)  # the caller's array is untouched
        assert not np.shares_memory(out, x)

    def test_log_softmax_of_a_read_only_view(self):
        x = np.arange(24.0).reshape(2, 3, 4).transpose(1, 0, 2)
        x.setflags(write=False)
        np.testing.assert_array_equal(log_softmax(x), fresh_log_softmax(x))

    @pytest.mark.parametrize("dtype", ["i1", "i2", "i4", "i8"])
    def test_log_softmax_of_integers_returns_floats(self, dtype):
        x = np.array([[1, 2, 3, 0], [5, 5, 0, 2]], dtype=dtype)
        out = log_softmax(x)
        expected = fresh_log_softmax(x)
        assert out.dtype.kind == "f" and out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(x, [[1, 2, 3, 0], [5, 5, 0, 2]])

    def test_layer_norm_rejects_a_mismatched_row_length(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros((4, 3)), np.ones(4), np.zeros(4))


class TestLogSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(log_softmax(np.zeros(2)), -np.log(2.0), atol=1e-15)

    def test_overflow_guard(self):
        out = log_softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert abs(out[0]) < 1e-12

    def test_matches_high_precision_oracle(self):
        x = [1.0, 2.0, 3.0]
        with mpmath.workdps(50):
            denom = mpmath.log(sum(mpmath.e**v for v in x))
            expected = np.array([float(v - denom) for v in x])
        np.testing.assert_allclose(log_softmax(np.array(x)), expected, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(ShapeError):
            log_softmax(np.array([]))

    @settings(max_examples=200)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=16))
    def test_exponentials_sum_to_one(self, values):
        out = log_softmax(np.array(values))
        assert abs(np.exp(out).sum() - 1.0) <= 1e-12


def bits(x):
    """Bit patterns of float64 values, every NaN mapped to one pattern."""
    x = np.array(x, dtype=np.float64)
    return np.where(np.isnan(x), np.float64(np.nan), x).view(np.int64)


# np.logaddexp's own formula gives other last bits on some pairs: 69 of these 200,000
RANDOM = np.random.default_rng(4).uniform(-60.0, 0.0, size=(2, 200_000))
NP_DIFFERS = RANDOM[:, np.logaddexp(*RANDOM) != logaddexp(*RANDOM)]
SPECIAL = [0.0, -0.0, -np.inf, np.inf, np.nan, -1e-300, -745.2, -800.0, -1e308, 5e-324]


class TestLogaddexp:
    """``logaddexp`` on arrays is the scalar formula elementwise, bit for bit."""

    @given(pairs=st.lists(st.tuples(st.one_of(st.floats(), st.sampled_from(SPECIAL)),
                                    st.one_of(st.floats(), st.sampled_from(SPECIAL))),
                          min_size=1, max_size=30),
           picks=st.lists(st.integers(0, 10**6), max_size=10))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_array_bit_equal_to_scalar_calls(self, pairs, picks):
        pairs += [(a, a) for a, _ in pairs]  # equal operands
        pairs += [(a, a - 1e3) for a, _ in pairs if np.isfinite(a)]  # large gaps
        pairs += [tuple(NP_DIFFERS[:, k % NP_DIFFERS.shape[1]]) for k in picks]
        a, b = np.array(pairs).T
        assert np.array_equal(bits(logaddexp(a, b)), bits([logaddexp(x, y) for x, y in pairs]))

    def test_pairs_where_np_logaddexp_differs(self):
        a, b = NP_DIFFERS
        assert a.size > 0
        assert np.array_equal(bits(logaddexp(a, b)), bits([logaddexp(x, y) for x, y in zip(a, b)]))
        assert not np.array_equal(bits(logaddexp(a, b)), bits(np.logaddexp(a, b)))

    def test_minus_inf_gives_the_other_operand_and_nan_propagates(self):
        for x in (-0.0, 0.0, -3.5, -np.inf, np.inf):
            assert bits(logaddexp(-np.inf, x)) == bits(x) and bits(logaddexp(x, -np.inf)) == bits(x)
        for x in (-np.inf, -1.0, 0.0):
            assert np.isnan(logaddexp(np.nan, x)) and np.isnan(logaddexp(x, np.nan))
        assert type(logaddexp(-1.0, -2.0)) is np.float64


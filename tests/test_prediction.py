import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntdec import (
    SeededRng,
    embed,
    predict_multi_head,
    predict_single_head,
    prediction_forward,
)
import rnntdec.backprop
from rnntdec.errors import ConfigError, DomainError, ShapeError
from rnntdec.mathops import layer_norm, swish
from rnntdec.toy import Utterance
from rnntdec.train import utterance_loss_grads

from helpers import tiny_config, tiny_model, window_of


def window(cfg, labels):
    """One-row recent-first id matrix of the window after ``labels``."""
    return np.array([window_of(labels, cfg)[::-1]])


class TestEmbed:
    def test_fresh_state_embeds_to_zero(self):
        cfg = tiny_config(history_len=3)
        w = tiny_model(cfg)
        out = embed(window(cfg, []), w)
        assert out.shape == (1, 3, cfg.d_e)
        assert not out.any()

    def test_single_label_gather(self):
        cfg = tiny_config("stateless1emb")
        w = tiny_model(cfg)
        w.emb[2] = np.arange(cfg.d_e)
        out = embed(window(cfg, [2]), w)
        np.testing.assert_array_equal(out[0, 0], np.arange(cfg.d_e))

    def test_two_labels_recent_first(self):
        cfg = tiny_config(history_len=2)
        w = tiny_model(cfg)
        out = embed(window(cfg, [1, 0]), w)[0]  # 0 is most recent
        np.testing.assert_array_equal(out[0], w.emb[0])
        np.testing.assert_array_equal(out[1], w.emb[1])

    def test_out_of_range_id(self):
        cfg = tiny_config()
        w = tiny_model(cfg)
        for bad in (99, -1, cfg.vocab_ext):
            with pytest.raises(DomainError):
                embed(np.array([[bad, 0]]), w)


class TestSingleHead:
    def test_zero_positions_give_zero(self):
        E = SeededRng(0).normal((3, 4))
        out = predict_single_head(E, np.zeros((3, 4)))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_unit_vector_self_position(self):
        E = np.array([[1.0, 0.0]])
        out = predict_single_head(E, E.copy())
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_hand_evaluated_instance(self):
        # weights: dot(E_0,P_0)=1, dot(E_1,P_1)=0 -> output (1/2)*1*[1,0] = [0.5, 0]
        E = np.array([[1.0, 0.0], [0.0, 2.0]])
        P = np.array([[1.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(predict_single_head(E, P), [0.5, 0.0], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            predict_single_head(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_degree_two_homogeneity(self):
        rng = SeededRng(5)
        E = rng.normal((4, 6))
        P = rng.normal((4, 6))
        base = predict_single_head(E, P)
        scaled = predict_single_head(3.0 * E, P)
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-9)


class TestMultiHead:
    def test_identical_heads_collapse_to_single(self):
        rng = SeededRng(1)
        E = rng.normal((3, 5))
        P = rng.normal((3, 5))
        stacked = np.stack([P, P, P])
        np.testing.assert_allclose(
            predict_multi_head(E, stacked), predict_single_head(E, P), atol=1e-12
        )

    def test_opposite_heads_cancel(self):
        rng = SeededRng(2)
        E = rng.normal((3, 5))
        P = rng.normal((1, 3, 5))
        stacked = np.concatenate([P, -P])
        np.testing.assert_allclose(predict_multi_head(E, stacked), 0.0, atol=1e-12)

    def test_hand_evaluated_instance(self):
        # weights 1 and 3 on the same embedding: (1/2)(1+3)[1,1] = [2,2]
        E = np.array([[1.0, 1.0]])
        P = np.array([[[1.0, 0.0]], [[0.0, 3.0]]])
        np.testing.assert_allclose(predict_multi_head(E, P), [2.0, 2.0], atol=1e-12)

    def test_single_head_is_bit_exact_special_case(self):
        rng = SeededRng(3)
        E = rng.normal((4, 6))
        P = rng.normal((4, 6))
        multi = predict_multi_head(E, P[None, :, :])
        single = predict_single_head(E, P)
        np.testing.assert_array_equal(multi, single)

    def test_equals_mean_over_heads(self):
        rng = SeededRng(4)
        E = rng.normal((3, 4))
        P = rng.normal((5, 3, 4))
        per_head = np.stack([predict_single_head(E, P[h]) for h in range(5)])
        np.testing.assert_allclose(predict_multi_head(E, P), per_head.mean(axis=0), atol=1e-12)

    @settings(max_examples=50)
    @given(st.permutations(list(range(4))))
    def test_head_permutation_invariance(self, perm):
        rng = SeededRng(6)
        E = rng.normal((3, 5))
        P = rng.normal((4, 3, 5))
        base = predict_multi_head(E, P)
        permuted = predict_multi_head(E, P[list(perm)])
        np.testing.assert_allclose(permuted, base, atol=1e-12)


class TestPredictionForward:
    def test_reduced_fresh_state_is_swish_layernorm_of_bias(self):
        cfg = tiny_config()
        w = tiny_model(cfg, seed=9)
        w.proj_b[:] = SeededRng(10).normal(cfg.d_e)
        out = prediction_forward(window(cfg, []), w, cfg)[0]
        expected = swish(layer_norm(w.proj_b, w.ln_gamma, w.ln_beta))
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_reduced_output_dim_is_d_e_for_any_context(self):
        for n, h in [(1, 1), (3, 2), (6, 4)]:
            cfg = tiny_config(history_len=n, num_heads=h)
            w = tiny_model(cfg)
            assert prediction_forward(window(cfg, [0, 1, 2]), w, cfg).shape == (1, cfg.d_e)

    def test_stateless_is_pure_lookup(self):
        cfg = tiny_config("stateless1emb")
        w = tiny_model(cfg)
        out = prediction_forward(window(cfg, [3]), w, cfg)[0]
        np.testing.assert_array_equal(out, w.emb[3])

    def test_concat_orders_recent_first(self):
        cfg = tiny_config("concat2emb")
        w = tiny_model(cfg)
        out = prediction_forward(window(cfg, [1, 0]), w, cfg)[0]
        assert out.shape == (2 * cfg.d_e,)
        np.testing.assert_array_equal(out[: cfg.d_e], w.emb[0])
        np.testing.assert_array_equal(out[cfg.d_e :], w.emb[1])

    def test_lstm_fresh_state_is_zero(self):
        cfg = tiny_config("lstm")
        w = tiny_model(cfg)
        out = prediction_forward(window(cfg, []), w, cfg)[0]
        np.testing.assert_array_equal(out, np.zeros(cfg.lstm_proj))

    def test_lstm_output_dim(self):
        cfg = tiny_config("lstm")
        w = tiny_model(cfg)
        assert prediction_forward(window(cfg, [1, 2]), w, cfg).shape == (1, cfg.lstm_proj)

    def test_variant_mismatch_is_config_error(self):
        cfg = tiny_config()
        w = tiny_model(cfg)
        other = tiny_config("stateless1emb")
        with pytest.raises(ConfigError):
            prediction_forward(window(other, []), w, other)

    @pytest.mark.parametrize("variant", ["reduced", "stateless1emb", "concat2emb", "lstm"])
    def test_no_windows_give_no_rows(self, variant):
        cfg = tiny_config(variant)
        ids = np.zeros((0, cfg.history_len), dtype=np.intp)
        assert prediction_forward(ids, tiny_model(cfg), cfg).shape == (0, cfg.pn_out_dim)

    @pytest.mark.parametrize("variant", ["reduced", "stateless1emb", "concat2emb", "lstm"])
    def test_training_grid_uses_the_decoder_forward(self, variant, monkeypatch):
        # training must score exactly the prediction outputs decoding produces
        cfg = tiny_config(variant, tied=True)
        w = tiny_model(cfg, seed=4)
        target = [1, 3, 0, 2, 2, 1]
        frames = SeededRng(5).normal((4, cfg.d_enc))
        outputs = []

        def recorded(*args, **kwargs):
            outputs.append(prediction_forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(rnntdec.backprop, "prediction_forward", recorded)
        utterance_loss_grads(Utterance(frames, target), w, cfg)
        (g_stack,) = outputs
        assert g_stack.shape == (len(target) + 1, cfg.pn_out_dim)
        for u in range(len(target) + 1):
            np.testing.assert_array_equal(
                g_stack[u], prediction_forward(window(cfg, target[:u]), w, cfg)[0])

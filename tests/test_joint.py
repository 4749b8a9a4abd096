from dataclasses import replace

import numpy as np
import pytest

from rnntdec import SeededRng, init_weights, joint_forward, output_logits, project_prediction
from rnntdec.errors import ShapeError
from rnntdec.mathops import log_softmax
from rnntdec.weights import trainable_tensors

from helpers import tiny_config, tiny_model


def joint(f_t, g_u, w):
    """The joint on a raw frame and raw prediction output(s)."""
    return joint_forward(f_t @ w.enc_w, project_prediction(g_u, w), w)


def test_zero_model_gives_uniform_distribution():
    cfg = tiny_config()
    w = tiny_model(cfg)
    for t in trainable_tensors(w).values():
        t[:] = 0.0
    logits = joint(np.ones(cfg.d_enc), np.ones(cfg.pn_out_dim), w)
    np.testing.assert_array_equal(logits, np.zeros(cfg.vocab_size + 1))
    np.testing.assert_allclose(
        np.exp(log_softmax(logits)), np.full(cfg.vocab_size + 1, 1.0 / (cfg.vocab_size + 1)), atol=1e-12
    )


def test_one_hot_hidden_selects_embedding_column_when_tied():
    cfg = tiny_config(tied=True)
    w = tiny_model(cfg, seed=4)
    w.out_b[:] = 0.0
    k = 2
    h = np.zeros(cfg.d_h)
    h[k] = 1.0
    logits = output_logits(h, w)
    for v in range(cfg.vocab_size):
        assert logits[v] == w.emb[v, k]


def test_tied_equals_untied_with_copied_output_rows():
    tied_cfg = tiny_config(tied=True)
    untied_cfg = replace(tied_cfg, tied=False)
    tied = init_weights(tied_cfg, seed=8)
    untied = init_weights(untied_cfg, seed=8)
    untied.out_w[:] = tied.emb[: tied_cfg.vocab_size]
    rng = SeededRng(3)
    f = rng.normal(tied_cfg.d_enc)
    g = rng.normal(tied_cfg.pn_out_dim)
    np.testing.assert_array_equal(joint(f, g, tied), joint(f, g, untied))


def test_blank_is_last_and_uses_blank_row():
    cfg = tiny_config()
    w = tiny_model(cfg, seed=5)
    h = SeededRng(9).normal(cfg.d_h)
    logits = output_logits(h, w)
    assert logits.shape == (cfg.vocab_size + 1,)
    np.testing.assert_allclose(
        logits[cfg.blank_id], w.blank_w @ h + w.out_b[cfg.blank_id], atol=1e-15
    )


def test_mutating_embedding_changes_tied_logit():
    cfg = tiny_config(tied=True)
    w = tiny_model(cfg, seed=6)
    h = SeededRng(1).normal(cfg.d_h)
    before = output_logits(h, w)
    w.emb[1] += 1.0
    after = output_logits(h, w)
    np.testing.assert_allclose(after[1] - before[1], h.sum(), atol=1e-12)
    np.testing.assert_array_equal(np.delete(after, 1), np.delete(before, 1))


def test_dim_mismatch():
    cfg = tiny_config()
    w = tiny_model(cfg)
    with pytest.raises(ShapeError):
        joint_forward(np.zeros(cfg.d_h + 1), np.zeros(cfg.d_h), w)
    with pytest.raises(ShapeError):
        joint_forward(np.zeros(cfg.d_h), np.zeros(cfg.d_h + 1), w)
    with pytest.raises(ShapeError):
        project_prediction(np.zeros(cfg.pn_out_dim + 1), w)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("variant", ["reduced", "stateless1emb", "concat2emb", "lstm"])
def test_batched_joint_rows_equal_single_vector_joint(variant, dtype):
    # beam search scores a whole frontier at once; its n-best lists stay
    # bit-identical only if every batch row is the single-vector result
    rng = np.random.default_rng(7)
    for trial in range(25):
        d = int(rng.integers(2, 40))
        cfg = tiny_config(variant, vocab_size=int(rng.integers(2, 70)), d_e=d, d_h=d,
                          d_enc=int(rng.integers(1, 40)), tied=bool(trial % 2),
                          **({"lstm_proj": d} if variant == "lstm" else {}))
        w = init_weights(cfg, seed=trial, dtype=dtype)
        f_t = rng.standard_normal(cfg.d_enc).astype(dtype)
        G = rng.standard_normal((int(rng.integers(1, 10)), cfg.pn_out_dim)).astype(dtype)
        batch = joint(f_t, G, w)
        assert batch.shape == (G.shape[0], cfg.vocab_size + 1) and batch.dtype == dtype
        for g, row in zip(G, batch):
            np.testing.assert_array_equal(row, joint(f_t, g, w))


def test_batched_joint_dim_mismatch():
    cfg = tiny_config()
    w = tiny_model(cfg)
    with pytest.raises(ShapeError):
        project_prediction(np.zeros((3, cfg.pn_out_dim + 1)), w)
    with pytest.raises(ShapeError):
        project_prediction(np.zeros((2, 3, cfg.pn_out_dim)), w)
    with pytest.raises(ShapeError):
        joint_forward(np.zeros(cfg.d_h), np.zeros((3, cfg.d_h + 1)), w)
    with pytest.raises(ShapeError):
        joint_forward(np.zeros((2, 3, cfg.d_h)), np.zeros(cfg.d_h), w)

"""Finite-difference verification of the hand-derived backward passes."""

from dataclasses import replace

import numpy as np
import pytest

from rnntdec import DecoderConfig, SeededRng, init_weights
from rnntdec.backprop import forward_grid, target_windows
from rnntdec.lattice import transducer_loss
from rnntdec.toy import Utterance
from rnntdec.train import utterance_loss_grads
from rnntdec.weights import init_encoder_stub, trainable_tensors

from helpers import (
    assert_grads_close,
    fd_gradients,
    loss_objective,
    pad_row_mask,
    tiny_config,
)

D_FEAT = 4


def build_case(cfg, seed=0, T=3, target=(1, 0)):
    w = init_weights(cfg, seed=seed)
    # moderate operating point: tied embeddings enter the loss at fourth
    # order, so fresh-init scale inflates central-difference truncation error
    for arr in trainable_tensors(w).values():
        arr *= 0.5
    w.enc_stub = init_encoder_stub(D_FEAT, cfg.d_enc, seed + 1)
    feats = SeededRng(seed + 2).normal((T, D_FEAT))
    return w, Utterance(feats, list(target))


VARIANT_CONFIGS = [
    pytest.param(tiny_config("reduced", tied=True, history_len=3, num_heads=2), id="reduced-tied"),
    pytest.param(
        tiny_config("reduced", d_h=6, history_len=2, num_heads=1), id="reduced-untied"
    ),
    pytest.param(
        tiny_config("reduced", tied=True, history_len=2, position_trainable=True),
        id="reduced-trainable-positions",
    ),
    pytest.param(tiny_config("stateless1emb", tied=True), id="stateless-tied"),
    pytest.param(tiny_config("concat2emb", d_h=6), id="concat2-untied"),
    pytest.param(tiny_config("lstm", d_h=6, history_len=3), id="lstm"),
]


@pytest.mark.parametrize("cfg", VARIANT_CONFIGS)
def test_all_tensors_match_finite_differences(cfg):
    w, utt = build_case(cfg)
    _, grads = utterance_loss_grads(utt, w, cfg)
    tensors = trainable_tensors(w)
    skip = pad_row_mask(w)
    numeric = fd_gradients(loss_objective(utt, w, cfg), tensors, skip=skip)
    assert_grads_close(grads, numeric, rtol=1e-4, skip=skip)


def test_frozen_positions_gradient_exactly_zero():
    cfg = tiny_config("reduced", tied=True)
    assert not cfg.position_trainable
    w, utt = build_case(cfg)
    _, grads = utterance_loss_grads(utt, w, cfg)
    assert not grads["positions"].any()
    assert "positions" not in trainable_tensors(w)


def test_pad_row_gradient_exactly_zero():
    for variant in ("reduced", "stateless1emb", "concat2emb", "lstm"):
        cfg = tiny_config(variant)
        w, utt = build_case(cfg, T=2, target=(1,))
        _, grads = utterance_loss_grads(utt, w, cfg)
        assert not grads["emb"][cfg.pad_id].any()


def test_tied_gradient_equals_untied_sum():
    """With out_w frozen at emb rows, tied d(emb) == untied d(emb) + d(out_w)."""
    tied_cfg = tiny_config("reduced", tied=True)
    untied_cfg = replace(tied_cfg, tied=False)
    tied_w, utt = build_case(tied_cfg)
    untied_w, _ = build_case(untied_cfg)
    # put the untied model at the same point in weight space
    for name, arr in trainable_tensors(tied_w).items():
        trainable_tensors(untied_w)[name][:] = arr
    untied_w.out_w[:] = tied_w.emb[: tied_cfg.vocab_size]

    loss_t, grads_t = utterance_loss_grads(utt, tied_w, tied_cfg)
    loss_u, grads_u = utterance_loss_grads(utt, untied_w, untied_cfg)
    np.testing.assert_allclose(loss_t, loss_u, atol=1e-12)
    combined = grads_u["emb"].copy()
    combined[: tied_cfg.vocab_size] += grads_u["out_w"]
    np.testing.assert_allclose(grads_t["emb"], combined, atol=1e-12)


def test_encoder_stub_gradient():
    cfg = tiny_config("reduced", tied=True)
    w, utt = build_case(cfg)
    _, grads = utterance_loss_grads(utt, w, cfg)
    stub_tensors = {"enc_stub_w": w.enc_stub.w, "enc_stub_b": w.enc_stub.b}
    numeric = fd_gradients(loss_objective(utt, w, cfg), stub_tensors)
    assert_grads_close({k: grads[k] for k in stub_tensors}, numeric, rtol=1e-4)


def test_repeated_labels_accumulate():
    # the same embedding row appears at several history slots and grid rows
    cfg = tiny_config("reduced", tied=True, history_len=3)
    w, utt = build_case(cfg, T=4, target=(2, 2, 2))
    _, grads = utterance_loss_grads(utt, w, cfg)
    skip = pad_row_mask(w)
    numeric = fd_gradients(loss_objective(utt, w, cfg), {"emb": w.emb}, skip=skip)
    assert_grads_close({"emb": grads["emb"]}, numeric, rtol=1e-4, skip=skip)


def test_grid_forward_matches_stepwise_joint():
    from rnntdec.nets import joint_forward, prediction_forward, project_prediction

    cfg = tiny_config("lstm")
    w = init_weights(cfg, seed=4)
    frames = SeededRng(5).normal((3, cfg.d_enc))
    target = [0, 2]
    G = prediction_forward(target_windows(target, cfg), w, cfg) @ w.pred_w
    logits, _ = forward_grid(frames, G, w)
    window = (cfg.pad_id,) * cfg.history_len  # oldest label first
    for u in range(len(target) + 1):
        g = prediction_forward(np.array([window[::-1]]), w, cfg)[0]
        for t in range(3):
            np.testing.assert_allclose(
                logits[t, u], joint_forward(frames[t] @ w.enc_w, project_prediction(g, w), w), atol=1e-12
            )
        if u < len(target):
            window = window[1:] + (target[u],)

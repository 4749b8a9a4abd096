import importlib
import json

import numpy as np
import pytest

from rnntdec import DecoderConfig, ToyTaskSpec, make_toy_dataset, toy_encode
from rnntdec.backprop import zero_grads
from rnntdec.embr import EmbrParams, utterance_risk_grads
from rnntdec.errors import ConfigError, DivergenceError, ShapeError
from rnntdec.toy import Utterance
from rnntdec.train import Hyperparams, embr_phase, train, utterance_loss_grads
from rnntdec.weights import EncoderStub, init_encoder_stub, init_weights, trainable_tensors

from helpers import tiny_config


def small_task(**kw):
    base = dict(
        vocab_size=3, min_target_len=1, max_target_len=3,
        frames_per_label_min=2, frames_per_label_max=3,
        feature_dim=4, noise_std=0.05, dataset_size=24, dev_fraction=0.25,
    )
    base.update(kw)
    return ToyTaskSpec(**base)


def toy_decoder():
    return tiny_config(
        "reduced", vocab_size=3, d_e=8, d_h=8, d_enc=8,
        history_len=2, num_heads=2, tied=True, max_symbols_per_frame=4,
    )


class TestDataset:
    def test_deterministic(self):
        a = make_toy_dataset(small_task(), seed=7)
        b = make_toy_dataset(small_task(), seed=7)
        for ua, ub in zip(a[0] + a[1], b[0] + b[1]):
            np.testing.assert_array_equal(ua.features, ub.features)
            assert ua.labels == ub.labels

    def test_split_sizes_and_disjointness(self):
        spec = small_task()
        train_set, dev_set = make_toy_dataset(spec, seed=1)
        assert len(train_set) + len(dev_set) == spec.dataset_size
        assert len(dev_set) == round(spec.dataset_size * spec.dev_fraction)

    def test_zero_noise_gives_exact_one_hot_runs(self):
        spec = small_task(noise_std=0.0, frames_per_label_min=2, frames_per_label_max=2)
        train_set, _ = make_toy_dataset(spec, seed=3)
        for utt in train_set:
            expected = np.repeat(np.eye(spec.feature_dim)[utt.labels], 2, axis=0)
            np.testing.assert_array_equal(utt.features, expected)

    def test_frame_counts_within_range(self):
        spec = small_task(noise_std=0.0)
        train_set, _ = make_toy_dataset(spec, seed=5)
        for utt in train_set:
            assert 2 * len(utt.labels) <= utt.features.shape[0] <= 3 * len(utt.labels)

    def test_no_adjacent_repeats(self):
        train_set, dev_set = make_toy_dataset(small_task(), seed=11)
        for utt in train_set + dev_set:
            assert all(a != b for a, b in zip(utt.labels, utt.labels[1:]))

    def test_feature_dim_must_fit_vocab(self):
        with pytest.raises(ConfigError):
            small_task(vocab_size=5, feature_dim=4)


class TestToyEncode:
    def test_zero_weights(self):
        stub = EncoderStub(np.zeros((4, 6)), np.zeros(6))
        out = toy_encode(np.ones((3, 4)), stub)
        np.testing.assert_array_equal(out, np.zeros((3, 6)))

    def test_identity_block_passthrough(self):
        w = np.concatenate([np.eye(4), np.zeros((4, 2))], axis=1)
        stub = EncoderStub(w, np.zeros(6))
        feats = np.arange(12.0).reshape(3, 4)
        out = toy_encode(feats, stub)
        np.testing.assert_array_equal(out[:, :4], feats)
        np.testing.assert_array_equal(out[:, 4:], 0.0)

    def test_dim_mismatch(self):
        stub = EncoderStub(np.zeros((4, 6)), np.zeros(6))
        with pytest.raises(ShapeError):
            toy_encode(np.ones((3, 5)), stub)


class TestTrain:
    def test_zero_lr_leaves_weights_unchanged(self):
        cfg = toy_decoder()
        hp = Hyperparams(lr=0.0, momentum=0.9, batch_size=4, epochs=1, seed=0)
        res = train(cfg, small_task(), hp)
        fresh = train(cfg, small_task(), hp)  # deterministic: same init
        for name, arr in trainable_tensors(res.weights).items():
            np.testing.assert_array_equal(arr, trainable_tensors(fresh.weights)[name])
        # and identical to the seed-derived init
        from rnntdec.rng import SeededRng
        init = init_weights(cfg, seed=SeededRng(0).derive(2).seed)
        np.testing.assert_array_equal(res.weights.emb, init.emb)

    def test_single_example_overfit_monotone(self):
        cfg = toy_decoder()
        w = init_weights(cfg, seed=1)
        w.enc_stub = init_encoder_stub(4, cfg.d_enc, 2)
        task = small_task(noise_std=0.0)
        utt = make_toy_dataset(task, seed=9)[0][0]
        from rnntdec.train import SgdMomentum
        opt = SgdMomentum(lr=0.01, momentum=0.0, grad_clip=1.0)
        losses = []
        for _ in range(12):
            loss, grads = utterance_loss_grads(utt, w, cfg)
            losses.append(loss)
            opt.step(trainable_tensors(w), grads)
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises_with_diagnostic(self):
        cfg = toy_decoder()
        hp = Hyperparams(lr=1e100, momentum=0.9, batch_size=4, epochs=3, seed=0, grad_clip=0.0)
        with pytest.raises(DivergenceError, match="diverged"):
            train(cfg, small_task(), hp)

    def test_metrics_jsonl_schema(self):
        # the records ``rnntdec train`` writes, one JSON line each
        cfg = toy_decoder()
        hp = Hyperparams(lr=0.05, momentum=0.9, batch_size=8, epochs=2, seed=0)
        res = train(cfg, small_task(), hp)
        assert len(res.metrics) == 2
        for i, record in enumerate(res.metrics):
            entry = json.loads(json.dumps(record.to_dict()))
            assert set(entry) == {"epoch", "loss", "dev_token_error_rate", "wall_s"}
            assert entry["epoch"] == i

    def test_vocab_mismatch_rejected(self):
        cfg = toy_decoder()
        with pytest.raises(ConfigError):
            train(cfg, small_task(vocab_size=4), Hyperparams(epochs=1))


class TestEmbrStep:
    def test_single_reference_hypothesis_is_zero_risk_attractor(self):
        cfg = toy_decoder()
        w = init_weights(cfg, seed=3)
        w.enc_stub = init_encoder_stub(4, cfg.d_enc, 4)
        utt = make_toy_dataset(small_task(), seed=2)[0][0]
        risk, grads = utterance_risk_grads(utt, [tuple(utt.labels)], w, cfg)
        assert risk == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_update_to_non_finite_weights_raises_divergence(self, monkeypatch):
        cfg = toy_decoder()
        w = init_weights(cfg, seed=3)
        w.enc_stub = init_encoder_stub(4, cfg.d_enc, 4)
        grads = zero_grads(w)
        grads["proj_b"][0] = np.inf
        # the package exports the function ``train`` under the module's name
        monkeypatch.setattr(importlib.import_module("rnntdec.train"), "embr_batch_grads",
                            lambda *args: (0.5, grads))
        utts = make_toy_dataset(small_task(), seed=2)[0][:1]
        params = EmbrParams(beam_width=2, steps=1, batch_size=1, lr=0.5, grad_clip=0.0)
        with pytest.raises(DivergenceError, match=r"non-finite proj_b\) after the update of step 0"):
            embr_phase(w, cfg, utts, params)

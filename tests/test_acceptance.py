"""Acceptance suite: one test per release criterion.

Each test prints ``ACCEPTANCE <n>: PASS|FAIL - <summary>``; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they complete.
Criteria 8 and 9 run real training and a 10k-run latency benchmark, so the
whole module takes a few minutes.
"""

import itertools
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from rnntdec import (
    DecoderConfig,
    SeededRng,
    ToyTaskSpec,
    convert_to_lookup,
    embr_risk,
    init_weights,
    load,
    param_count,
    predict_multi_head,
    predict_single_head,
    preset,
    save,
    step_flops,
    tied_savings,
    transducer_loss,
)
from rnntdec.bench import bench_decoders
from rnntdec.config import PRESET_NAMES
from rnntdec.decoding import Hypothesis, beam_decode, window_code
from rnntdec.embr import NBestList, dev_risk, utterance_risk, utterance_risk_grads
from rnntdec.mathops import log_softmax
from rnntdec.model_io import read_archive
from rnntdec.nets import prediction_forward
from rnntdec.toy import Utterance, make_toy_dataset
from rnntdec.train import EmbrParams, Hyperparams, embr_phase, train
from rnntdec.weights import clone_weights, init_encoder_stub, trainable_tensors

from helpers import (
    assert_grads_close,
    enumerate_alignment_ll,
    enumerate_decode_paths,
    fd_gradients,
    loss_objective,
    pad_row_mask,
    tiny_config,
)


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}", file=sys.stderr, flush=True)
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary}", flush=True)


def test_criterion_01_equation_fidelity():
    with criterion(1, "multi-head averaging matches the defining equations"):
        rng = SeededRng(11)
        for n, d in [(1, 3), (3, 5), (5, 8)]:
            E = rng.normal((n, d))
            P = rng.normal((n, d))
            np.testing.assert_array_equal(
                predict_multi_head(E, P[None, :, :]), predict_single_head(E, P)
            )
        # hand-evaluated single-head instances
        E = np.array([[1.0, 0.0], [0.0, 2.0]])
        P = np.array([[1.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(predict_single_head(E, P), [0.5, 0.0], atol=1e-12)
        E1 = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(predict_single_head(E1, E1.copy()), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            predict_single_head(rng.normal((3, 4)), np.zeros((3, 4))), 0.0, atol=1e-12
        )
        # hand-evaluated multi-head instances
        E = np.array([[1.0, 1.0]])
        P2 = np.array([[[1.0, 0.0]], [[0.0, 3.0]]])
        np.testing.assert_allclose(predict_multi_head(E, P2), [2.0, 2.0], atol=1e-12)
        Eb = rng.normal((3, 5))
        Pb = rng.normal((3, 5))
        np.testing.assert_allclose(
            predict_multi_head(Eb, np.stack([Pb, Pb])), predict_single_head(Eb, Pb), atol=1e-12
        )
        np.testing.assert_allclose(
            predict_multi_head(Eb, np.stack([Pb, -Pb])), 0.0, atol=1e-12
        )


GRAD_CONFIGS = [
    tiny_config("reduced", tied=True, history_len=3, num_heads=2),
    tiny_config("reduced", d_h=6, history_len=2, num_heads=1),
    tiny_config("reduced", tied=True, history_len=2, position_trainable=True),
    tiny_config("stateless1emb", tied=True),
    tiny_config("concat2emb", d_h=6),
    tiny_config("lstm", d_h=6, history_len=3),
]


def test_criterion_02_gradient_suite():
    from rnntdec.train import utterance_loss_grads

    with criterion(2, "analytic gradients match central differences (rtol 1e-4)"):
        for cfg in GRAD_CONFIGS:
            w = init_weights(cfg, seed=0)
            for arr in trainable_tensors(w).values():
                arr *= 0.5
            w.enc_stub = init_encoder_stub(4, cfg.d_enc, 1)
            utt = Utterance(SeededRng(2).normal((4, 4)), [1, 0, 2])
            _, grads = utterance_loss_grads(utt, w, cfg)
            tensors = trainable_tensors(w)
            skip = pad_row_mask(w)
            numeric = fd_gradients(loss_objective(utt, w, cfg), tensors, h=1e-5, skip=skip)
            assert_grads_close(grads, numeric, rtol=1e-4, skip=skip)
            if cfg.variant == "reduced" and not cfg.position_trainable:
                assert not grads["positions"].any()


def test_criterion_03_loss_oracle():
    with criterion(3, "lattice loss equals brute-force alignment enumeration (1e-8)"):
        rng = SeededRng(7)
        sizes = np.random.default_rng(42)
        for _ in range(120):
            T = int(sizes.integers(1, 5))
            U = int(sizes.integers(0, 4))
            V = int(sizes.integers(2, 4))
            logits = rng.normal((T, U + 1, V + 1), std=2.0)
            target = [int(v) for v in sizes.integers(0, V, U)]
            res = transducer_loss(logits, target)
            oracle = -enumerate_alignment_ll(log_softmax(logits), target)
            assert abs(res.loss - oracle) < 1e-8


def test_criterion_04_tying_arithmetic():
    with criterion(4, "tied savings exact; preset sizes and ordering reproduced"):
        for variant in ("reduced", "stateless1emb", "concat2emb"):
            for d in (4, 6, 8):
                tied = tiny_config(variant, tied=True, d_e=d, d_h=d)
                untied = replace(tied, tied=False)
                diff = param_count(untied)["total"] - param_count(tied)["total"]
                assert diff == tied.d_h * tied.vocab_size
        small = preset("reduced_small")
        total = param_count(small)["total"]
        assert abs(total - 1.9e6) / 1.9e6 <= 0.15
        assert tied_savings(small) == 1_310_720
        totals = {name: param_count(preset(name))["total"] for name in PRESET_NAMES}
        ordering = sorted(totals, key=totals.get, reverse=True)
        assert ordering == [
            "lstm", "reduced_large", "concat2emb", "stateless1emb", "reduced_small",
        ]


def test_criterion_05_lookup_equivalence():
    with criterion(5, "lookup table bit-equals the prediction network on every context"):
        for variant, vocab in (("reduced", 8), ("concat2emb", 5), ("lstm", 4)):
            cfg = tiny_config(variant, vocab_size=vocab, history_len=2)
            w = init_weights(cfg, seed=3)
            table = convert_to_lookup(w, cfg)
            assert table.table.shape[0] == (vocab + 1) ** 2
            for ctx in itertools.product(range(cfg.vocab_ext), repeat=cfg.history_len):
                np.testing.assert_array_equal(
                    table.table[window_code(ctx, cfg.vocab_ext)],
                    prediction_forward(np.array([ctx]), w, cfg)[0],
                )


def test_criterion_06_beam_oracle():
    with criterion(6, "beam (B=64) top-1 equals exhaustive enumeration on 50 instances"):
        for trial in range(50):
            cfg = tiny_config(
                "reduced", vocab_size=2, d_e=3, d_h=3, d_enc=3,
                history_len=2, num_heads=1, tied=True, max_symbols_per_frame=2,
            )
            w = init_weights(cfg, seed=trial)
            for t in (w.emb, w.enc_w, w.pred_w):
                t *= 2.0
            w.emb[cfg.pad_id] = 0.0
            frames = SeededRng(1000 + trial).normal((1 + trial % 3, cfg.d_enc), std=1.5)
            seqs = enumerate_decode_paths(frames, w, cfg)
            oracle_best = max(seqs.items(), key=lambda kv: kv[1])
            nbest = beam_decode(frames, w, cfg, 64)
            assert nbest[0].labels == oracle_best[0]
            np.testing.assert_allclose(nbest[0].log_prob, oracle_best[1], atol=1e-9)


def test_criterion_07_embr_correctness():
    with criterion(7, "risk oracle 1e-10, risk gradient 1e-6, full chain 1e-3"):
        # two-term hand oracle, exact arithmetic
        nbest = NBestList([Hypothesis((0, 1), -0.1), Hypothesis((2, 3), -2.0)], (0, 1))
        res = embr_risk(nbest)
        e1, e2 = np.exp(-0.1), np.exp(-2.0)
        p1 = e1 / (e1 + e2)
        assert abs(res.posterior[0] - p1) < 1e-10
        assert abs(res.risk - 2.0 * (1.0 - p1)) < 1e-10
        # gradient vs finite differences on the log-probs
        h = 1e-6
        for i in range(2):
            nbest.entries[i].log_prob += h
            plus = embr_risk(nbest).risk
            nbest.entries[i].log_prob -= 2 * h
            minus = embr_risk(nbest).risk
            nbest.entries[i].log_prob += h
            assert abs((plus - minus) / (2 * h) - res.dlog_prob[i]) < 1e-6
        # full chain: risk gradient through beam candidates vs finite differences
        cfg = tiny_config("reduced", tied=True, vocab_size=3, history_len=2)
        w = init_weights(cfg, seed=2)
        w.enc_stub = init_encoder_stub(4, cfg.d_enc, 5)
        utt = Utterance(SeededRng(6).normal((3, 4)), [1, 0])
        candidates = [(1, 0), (1,), (2, 0), ()]
        risk, grads = utterance_risk_grads(utt, candidates, w, cfg)
        assert risk > 0
        tensors = trainable_tensors(w)
        skip = pad_row_mask(w)
        numeric = fd_gradients(
            lambda: utterance_risk(utt, candidates, w, cfg), tensors, skip=skip
        )
        assert_grads_close(grads, numeric, rtol=1e-3, skip=skip)


TOY_DECODER = DecoderConfig(
    variant="reduced", vocab_size=5, d_e=32, d_h=32, d_enc=32,
    history_len=2, num_heads=4, tied=True, max_symbols_per_frame=6,
)


def test_criterion_08_toy_end_to_end():
    with criterion(8, "toy training reaches <5% dev TER; EMBR non-increasing in >=4/5 seeds"):
        task = ToyTaskSpec()
        result = train(TOY_DECODER, task, Hyperparams(seed=0))
        final_ter = result.metrics[-1].dev_token_error_rate
        assert final_ter < 0.05, f"dev token error rate {final_ter}"
        params = EmbrParams()
        risk_before = dev_risk(result.dev_set, result.weights, TOY_DECODER, params)
        non_increasing = 0
        for seed in range(5):
            w = clone_weights(result.weights)
            phase = embr_phase(
                w, TOY_DECODER, result.train_set,
                EmbrParams(seed=seed), main_train_steps=result.train_steps,
            )
            assert phase.steps == max(1, result.train_steps // 10)
            risk_after = dev_risk(result.dev_set, phase.weights, TOY_DECODER, params)
            if risk_after <= risk_before + 1e-9:
                non_increasing += 1
        assert non_increasing >= 4, f"risk non-increasing in only {non_increasing}/5 seeds"


def test_criterion_09_latency_scaled(capsys):
    with criterion(9, "small decoder step >=1.5x faster than recurrent; flops >=5x"):
        reduced_cfg = preset("reduced_small")
        lstm_cfg = preset("lstm")
        # 32-bit storage for the benchmark build; analytic flops first
        flop_ratio = step_flops(lstm_cfg) / step_flops(reduced_cfg)
        assert flop_ratio >= 5.0
        reduced_w = init_weights(reduced_cfg, seed=0, dtype=np.float32)
        lstm_w = init_weights(lstm_cfg, seed=0, dtype=np.float32)
        runs, warmup = 10_000, 100
        reduced_rec, lstm_rec = bench_decoders(
            [("reduced_small", reduced_w, reduced_cfg), ("lstm", lstm_w, lstm_cfg)], runs, warmup
        )
        speedup = lstm_rec.mean_ms / reduced_rec.mean_ms
        with capsys.disabled():
            print(
                f"\n[criterion 9] {runs} runs on {reduced_rec.core_label}: "
                f"reduced_small {reduced_rec.mean_ms:.3f}+/-{reduced_rec.std_ms:.3f} ms, "
                f"lstm {lstm_rec.mean_ms:.3f}+/-{lstm_rec.std_ms:.3f} ms, "
                f"speedup {speedup:.1f}x, flop ratio {flop_ratio:.1f}x"
            )
        assert reduced_rec.mean_ms < lstm_rec.mean_ms
        assert speedup >= 1.5


def test_criterion_10_serialization(tmp_path):
    with criterion(10, "archives round-trip bit-exact; tied blob smaller by d_h*|V| slots"):
        for variant in ("reduced", "lstm"):
            cfg = tiny_config(variant, tied=(variant == "reduced"))
            w = init_weights(cfg, seed=9)
            w.enc_stub = init_encoder_stub(4, cfg.d_enc, 2)
            path = str(tmp_path / f"{variant}.rnnt")
            save(w, cfg, path, seed=9)
            loaded, loaded_cfg = load(path)
            assert loaded_cfg == cfg
            for name, arr in trainable_tensors(w).items():
                np.testing.assert_array_equal(arr, trainable_tensors(loaded)[name])
            np.testing.assert_array_equal(w.emb, loaded.emb)
        tied_cfg = tiny_config("reduced", tied=True, vocab_size=50, d_e=6, d_h=6)
        untied_cfg = replace(tied_cfg, tied=False)
        tied_path = str(tmp_path / "tied.rnnt")
        untied_path = str(tmp_path / "untied.rnnt")
        save(init_weights(tied_cfg, seed=1), tied_cfg, tied_path)
        save(init_weights(untied_cfg, seed=1), untied_cfg, untied_path)
        diff = len(read_archive(untied_path).blob) - len(read_archive(tied_path).blob)
        assert diff == tied_cfg.d_h * tied_cfg.vocab_size * 8

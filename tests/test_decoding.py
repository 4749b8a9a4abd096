import numpy as np
import pytest

import rnntdec.decoding
from rnntdec import (
    SeededRng,
    beam_decode,
    convert_to_lookup,
    greedy_decode,
    init_weights,
    prediction_forward,
)
from rnntdec.bench import step_timer
from rnntdec.decoding import LookupTable
from rnntdec.errors import CapacityError, ConfigError, DomainError, ShapeError
from rnntdec.mathops import log_softmax
from rnntdec.nets import joint_forward

from helpers import (
    all_blank_model,
    enumerate_decode_paths,
    naive_beam_decode,
    one_label_then_blank_model,
    tiny_config,
)


def small_beam_config(trial=0):
    return tiny_config(
        "reduced", vocab_size=2, d_e=3, d_h=3, d_enc=3,
        history_len=2, num_heads=1, tied=True, max_symbols_per_frame=2,
    )


def random_beam_instance(trial):
    cfg = small_beam_config(trial)
    w = init_weights(cfg, seed=trial)
    for t in (w.emb, w.enc_w, w.pred_w):
        t *= 2.0
    w.emb[cfg.pad_id] = 0.0
    rng = SeededRng(1000 + trial)
    T = 1 + trial % 3
    frames = rng.normal((T, cfg.d_enc), std=1.5)
    return cfg, w, frames


class TestGreedy:
    def test_all_blank_gives_empty_output(self):
        cfg = tiny_config()
        w = all_blank_model(cfg)
        frames = SeededRng(0).normal((4, cfg.d_enc))
        res = greedy_decode(frames, w, cfg)
        assert res.labels == []
        # four blank steps on the fresh history, summed in frame order
        g = prediction_forward(np.array([[cfg.pad_id] * cfg.history_len]), w, cfg)[0]
        expected = 0.0
        for f_t in frames:
            expected += float(log_softmax(joint_forward(f_t, g, w, cfg))[cfg.blank_id])
        assert res.log_prob == expected

    def test_no_frames(self):
        cfg = tiny_config()
        w = all_blank_model(cfg)
        res = greedy_decode(np.zeros((0, cfg.d_enc)), w, cfg)
        assert res.labels == [] and res.log_prob == 0.0

    @pytest.mark.parametrize("shape", [(0, 7), (0, 3), (0,), (5,), (0, 4, 1), (2, 4, 1)])
    def test_wrong_frame_shape_is_shape_error(self, shape):
        # checked up front like beam_decode, so a frameless input is caught too
        cfg = tiny_config()  # d_enc = 4
        w = all_blank_model(cfg)
        with pytest.raises(ShapeError):
            greedy_decode(np.zeros(shape), w, cfg)

    def test_hand_simulated_loop(self):
        # frame 0 emits label 0 once (the fed-back embedding then boosts
        # blank), frame 1 is blank: output is exactly [0].
        cfg, w, frames = one_label_then_blank_model()
        res = greedy_decode(frames, w, cfg)
        assert res.labels == [0]
        # hand-accumulated log-prob over the three argmax steps
        pads = [cfg.pad_id] * (cfg.history_len - 1)
        g0 = prediction_forward(np.array([[cfg.pad_id] + pads]), w, cfg)[0]
        lp = log_softmax(joint_forward(frames[0], g0, w, cfg))[0]
        g1 = prediction_forward(np.array([[0] + pads]), w, cfg)[0]  # label 0 most recent
        lp += log_softmax(joint_forward(frames[0], g1, w, cfg))[cfg.blank_id]
        lp += log_softmax(joint_forward(frames[1], g1, w, cfg))[cfg.blank_id]
        np.testing.assert_allclose(res.log_prob, lp, atol=1e-12)

    def test_symbol_cap_terminates(self):
        # blank never wins: the cap is the only thing advancing time
        cfg, w, frames = one_label_then_blank_model()
        w.blank_w[:] = -50.0
        res = greedy_decode(frames, w, cfg)
        assert len(res.labels) == frames.shape[0] * cfg.max_symbols_per_frame

    def test_blank_never_in_output(self):
        for trial in range(5):
            cfg, w, frames = random_beam_instance(trial)
            res = greedy_decode(frames, w, cfg)
            assert all(0 <= v < cfg.vocab_size for v in res.labels)


class TestBeam:
    def test_width_zero_rejected(self):
        cfg = tiny_config()
        w = all_blank_model(cfg)
        with pytest.raises(ConfigError):
            beam_decode(np.zeros((1, cfg.d_enc)), w, cfg, 0)

    def test_all_blank_single_path(self):
        cfg = tiny_config()
        w = all_blank_model(cfg)
        frames = SeededRng(2).normal((3, cfg.d_enc))
        nbest = beam_decode(frames, w, cfg, 1)
        assert nbest[0].labels == ()
        expected = 0.0
        g = prediction_forward(np.array([[cfg.pad_id] * cfg.history_len]), w, cfg)[0]
        for t in range(3):
            expected += log_softmax(joint_forward(frames[t], g, w, cfg))[cfg.blank_id]
        np.testing.assert_allclose(nbest[0].log_prob, expected, atol=1e-12)

    def test_matches_exhaustive_enumeration(self):
        for trial in range(25):
            cfg, w, frames = random_beam_instance(trial)
            seqs = enumerate_decode_paths(frames, w, cfg)
            oracle_best = max(seqs.items(), key=lambda kv: kv[1])
            nbest = beam_decode(frames, w, cfg, 64)
            assert nbest[0].labels == oracle_best[0]
            np.testing.assert_allclose(nbest[0].log_prob, oracle_best[1], atol=1e-9)

    def test_merged_alignments_logsumexp(self):
        # two alignments of the same one-label sequence over two frames:
        # emit at t=0 then blank,blank  vs  blank then emit,blank
        cfg, w, frames = random_beam_instance(3)
        seqs = enumerate_decode_paths(frames, w, cfg)
        nbest = beam_decode(frames, w, cfg, 64)
        ours = {h.labels: h.log_prob for h in nbest}
        for labels, lp in seqs.items():
            if labels in ours:
                np.testing.assert_allclose(ours[labels], lp, atol=1e-9)

    def test_beam_one_equals_greedy_on_unambiguous_input(self):
        cfg, w, frames = one_label_then_blank_model()
        greedy = greedy_decode(frames, w, cfg)
        nbest = beam_decode(frames, w, cfg, 1)
        assert nbest[0].labels == tuple(greedy.labels)

    def test_monotone_in_width(self):
        for trial in range(8):
            cfg, w, frames = random_beam_instance(trial)
            best = [
                beam_decode(frames, w, cfg, b)[0].log_prob for b in (1, 2, 4, 8)
            ]
            for narrow, wide in zip(best, best[1:]):
                assert wide >= narrow - 1e-12

    def test_total_probability_at_most_one(self):
        for trial in range(6):
            cfg, w, frames = random_beam_instance(trial)
            seqs = enumerate_decode_paths(frames, w, cfg)
            total = sum(np.exp(lp) for lp in seqs.values())
            assert total <= 1.0 + 1e-9

    def test_nbest_sorted_and_blank_free(self):
        cfg, w, frames = random_beam_instance(4)
        nbest = beam_decode(frames, w, cfg, 8)
        lps = [h.log_prob for h in nbest]
        assert lps == sorted(lps, reverse=True)
        assert all(lp <= 1e-12 for lp in lps)
        for h in nbest:
            assert all(0 <= v < cfg.vocab_size for v in h.labels)

    def test_empty_frames(self):
        cfg = tiny_config()
        w = all_blank_model(cfg)
        nbest = beam_decode(np.zeros((0, cfg.d_enc)), w, cfg, 4)
        assert len(nbest) == 1 and nbest[0].labels == () and nbest[0].log_prob == 0.0

    def test_nan_weights_are_domain_error(self):
        cfg, w, frames = random_beam_instance(2)
        w.out_w[0, 0] = np.nan
        with pytest.raises(DomainError):
            beam_decode(frames, w, cfg, 1)


def zero_joint_model(cfg, dtype=np.float64):
    """Joint weights and output biases all zero: every label and blank score
    log(1 / (V+1)) at every step, so beam ranking is decided by ties alone."""
    w = init_weights(cfg, seed=0, dtype=dtype)
    for t in (w.enc_w, w.pred_w, w.joint_b, w.out_w, w.blank_w, w.out_b):
        t[...] = 0.0
    return w


class TestBatchedBeam:
    """``beam_decode`` scores each round as one batch; ``naive_beam_decode``
    is the same search one hypothesis and one label at a time."""

    @staticmethod
    def as_pairs(nbest):
        return [(h.labels, h.log_prob) for h in nbest]

    def test_bit_identical_to_naive_beam(self):
        rng = np.random.default_rng(2024)
        variants = ("reduced", "stateless1emb", "concat2emb", "lstm")
        for trial in range(200):
            variant = variants[trial % 4]
            dtype = (np.float64, np.float32)[(trial // 4) % 2]
            d = int(rng.integers(2, 7))
            cfg = tiny_config(
                variant, vocab_size=int(rng.integers(2, 9)), d_e=d, d_h=d,
                tied=bool((trial // 8) % 2), max_symbols_per_frame=int(rng.integers(1, 4)),
                **({"lstm_proj": d} if variant == "lstm" else {}),
            )
            w = init_weights(cfg, seed=trial, dtype=dtype)
            T = int(rng.integers(0, 6))
            frames = (2.0 * rng.standard_normal((T, cfg.d_enc))).astype(dtype)
            for width in (1, 2, 4, 9):
                nbest = beam_decode(frames, w, cfg, width)
                assert self.as_pairs(nbest) == naive_beam_decode(frames, w, cfg, width), (
                    f"trial {trial}: {variant} {np.dtype(dtype).name} B={width} T={T}"
                )
                assert all(type(h.log_prob) is float for h in nbest)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_exact_ties_keep_smallest_label_sequences(self, dtype):
        # one frame, one symbol: the round-1 frontier must be (0,), (1,), (2,)
        # out of four equally scored labels, so the n-best is (), (0,), (1,)
        cfg = tiny_config(vocab_size=4, max_symbols_per_frame=1)
        w = zero_joint_model(cfg, dtype)
        frames = np.ones((1, cfg.d_enc), dtype=dtype)
        nbest = beam_decode(frames, w, cfg, 3)
        assert [h.labels for h in nbest] == [(), (0,), (1,)]
        for variant in ("reduced", "stateless1emb", "concat2emb", "lstm"):
            cfg = tiny_config(variant, vocab_size=3, max_symbols_per_frame=2)
            w = zero_joint_model(cfg, dtype)
            frames = np.ones((3, cfg.d_enc), dtype=dtype)
            for width in (1, 2, 4, 5, 9):
                got = self.as_pairs(beam_decode(frames, w, cfg, width))
                assert got == naive_beam_decode(frames, w, cfg, width)

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (0, 3), (2, 4, 1)])
    def test_wrong_frame_shape_is_shape_error(self, shape):
        cfg = tiny_config()  # d_enc = 4
        w = all_blank_model(cfg)
        with pytest.raises(ShapeError):
            beam_decode(np.zeros(shape), w, cfg, 2)

    def test_log_prob_is_python_float(self):
        cfg, w, frames = random_beam_instance(5)
        nbest = beam_decode(frames, w, cfg, 4)
        assert len(nbest) > 1
        assert all(type(h.log_prob) is float for h in nbest)


VARIANTS = ("reduced", "stateless1emb", "concat2emb", "lstm")


def random_variant_config(variant, rng, **overrides):
    d = int(rng.integers(2, 7))
    return tiny_config(variant, d_e=d, d_h=d, tied=bool(rng.integers(0, 2)),
                       **({"lstm_proj": d} if variant == "lstm" else {}), **overrides)


class TestFrameMemo:
    """``beam_decode`` scores each (frame, history window) pair once and
    reads repeated windows back from its per-frame memo; the naive search
    rescores every hypothesis, so ``==`` against it checks every memo read."""

    as_pairs = staticmethod(TestBatchedBeam.as_pairs)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_f8_frames_on_f4_weights(self, variant):
        # the joint output, and so the memo, is f8 although the weights are f4
        rng = np.random.default_rng(VARIANTS.index(variant))
        for trial in range(6):
            cfg = random_variant_config(variant, rng, vocab_size=int(rng.integers(2, 6)),
                                        max_symbols_per_frame=int(rng.integers(1, 5)))
            w = init_weights(cfg, seed=trial, dtype=np.float32)
            frames = 2.0 * rng.standard_normal((int(rng.integers(1, 5)), cfg.d_enc))
            for width in (1, 3, 6):
                nbest = beam_decode(frames, w, cfg, width)
                assert self.as_pairs(nbest) == naive_beam_decode(frames, w, cfg, width)

    def test_high_symbol_cap_small_vocabulary(self, monkeypatch):
        # with V = 2-3 and N <= 2 a frame meets few windows in many rounds
        rng = np.random.default_rng(77)
        joint_calls = []
        joint = rnntdec.decoding.joint_forward
        monkeypatch.setattr(rnntdec.decoding, "joint_forward",
                            lambda *a: joint_calls.append(1) or joint(*a))
        rounds = 0
        for trial in range(24):
            variant = VARIANTS[trial % 4]
            cfg = random_variant_config(variant, rng, vocab_size=int(rng.integers(2, 4)),
                                        max_symbols_per_frame=int(rng.integers(6, 11)))
            dtype = (np.float64, np.float32)[trial % 2]
            w = init_weights(cfg, seed=trial, dtype=dtype)
            frames = (2.0 * rng.standard_normal((int(rng.integers(1, 4)), cfg.d_enc))).astype(dtype)
            for width in (2, 4):
                nbest = beam_decode(frames, w, cfg, width)
                assert self.as_pairs(nbest) == naive_beam_decode(frames, w, cfg, width), (
                    f"trial {trial}: {variant} {np.dtype(dtype).name} B={width}"
                )
                rounds += len(frames) * (cfg.max_symbols_per_frame + 1)
        assert 2 * len(joint_calls) < rounds

    @pytest.mark.parametrize("T", [0, 1])
    def test_zero_and_one_frame(self, T):
        rng = np.random.default_rng(5 + T)
        for variant in VARIANTS:
            cfg = random_variant_config(variant, rng, vocab_size=3, max_symbols_per_frame=3)
            w = init_weights(cfg, seed=T)
            frames = rng.standard_normal((T, cfg.d_enc))
            for width in (1, 2, 5):
                nbest = beam_decode(frames, w, cfg, width)
                assert self.as_pairs(nbest) == naive_beam_decode(frames, w, cfg, width)


class TestLookup:
    def test_entry_count(self):
        cfg = tiny_config(vocab_size=5, d_e=4, d_h=4, history_len=2, num_heads=1)
        w = init_weights(cfg, seed=0)
        table = convert_to_lookup(w, cfg)
        assert table.table.shape == (36, cfg.pn_out_dim)  # (5+1)^2 contexts

    def test_bit_equal_to_direct_computation(self):
        for variant in ("reduced", "concat2emb", "lstm"):
            cfg = tiny_config(variant, vocab_size=3, history_len=2)
            w = init_weights(cfg, seed=1)
            table = convert_to_lookup(w, cfg)
            for ctx in table.contexts():
                direct = prediction_forward(np.array([ctx]), w, cfg)[0]
                np.testing.assert_array_equal(table.table[table.index_of(ctx)], direct)

    def test_capacity_error_for_large_vocab(self):
        cfg = tiny_config(vocab_size=4096, d_e=4, d_h=4, history_len=2, num_heads=1)
        w = init_weights(cfg, seed=0)
        with pytest.raises(CapacityError):
            convert_to_lookup(w, cfg, max_entries=1_000_000)

    def test_index_round_trip(self):
        table = LookupTable(tiny_config(vocab_size=5, history_len=3), np.zeros((216, 2)))
        seen = set()
        for ctx in table.contexts():
            seen.add(table.index_of(ctx))
        assert seen == set(range(216))


class TestStepTimer:
    def test_noop_floor(self):
        stats = step_timer(lambda: None, runs=200, warmup=10)
        assert stats.mean_ms < 0.05

    def test_population_std(self):
        stats = step_timer(lambda: None, runs=100, warmup=0)
        np.testing.assert_allclose(stats.std_ms, stats.times_ms.std(), atol=1e-12)
        assert len(stats.times_ms) == 100

    def test_runs_floor(self):
        with pytest.raises(ConfigError):
            step_timer(lambda: None, runs=0)

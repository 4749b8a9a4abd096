import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rnntdec.decoding
from rnntdec import (
    SeededRng,
    beam_decode,
    beam_decode_batch,
    convert_to_lookup,
    greedy_decode,
    init_weights,
    prediction_forward,
)
import rnntdec.bench
from rnntdec.bench import bench_decoders
from rnntdec.decoding import _frame_settled, window_code
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

    def test_nan_weights_are_domain_error(self):
        # unchecked, greedy would emit label 0 up to the cap on every frame
        # with log-prob NaN
        cfg = tiny_config(vocab_size=3, d_e=4, d_h=4, d_enc=4)
        w = init_weights(cfg, seed=0)
        w.out_w[0, 0] = np.nan
        with pytest.raises(DomainError):
            greedy_decode(SeededRng(1).normal((5, cfg.d_enc)), w, cfg)


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
        joint = rnntdec.decoding.joint_tanh  # the joint beam search calls
        monkeypatch.setattr(rnntdec.decoding, "joint_tanh",
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
        assert 0 < 2 * len(joint_calls) < rounds

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


def settled_beams(monkeypatch):
    """Wraps ``_frame_settled`` in ``beam_decode``'s module; returns the list
    that receives the beam (``_top_b``) of every frame it ends early."""
    ended = []
    settled = rnntdec.decoding._frame_settled

    def spy(next_beams, frontier, beam_width):
        done = settled(next_beams, frontier, beam_width)
        if done:
            ended.append(rnntdec.decoding._top_b(next_beams, beam_width))
        return done

    monkeypatch.setattr(rnntdec.decoding, "_frame_settled", spy)
    return ended


class TestFrameExit:
    """``beam_decode`` ends a frame once no later round can change its beam.
    Random-init models rarely let that happen, so these models are peaked:
    their output rows are scaled up, and ``==`` against the naive search,
    which runs every round, checks that every early end was exact."""

    as_pairs = staticmethod(TestBatchedBeam.as_pairs)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bit_identical_to_naive_beam_on_peaked_models(self, variant, dtype, monkeypatch):
        ended = settled_beams(monkeypatch)
        fired = []  # per decode: did some frame end early

        @given(width=st.integers(1, 6), cap=st.integers(1, 10), vocab=st.integers(2, 5),
               seed=st.integers(0, 2**16), scale=st.sampled_from([4.0, 12.0, 40.0]),
               blank_bias=st.sampled_from([0.0, 10.0, 40.0]), T=st.integers(1, 5))
        @settings(max_examples=40, deadline=None, derandomize=True)
        def check(width, cap, vocab, seed, scale, blank_bias, T):
            cfg = tiny_config(variant, vocab_size=vocab, d_e=3, d_h=3, tied=bool(seed % 2),
                              max_symbols_per_frame=cap, **({"lstm_proj": 3} if variant == "lstm" else {}))
            w = init_weights(cfg, seed=seed, dtype=dtype)
            w.out_w *= scale  # the embedding too, when tied
            w.blank_w *= scale
            w.out_b[cfg.blank_id] += blank_bias  # a large bias makes some blank log-probs exactly 0.0
            frames = (3.0 * SeededRng(seed).normal((T, cfg.d_enc))).astype(dtype)
            before = len(ended)
            nbest = beam_decode(frames, w, cfg, width)
            assert self.as_pairs(nbest) == naive_beam_decode(frames, w, cfg, width)
            fired.append(len(ended) > before)

        check()
        assert sum(fired) >= len(fired) // 4
        # early ends met beams related by prefix ("ab" and "abc") and keys at exactly 0.0
        assert any(a != b and b[:len(a)] == a for beam in ended for a in beam if a for b in beam)
        assert any(lp == 0.0 for beam in ended for lp in beam.values())

    def test_reachable_key_near_theta_must_keep_its_bits(self):
        # B = 2, so theta is -2.0, and key (0,) can still receive blanks from
        # descendants of the frontier hypothesis (0,) ...
        beams = {(): -1e-3, (0,): -2.0, (1,): -40.0}
        assert not _frame_settled(beams, [((0,), -10.0, 0)], 2)  # ... which move its bits
        assert _frame_settled(beams, [((0,), -100.0, 0)], 2)  # ... which leave them as they are
        assert _frame_settled(beams, [((1,), -10.0, 0)], 2)  # (1,) reaches only keys far below theta
        assert not _frame_settled(beams, [((1,), -2.5, 0)], 2)  # a new key could still enter
        assert not _frame_settled(beams, [((1,), -100.0, 0)], 4)  # fewer keys than B

    def test_signed_zero_key_must_keep_its_sign(self):
        # merging a probability that rounds to nothing keeps +0.0 as it is
        # but turns -0.0 into +0.0, although the two compare equal
        frontier = [((0,), -800.0, 0)]
        assert _frame_settled({(): -50.0, (0,): 0.0}, frontier, 1)
        assert not _frame_settled({(): -50.0, (0,): -0.0}, frontier, 1)

    def test_nan_merged_value_keeps_the_frame_going(self):
        frontier = [((0, 0, 0), -90.0, 0), ((1, 0, 0), -95.0, 0)]
        beams = {(): -1e-3, (0,): -30.0, (1,): -31.0, (0, 0): -60.0}
        assert _frame_settled(beams, frontier, 2)
        for key in [*beams, (1, 1)]:  # NaN at any rank, or on a key of its own
            assert not _frame_settled({**beams, key: np.nan}, frontier, 2)
        assert not _frame_settled(beams, frontier + [((1, 1, 1), np.nan, 0)], 2)


# (weights dtype, frames dtype): f8, f4, and f8 frames on f4 weights
DTYPE_MODES = {"f8": (np.float64, np.float64), "f4": (np.float32, np.float32),
               "f8-on-f4": (np.float32, np.float64)}


def peaked_model(variant, dtype, vocab, cap, seed, scale, blank_bias):
    """``TestFrameExit``'s peaked models: output rows scaled up and a blank
    bias, so frames often end before their last round."""
    cfg = tiny_config(variant, vocab_size=vocab, d_e=3, d_h=3, tied=bool(seed % 2),
                      max_symbols_per_frame=cap, **({"lstm_proj": 3} if variant == "lstm" else {}))
    w = init_weights(cfg, seed=seed, dtype=dtype)
    w.out_w *= scale
    w.blank_w *= scale
    w.out_b[cfg.blank_id] += blank_bias
    return cfg, w


class TestLockstep:
    """``beam_decode_batch`` runs its utterances' searches in lockstep, one
    joint call per tick over all of them; each n-best list must equal the
    utterance decoded alone and the naive search, bit for bit."""

    as_pairs = staticmethod(TestBatchedBeam.as_pairs)

    def check_batch(self, frames_list, w, cfg, width):
        batch = beam_decode_batch(frames_list, w, cfg, width)
        assert len(batch) == len(frames_list)
        for i, (frames, nbest) in enumerate(zip(frames_list, batch)):
            assert nbest == beam_decode(frames, w, cfg, width), f"utterance {i}"
            assert self.as_pairs(nbest) == naive_beam_decode(frames, w, cfg, width), f"utterance {i}"

    @pytest.mark.parametrize("mode", sorted(DTYPE_MODES))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_each_utterance_alone_on_peaked_models(self, variant, mode, monkeypatch):
        ended = settled_beams(monkeypatch)
        fired = []  # per batch: did some frame of some utterance end early
        w_dtype, f_dtype = DTYPE_MODES[mode]

        @given(width=st.integers(1, 6), cap=st.integers(1, 10), vocab=st.integers(2, 5),
               seed=st.integers(0, 2**16), scale=st.sampled_from([1.0, 4.0, 12.0, 40.0]),
               blank_bias=st.sampled_from([0.0, 10.0, 40.0]),
               lengths=st.lists(st.integers(0, 6), min_size=1, max_size=5))
        @settings(max_examples=40, deadline=None, derandomize=True)
        def check(width, cap, vocab, seed, scale, blank_bias, lengths):
            cfg, w = peaked_model(variant, w_dtype, vocab, cap, seed, scale, blank_bias)
            rng = SeededRng(seed)
            frames_list = [(3.0 * rng.normal((T, cfg.d_enc))).astype(f_dtype) for T in lengths]
            before = len(ended)
            self.check_batch(frames_list, w, cfg, width)
            fired.append(len(ended) > before)

        check()
        assert sum(fired) >= len(fired) // 4

    @pytest.mark.parametrize("mode", sorted(DTYPE_MODES))
    def test_zero_and_one_frame_utterances_in_a_batch(self, mode):
        w_dtype, f_dtype = DTYPE_MODES[mode]
        rng = np.random.default_rng(19)
        for trial, variant in enumerate(VARIANTS * 2):
            cfg = random_variant_config(variant, rng, vocab_size=int(rng.integers(2, 6)),
                                        max_symbols_per_frame=1 + trial % 10)
            w = init_weights(cfg, seed=trial, dtype=w_dtype)
            lengths = [(0, 1, 4, 1, 2), (1, 0), (0,), (1,), (3, 0, 0, 5)][trial % 5]
            frames_list = [(2.0 * rng.standard_normal((T, cfg.d_enc))).astype(f_dtype) for T in lengths]
            for width in (1, 3, 6):
                self.check_batch(frames_list, w, cfg, width)

    def test_empty_batch(self):
        cfg = tiny_config()
        assert beam_decode_batch([], all_blank_model(cfg), cfg, 3) == []

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (2, 4, 1)])
    def test_wrongly_shaped_utterance_fails_before_any_search(self, shape, monkeypatch):
        cfg = tiny_config()  # d_enc = 4
        w = init_weights(cfg, seed=0)
        calls = []
        monkeypatch.setattr(rnntdec.decoding, "prediction_forward", lambda *a: calls.append(a))
        frames_list = [np.ones((3, 4)), np.ones((2, 4)), np.zeros(shape), np.ones((1, 4))]
        with pytest.raises(ShapeError, match=r"utterance 2\b"):
            beam_decode_batch(frames_list, w, cfg, 2)
        assert calls == []

    def test_mixed_frame_dtypes_fail_before_any_search(self, monkeypatch):
        cfg = tiny_config()
        w = init_weights(cfg, seed=0, dtype=np.float32)
        calls = []
        monkeypatch.setattr(rnntdec.decoding, "prediction_forward", lambda *a: calls.append(a))
        frames_list = [np.ones((3, 4), np.float32), np.ones((2, 4), np.float32), np.ones((2, 4))]
        with pytest.raises(ShapeError, match=r"utterance 2\b.*float64"):
            beam_decode_batch(frames_list, w, cfg, 2)
        assert calls == []

    def test_nan_weights_are_domain_error(self):
        cfg, w, frames = random_beam_instance(2)
        w.out_w[0, 0] = np.nan
        with pytest.raises(DomainError):
            beam_decode_batch([frames[:1], frames], w, cfg, 1)


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
            for ctx in itertools.product(range(cfg.vocab_ext), repeat=cfg.history_len):
                direct = prediction_forward(np.array([ctx]), w, cfg)[0]
                np.testing.assert_array_equal(table.table[window_code(ctx, cfg.vocab_ext)], direct)

    def test_capacity_error_for_large_vocab(self):
        cfg = tiny_config(vocab_size=4096, d_e=4, d_h=4, history_len=2, num_heads=1)
        w = init_weights(cfg, seed=0)
        with pytest.raises(CapacityError):
            convert_to_lookup(w, cfg, max_entries=1_000_000)

    def test_index_round_trip(self):
        cfg = tiny_config(vocab_size=5, history_len=3)
        seen = set()
        for ctx in itertools.product(range(cfg.vocab_ext), repeat=cfg.history_len):
            seen.add(window_code(ctx, cfg.vocab_ext))
        assert seen == set(range(216))


class TestStepTimer:
    """``bench_decoders`` is the step timer of ``rnntdec bench``."""

    @staticmethod
    def fake_steps(monkeypatch, durations_s):
        """Each decoder's k-th step takes ``durations_s(k)`` seconds on a fake
        clock; returns the list of each decoder's step counts."""
        now, counts = [0.0], []

        def make_step_fn(weights, config, seed=0):
            counts.append(0)
            index = len(counts) - 1

            def step():
                now[0] += durations_s(counts[index])
                counts[index] += 1
            return step

        monkeypatch.setattr(rnntdec.bench, "make_step_fn", make_step_fn)
        monkeypatch.setattr(rnntdec.bench, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        return counts

    def test_noop_floor(self, monkeypatch):
        monkeypatch.setattr(rnntdec.bench, "make_step_fn", lambda *a, **k: lambda: None)
        (rec,) = bench_decoders([("noop", None, None)], runs=200, warmup=10)
        assert rec.mean_ms < 0.05

    def test_population_std(self, monkeypatch):
        # two decoders over two blocks: warm-up steps precede only each
        # decoder's first block and are not recorded
        counts = self.fake_steps(monkeypatch, lambda k: float(k + 1))
        runs, warmup = rnntdec.bench.BLOCK_RUNS + 50, 3
        records = bench_decoders([("a", None, None), ("b", None, None)], runs, warmup)
        assert counts == [warmup + runs] * 2
        expected = np.arange(warmup + 1, warmup + runs + 1) * 1e3  # ms of steps 4, 5, ...
        for rec in records:
            assert rec.runs == runs
            assert rec.mean_ms == expected.mean()
            assert rec.std_ms == expected.std() != expected.std(ddof=1)

    def test_runs_floor(self):
        with pytest.raises(ConfigError):
            bench_decoders([("noop", None, None)], runs=0, warmup=0)

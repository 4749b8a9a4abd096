import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntdec import DecoderConfig, Hypothesis, NBestList, SeededRng, edit_distance, embr_risk
from rnntdec.backprop import zero_grads
from rnntdec.embr import EmbrParams, utterance_risk, utterance_risk_grads
from rnntdec.errors import DivergenceError, DomainError
from rnntdec.toy import Utterance
from rnntdec.train import embr_phase
from rnntdec.weights import init_encoder_stub, init_weights, trainable_tensors

from helpers import assert_grads_close, dp_edit_distance, fd_gradients, pad_row_mask, tiny_config

short_seqs = st.lists(st.integers(0, 3), max_size=6)
# string tokens from small alphabets, so long sequences still share tokens
word_seqs = st.integers(1, 6).flatmap(
    lambda k: st.lists(st.sampled_from(["a", "b", "cc", "", "é", "a b"][:k]), max_size=200))


class TestEditDistance:
    def test_substitution(self):
        assert edit_distance(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_deletions_only(self):
        assert edit_distance([], ["a", "b"]) == 2

    def test_dp_hand_check(self):
        # full DP table for ([a,b,a,c], [b,a,b]): delete leading a, then
        # substitute the final c -> b, so the distance is 2
        assert edit_distance(list("abac"), list("bab")) == 2

    @given(short_seqs, short_seqs)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(short_seqs)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(short_seqs, short_seqs, short_seqs)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(short_seqs, short_seqs)
    def test_bounds(self, a, b):
        d = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


class TestBitParallelEditDistance:
    """``edit_distance`` runs on bit vectors; the textbook dynamic program in
    ``helpers`` is its oracle."""

    @given(word_seqs, word_seqs)
    @settings(max_examples=300, deadline=None)
    def test_equals_dynamic_program(self, hyp, ref):
        assert edit_distance(hyp, ref) == dp_edit_distance(hyp, ref)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
    def test_empty_and_word_boundary_lengths(self, n):
        rng = np.random.default_rng(n)
        a = [str(t) for t in rng.integers(0, 3, n)]
        b = [str(t) for t in rng.integers(0, 3, n // 2 + 1)]
        for hyp, ref in ((a, []), ([], a), (a, a), (a, b), (b, a), (a, a[::-1])):
            assert edit_distance(hyp, ref) == dp_edit_distance(hyp, ref)
        assert edit_distance(iter(a), tuple(b)) == dp_edit_distance(a, b)


def two_entry_list():
    # distances against the reference: 0 and 2
    return NBestList(
        entries=[Hypothesis((0, 1), -0.1), Hypothesis((2, 3), -2.0)],
        reference=(0, 1),
    )


class TestEmbrRisk:
    def test_single_hypothesis(self):
        nbest = NBestList([Hypothesis((1, 2), -3.0)], reference=(1, 3))
        res = embr_risk(nbest)
        assert res.risk == edit_distance((1, 2), (1, 3)) == 1
        np.testing.assert_allclose(res.dlog_prob, 0.0, atol=1e-15)

    def test_two_entry_hand_softmax(self):
        # log-probs (-0.1, -2.0), distances (0, 2):
        # p1 = e^-0.1 / (e^-0.1 + e^-2) ~= 0.869892, risk ~= 0.260216
        res = embr_risk(two_entry_list())
        np.testing.assert_allclose(res.posterior[0], 0.869892, atol=1e-6)
        np.testing.assert_allclose(res.risk, 0.260216, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        nbest = two_entry_list()
        res = embr_risk(nbest)
        h = 1e-6
        for i in range(2):
            for sign in (+1, -1):
                nbest.entries[i].log_prob += sign * h
                val = embr_risk(nbest).risk
                nbest.entries[i].log_prob -= sign * h
                if sign > 0:
                    plus = val
                else:
                    minus = val
            num = (plus - minus) / (2 * h)
            assert abs(num - res.dlog_prob[i]) < 1e-6

    def test_shift_invariance(self):
        nbest = two_entry_list()
        base = embr_risk(nbest).risk
        for e in nbest.entries:
            e.log_prob += 17.3
        np.testing.assert_allclose(embr_risk(nbest).risk, base, atol=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            embr_risk(NBestList([], reference=(0,)))

    def test_posterior_scale(self):
        nbest = two_entry_list()
        sharp = embr_risk(nbest, posterior_scale=10.0)
        flat = embr_risk(nbest, posterior_scale=0.0)
        assert sharp.risk < embr_risk(nbest).risk  # sharper posterior, lower risk here
        np.testing.assert_allclose(flat.posterior, 0.5, atol=1e-15)


class TestRiskGradients:
    def build(self):
        cfg = tiny_config("reduced", tied=True, vocab_size=3, history_len=2)
        w = init_weights(cfg, seed=2)
        w.enc_stub = init_encoder_stub(4, cfg.d_enc, 5)
        feats = SeededRng(6).normal((3, 4))
        utt = Utterance(feats, [1, 0])
        candidates = [(1, 0), (1,), (2, 0), ()]
        return cfg, w, utt, candidates

    def test_full_chain_matches_finite_differences(self):
        cfg, w, utt, candidates = self.build()
        risk, grads = utterance_risk_grads(utt, candidates, w, cfg)
        assert risk > 0
        tensors = trainable_tensors(w)
        skip = pad_row_mask(w)
        numeric = fd_gradients(
            lambda: utterance_risk(utt, candidates, w, cfg), tensors, skip=skip
        )
        assert_grads_close(grads, numeric, rtol=1e-3, skip=skip)

    def test_dominant_correct_hypothesis_gives_small_gradient(self):
        cfg, w, utt, _ = self.build()
        # candidate set where the reference exists; fake its dominance by
        # checking the gradient scale shrinks as its posterior approaches 1
        ref = tuple(utt.labels)
        risk_res_entries = [Hypothesis(ref, 0.0), Hypothesis((2,), -30.0)]
        res = embr_risk(NBestList(risk_res_entries, ref))
        assert res.risk < 1e-9
        np.testing.assert_allclose(res.dlog_prob, 0.0, atol=1e-8)


class TestEmbrPhaseDivergence:
    def run(self, w, cfg):
        utts = [Utterance(SeededRng(6).normal((3, 4)), [1, 0])]
        return embr_phase(w, cfg, utts, EmbrParams(beam_width=2, steps=1, batch_size=1, lr=0.5))

    def model(self):
        cfg = tiny_config("reduced", tied=True, vocab_size=3, history_len=2)
        w = init_weights(cfg, seed=2)
        w.enc_stub = init_encoder_stub(4, cfg.d_enc, 5)
        return w, cfg

    def test_non_finite_forward(self):
        w, cfg = self.model()
        w.out_w[0, 0] = np.nan
        with pytest.raises(DivergenceError, match=r"step 0 \(lr=0.5\)"):
            self.run(w, cfg)

    def test_non_finite_risk(self, monkeypatch):
        w, cfg = self.model()
        # the package exports the function ``train`` under the module's name
        monkeypatch.setattr(importlib.import_module("rnntdec.train"), "embr_batch_grads",
                            lambda *args: (float("nan"), zero_grads(w)))
        with pytest.raises(DivergenceError, match=r"risk=nan\) at step 0 \(lr=0.5\)"):
            self.run(w, cfg)

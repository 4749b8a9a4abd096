"""Fast tests of the benchmark's checks and tracer.

Each check must pass the program's real output and reject a planted wrong
answer.  Run from the repository root:

    python3 -m pytest -q benchmark/test_checks.py
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import rnntdec  # noqa: E402
from rnntdec.embr import utterance_risk_grads  # noqa: E402
from rnntdec.toy import Utterance  # noqa: E402
from rnntdec.train import utterance_loss_grads  # noqa: E402
from rnntdec.weights import init_encoder_stub  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracing import LayerStats, Tracer  # noqa: E402

D_FEAT = 7


@pytest.fixture(scope="module")
def model():
    cfg = rnntdec.DecoderConfig(variant="reduced", vocab_size=4, d_e=6, d_h=6, d_enc=5,
                                history_len=2, num_heads=2, tied=True, max_symbols_per_frame=3)
    w = rnntdec.init_weights(cfg, seed=3)
    w.enc_stub = init_encoder_stub(D_FEAT, cfg.d_enc, seed=4)
    rng = np.random.default_rng(0)
    frames = [rng.normal(size=(t, cfg.d_enc)) for t in (3, 5, 6)]
    return w, cfg, frames


@pytest.fixture(scope="module")
def utt():
    rng = np.random.default_rng(1)
    return Utterance(rng.normal(size=(6, D_FEAT)), [1, 3, 0])


def test_alpha_matches_alignment_enumeration():
    rng = np.random.default_rng(2)
    T, U = 3, 2
    lp_blank = np.log(rng.uniform(0.1, 0.9, size=(T, U + 1)))
    lp_label = np.log(rng.uniform(0.1, 0.9, size=(T, U)))
    total = -math.inf
    # a path is an order of T blanks and U labels ending with a blank
    for label_slots in itertools.combinations(range(T + U - 1), U):
        t = u = 0
        lp = 0.0
        for step in range(T + U - 1):
            if step in label_slots:
                lp += lp_label[t, u]
                u += 1
            else:
                lp += lp_blank[t, u]
                t += 1
        total = np.logaddexp(total, lp + lp_blank[T - 1, U])
    assert reference.alpha_log_likelihood(lp_blank.tolist(), lp_label.tolist()) == pytest.approx(total, abs=1e-12)


def test_levenshtein():
    assert reference.levenshtein([1, 2, 3], [1, 3]) == 1
    assert reference.levenshtein([], [4, 4]) == 2
    assert reference.levenshtein([1, 2], [2, 1]) == 2


def test_greedy_check_accepts_program_and_rejects_planted(model):
    w, cfg, frames = model
    ref = reference.RefModel(w, cfg)
    results = [rnntdec.greedy_decode(f, w, cfg) for f in frames]
    failures, stats = checks.check_greedy(ref, frames, results, w.dtype)
    assert failures == [] and stats["frames"] == sum(len(f) for f in frames)
    bad = [dataclasses.replace(r, labels=list(r.labels) + [0]) for r in results]
    assert checks.check_greedy(ref, frames, bad, w.dtype)[0]
    bad = [dataclasses.replace(r, log_prob=r.log_prob - 1e-6) for r in results]
    assert checks.check_greedy(ref, frames, bad, w.dtype)[0]


def test_beam_check_accepts_program_and_rejects_planted(model):
    w, cfg, frames = model
    ref = reference.RefModel(w, cfg)
    nbests = [rnntdec.beam_decode(f, w, cfg, 3) for f in frames]
    failures, worst = checks.check_beam(ref, frames, nbests, 3, w.dtype)
    assert failures == [] and worst <= 1e-12
    top = nbests[0][0]
    exact = reference.exact_log_prob(ref, frames[0], top.labels)
    planted = [[dataclasses.replace(top, log_prob=exact + 1e-6)] + nbests[0][1:]] + nbests[1:]
    assert checks.check_beam(ref, frames, planted, 3, w.dtype)[0]
    nb = nbests[-1]
    assert len(nb) >= 2
    assert checks.check_nbest(nb[::-1], 3)
    assert checks.check_nbest(nb + nb[:1], 3)
    assert checks.check_nbest(nb, len(nb) - 1)


def test_lattice_check_accepts_program_and_rejects_planted(model, utt):
    w, cfg, _ = model
    nll = utterance_loss_grads(utt, w, cfg)[0]
    assert checks.check_lattice(w, cfg, [utt], [nll]) == []
    assert checks.check_lattice(w, cfg, [utt], [nll + 1e-7])


def test_gradient_check_accepts_program_and_rejects_planted(model, utt):
    w, cfg, _ = model
    _, grads = utterance_loss_grads(utt, w, cfg)
    probes = [("proj_w", w.proj_w, (0, 1)), ("emb", w.emb, (utt.labels[0], 2)),
              ("enc_stub_w", w.enc_stub.w, (1, 3))]
    fn = lambda: reference.utterance_nll(w, cfg, utt.features, utt.labels)  # noqa: E731
    assert checks.check_gradients(fn, w, grads, probes, "train") == []
    planted = {k: v * 1.01 for k, v in grads.items()}
    assert len(checks.check_gradients(fn, w, planted, probes, "train")) == len(probes)


def test_risk_checks_accept_program_and_reject_planted(model, utt):
    w, cfg, _ = model
    frames = rnntdec.toy_encode(utt.features, w.enc_stub)
    hyps = [h.labels for h in rnntdec.beam_decode(frames, w, cfg, 4)]
    ref = reference.RefModel(w, cfg)
    lps = [reference.exact_log_prob(ref, ref.frames(utt.features), h) for h in hyps]
    entries = [rnntdec.Hypothesis(h, lp) for h, lp in zip(hyps, lps)]
    risk = rnntdec.embr_risk(rnntdec.NBestList(entries, tuple(utt.labels))).risk
    assert checks.check_risk(risk, lps, hyps, utt.labels) == []
    assert checks.check_risk(risk + 1e-6, lps, hyps, utt.labels)
    assert checks.check_risk(max(len(h) for h in hyps) + len(utt.labels) + 1.0, lps, hyps, utt.labels)

    program_risk, grads = utterance_risk_grads(utt, hyps, w, cfg)
    assert program_risk == pytest.approx(risk, abs=1e-9)
    probes = [("proj_w", w.proj_w, (2, 1)), ("enc_w", w.enc_w, (0, 4))]
    fn = lambda: reference.utterance_risk(w, cfg, utt.features, utt.labels, hyps)  # noqa: E731
    assert checks.check_gradients(fn, w, grads, probes, "embr") == []
    planted = {k: -v for k, v in grads.items()}
    assert checks.check_gradients(fn, w, planted, probes, "embr")


def test_token_error_rate_check():
    assert checks.check_token_error_rate([[1, 2, 3]], [[1, 2, 3]], "t") == ([], 0.0)
    assert checks.check_token_error_rate([[1, 2]], [[1, 2, 3]], "t")[0]


def test_same_tensors_is_bit_exact():
    a = {"x": np.array([0.0, 1.0])}
    assert checks.check_same_tensors(a, {"x": a["x"].copy()}, "t") == []
    assert checks.check_same_tensors(a, {"x": np.array([-0.0, 1.0])}, "t")
    assert checks.check_same_tensors(a, {"x": a["x"].astype(np.float32)}, "t")


def test_tracer_wraps_every_binding_and_restores(model):
    w, cfg, frames = model
    bindings = [
        (sys.modules["rnntdec.decoding"], "joint_forward"),
        (sys.modules["rnntdec.embr"], "beam_decode"),
        (sys.modules["rnntdec.train"], "greedy_decode"),
        (sys.modules["rnntdec.nets"], "layer_norm"),
        (rnntdec, "greedy_decode"),
    ]
    before = [getattr(m, k) for m, k in bindings]
    tracer = Tracer()
    with tracer.installed():
        assert all(getattr(m, k) is not f for (m, k), f in zip(bindings, before))
        with tracer.span("bench.greedy"):
            out = rnntdec.greedy_decode(frames[0], w, cfg)
    assert [getattr(m, k) for m, k in bindings] == before
    stats = LayerStats(tracer, 0, len(tracer.spans))
    assert stats.calls_of("bench.greedy") == 1
    assert stats.calls_of("decoding.greedy_decode") == 1
    assert stats.count_of("decoding.greedy_decode") == len(out.labels)
    assert stats.calls_of("nets.joint_forward") >= len(frames[0])
    assert stats.calls_of("mathops.layer_norm") == stats.calls_of("nets.prediction_forward")
    assert 0.0 <= stats.unattributed_share < 0.5


def test_probe_repeats_and_stands_apart_from_the_package():
    import probe

    full, small = probe.Probe(), probe.Probe(0.25)
    assert full() == full() and small() == small()
    assert full() != small()
    assert not any(name.startswith("rnntdec") for name in vars(probe))


def test_scaling_cancels_a_host_that_slows_op_and_probe_alike():
    import harness

    # calls of 3 frames that take 10 ms at speed 1; the host's speed varies
    # from call to call and the paired probe (1 ms at speed 1) follows it
    speeds = np.array([1.0, 0.5, 2.0, 0.8, 1.25])
    loop = harness.OpLoop("greedy", [], [], [])
    loop.records = [(float(i), 3.0, 0.010 / s) for i, s in enumerate(speeds)]
    loop.paired = list(0.001 / speeds)
    run_speed = 1.1  # probe rate over its reference rate in the run
    out = loop.summary(run_speed)
    assert out["frames_per_s_raw"] == pytest.approx(15.0 / sum(0.010 / speeds))
    assert out["frames_per_s"] == pytest.approx(out["frames_per_s_raw"] / run_speed)
    # every scaled call reads the same, so the median is that value
    scaled = 10.0 * run_speed * np.mean(0.001 / speeds) / 0.001
    assert out["p50_ms"] == pytest.approx(scaled)
    assert out["p50_ms_raw"] == pytest.approx(np.median(10.0 / speeds))

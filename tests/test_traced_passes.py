"""The passes the benchmark's per-layer metrics time are the ones a step runs.

``benchmark/tracing.py`` times each function its ``TRACED`` list names by
rebinding that name in every ``rnntdec`` module, so a metric such as
``train.backprop.forward_grid.self_us_per_frame`` reads 0 unless a training
or EMBR step calls the traced name itself.  Each utterance of a step is one
``forward_grid`` and one ``backprop_decoder`` call, and each n-best list of
an EMBR step one ``rescore_exact`` call.
"""

from collections import Counter

from rnntdec import SeededRng
from rnntdec.backprop import step_grads
from rnntdec.embr import EmbrParams, embr_batch_grads
from rnntdec.toy import Utterance
from rnntdec.train import _loss_item

from helpers import tiny_config, tiny_model
from test_benchmark_contract import load_tracing

D_FEAT = 6


def case(k):
    cfg = tiny_config("reduced", tied=True)
    w = tiny_model(cfg, seed=3, d_feat=D_FEAT)
    rng = SeededRng(4)
    utts = [Utterance(rng.normal((5 + i, D_FEAT)), [i % cfg.vocab_size, 1]) for i in range(k)]
    return utts, w, cfg


def traced_calls(fn):
    """Span counts by traced name while ``fn()`` runs under the tracer."""
    tracer = load_tracing().Tracer()
    with tracer.installed():
        fn()
    return Counter(tracer.names[i] for i in tracer.arrays()[0])


def test_a_step_makes_one_grid_forward_and_backward_span_per_utterance():
    utts, w, cfg = case(3)
    calls = traced_calls(lambda: step_grads([_loss_item(u, w, cfg) for u in utts], w, cfg))
    assert calls["backprop.forward_grid"] == len(utts)
    assert calls["backprop.backprop_decoder"] == len(utts)


def test_an_embr_step_rescores_each_nbest_list_once():
    utts, w, cfg = case(2)
    params = EmbrParams(beam_width=2, add_reference=True)
    calls = traced_calls(lambda: embr_batch_grads(utts, w, cfg, params))
    assert calls["embr.rescore_exact"] == len(utts)
    assert calls["backprop.forward_grid"] == len(utts)

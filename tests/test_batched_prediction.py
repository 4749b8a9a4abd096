"""The batched prediction network and the callers that must use it.

``prediction_forward`` over an (n, N) id matrix must give, row for row, the
bits a single-history call gave before batching existed: the digests below
were recorded from one-history-at-a-time calls of the unbatched forward, on
the same models and histories, and every row must still equal its history
run alone as a one-row matrix.
"""

import hashlib

import numpy as np
import pytest

import rnntdec.backprop
import rnntdec.decoding
import rnntdec.nets
from rnntdec import SeededRng, beam_decode, prediction_forward
from rnntdec.backprop import step_grads, target_windows
from rnntdec.errors import DomainError
from rnntdec.toy import Utterance
from rnntdec.train import _loss_item, utterance_loss_grads
from rnntdec.weights import get_tensor, init_weights, specs_of

import helpers
from helpers import naive_beam_decode, tiny_config, window_of

ROW_CONFIGS = {
    "reduced": lambda: tiny_config("reduced", tied=True),
    # reduced_small's prediction shapes (d_e 320, N 5, 4 heads) on a small vocabulary
    "reduced_wide": lambda: tiny_config(
        "reduced", vocab_size=12, d_e=320, d_h=320, history_len=5, num_heads=4, tied=True
    ),
    "stateless1emb": lambda: tiny_config("stateless1emb"),
    "concat2emb": lambda: tiny_config("concat2emb"),
    "lstm": lambda: tiny_config("lstm"),
}

# sha256 of the stacked single-history outputs of ``row_cases(key, dtype)``.
SINGLE_HISTORY_DIGESTS = {
    "concat2emb-f8": "c4dc232f69d5fc34a3c0249193978d7b67b7ff7f3ebd35cfa1a85e3dd5203949",
    "concat2emb-f4": "c679a0fb80e7305199f80a7a0bbedcbb7234f18018cb9837bbc72c29861c38d1",
    "lstm-f8": "28cbe0b571337b647b5eaac82024dbc6f1dcb8d26c4617fe2f650d32586308b2",
    "lstm-f4": "0981a97e8b6d8cfc8977fbe48dc141a6456713581faa4d44aa5a6f4418d54bab",
    "reduced-f8": "dfadc2288d75e92a008accffb2eff593ce407fa731cab1b5e8a6f55079449c87",
    "reduced-f4": "dabf645a43abace69440b94e372bff2508f04625c8b08e458adfe78a2ed3b27b",
    "reduced_wide-f8": "453dae58eb83b485ec726ec8d55448d38f5922ae18b4c14b6587ad0580bf539f",
    "reduced_wide-f4": "494a8be6922f38c6a8eb4fa6da707cb271672c6feaf7d3f140fd517a7a37ebe2",
    "stateless1emb-f8": "8fc9dd780b1e8c8c48b7d800b09a1e3c95c8216d419c86db4d3929b49eed9822",
    "stateless1emb-f4": "aa384be199898ccec97762bd05b8046c6703b31c4a222cdac8e4ee13fa160fdb",
}


def row_cases(key, dtype):
    """A model with every stored tensor drawn at random (pad row zero) and
    the recent-first id matrix of its histories: the all-pad window first,
    then the windows after random label sequences of every length up to
    N + 2, so some rows are part padding."""
    cfg = ROW_CONFIGS[key]()
    w = init_weights(cfg, seed=0, dtype=dtype)
    rng = np.random.default_rng(sorted(ROW_CONFIGS).index(key))
    for spec in specs_of(w):
        if spec.alias is None:
            t = get_tensor(w, spec.name)
            t[...] = rng.normal(size=t.shape) * 0.7
    w.emb[cfg.pad_id] = 0.0
    windows = [window_of((), cfg)]
    for k in range(14):
        labels = rng.integers(0, cfg.vocab_size, size=k % (cfg.history_len + 3))
        windows.append(window_of(labels.tolist(), cfg))
    return w, cfg, np.array(windows)[:, ::-1]


def single_history_rows(key, dtype):
    w, cfg, ids = row_cases(key, dtype)
    return np.stack([prediction_forward(ids[i:i + 1], w, cfg)[0] for i in range(len(ids))])


@pytest.mark.parametrize("dtype", ["f8", "f4"])
@pytest.mark.parametrize("key", sorted(ROW_CONFIGS))
def test_batch_rows_equal_recorded_single_history_outputs(key, dtype):
    w, cfg, ids = row_cases(key, np.dtype(dtype))
    batch = prediction_forward(ids, w, cfg)
    assert batch.shape == (len(ids), cfg.pn_out_dim) and batch.dtype == w.dtype
    single = single_history_rows(key, np.dtype(dtype))
    for row, expected in zip(batch, single):
        np.testing.assert_array_equal(row, expected)
    assert hashlib.sha256(batch.tobytes()).hexdigest() == SINGLE_HISTORY_DIGESTS[f"{key}-{dtype}"]
    # a row does not depend on the other rows of its batch
    np.testing.assert_array_equal(prediction_forward(ids[::-1], w, cfg), batch[::-1])
    np.testing.assert_array_equal(prediction_forward(ids[:1], w, cfg), batch[:1])


@pytest.mark.parametrize("key", sorted(ROW_CONFIGS))
def test_out_of_table_id_is_domain_error(key):
    w, cfg, good = row_cases(key, np.dtype("f8"))
    for bad in (cfg.vocab_ext, -1):
        ids = good.copy()
        ids[3, -1] = bad
        with pytest.raises(DomainError):
            prediction_forward(ids, w, cfg)
        with pytest.raises(DomainError):
            prediction_forward(ids[3:4], w, cfg)


@pytest.mark.parametrize("key", sorted(ROW_CONFIGS))
def test_malformed_history_is_domain_error(key):
    w, cfg, ids = row_cases(key, np.dtype("f8"))
    ragged = [ids[0].tolist(), ids[1, 1:].tolist()]
    for bad in (ids[:, 1:], ids[0], ids.astype(np.float64), np.concatenate([ids, ids], axis=1),
                ragged):
        with pytest.raises(DomainError):
            prediction_forward(bad, w, cfg)


class CallLog:
    """Rebinds module-level names to wrappers that log each call's name."""

    def __init__(self, monkeypatch, *bindings):
        self.events = []
        for module, name in bindings:
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        def logged(*args, **kwargs):
            self.events.append(name)
            return fn(*args, **kwargs)
        return logged

    def count(self, name):
        return self.events.count(name)


@pytest.mark.parametrize("key", sorted(ROW_CONFIGS))
def test_forward_grid_makes_one_prediction_call(key, monkeypatch):
    # a step builds one grid per utterance from the rows of one batched call
    w, cfg, _ = row_cases(key, np.dtype("f8"))
    log = CallLog(monkeypatch, (rnntdec.backprop, "prediction_forward"),
                  (rnntdec.backprop, "forward_grid"))
    frames = SeededRng(5).normal((4, cfg.d_enc))
    targets = ([1, 3, 0, 2, 2, 1, 0], [2], [0, 1, 1])
    step_grads([_loss_item(Utterance(frames, t), w, cfg) for t in targets], w, cfg)
    assert log.count("prediction_forward") == 1
    assert log.count("forward_grid") == len(targets)


@pytest.mark.parametrize("rows", [1, 2, 15])
def test_lstm_batch_runs_each_step_and_layer_once(rows, monkeypatch):
    w, cfg, ids = row_cases("lstm", np.dtype("f8"))
    log = CallLog(monkeypatch, (rnntdec.nets, "lstm_cell"))
    prediction_forward(ids[-rows:], w, cfg)
    assert log.count("lstm_cell") <= cfg.history_len * cfg.lstm_layers


def lstm_alone(labels, w, cfg):
    """The LSTM output after ``labels`` (oldest first), one cell call per
    label and layer on one-row arrays."""
    hs = [np.zeros((1, cfg.lstm_proj), dtype=w.dtype) for _ in w.lstm]
    cs = [np.zeros((1, cfg.lstm_units), dtype=w.dtype) for _ in w.lstm]
    for label in labels:
        x = w.emb[[label]]
        for li, layer in enumerate(w.lstm):
            hs[li], cs[li] = rnntdec.nets.lstm_cell(x, hs[li], cs[li], layer)
            x = hs[li]
    return hs[-1][0]


@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_lstm_pads_anywhere_are_skipped(dtype):
    cfg = tiny_config("lstm", history_len=3)
    w = init_weights(cfg, seed=0, dtype=np.dtype(dtype))
    pad = cfg.pad_id
    batch = np.array([[3, pad, 2], [pad, 1, 2], [pad, pad, pad], [1, 2, 3], [pad, pad, 0]])
    expected = [lstm_alone([i for i in row[::-1] if i != pad], w, cfg) for row in batch]
    np.testing.assert_array_equal(expected[2], np.zeros(cfg.lstm_proj))
    for r in range(len(batch)):
        np.testing.assert_array_equal(prediction_forward(batch[r:r + 1], w, cfg)[0], expected[r])
    np.testing.assert_array_equal(prediction_forward(batch, w, cfg), np.stack(expected))


def test_training_grid_rejects_ids_outside_the_vocabulary():
    w, cfg, _ = row_cases("reduced", np.dtype("f8"))
    frames = SeededRng(5).normal((4, cfg.d_enc))
    for target in ([0, cfg.pad_id], [-1], [cfg.vocab_ext]):
        with pytest.raises(DomainError):
            utterance_loss_grads(Utterance(frames, target), w, cfg)
    for bad in (-1, cfg.vocab_ext):
        windows = target_windows([0, 1], cfg)
        windows[-1, 0] = bad
        with pytest.raises(DomainError):
            step_grads([(None, frames, windows, lambda logits: (0.0, None))], w, cfg)


class ScoredPairs:
    """Rebinds ``prediction_forward``, ``project_prediction`` and
    ``joint_forward`` in one module to record which (frame index, history
    window) pairs reach the joint.  Both the naive search and beam search
    call ``joint_forward(f_t @ enc_w, project_prediction(g))``, so the frame
    is recovered from its projection and the window through the projection
    of its prediction output.  Every distinct window must have given
    distinct output bytes."""

    def __init__(self, monkeypatch, module, frames, weights):
        self.frames = {(f @ weights.enc_w).tobytes(): t for t, f in enumerate(frames)}
        self.window_of = {}
        self.pairs = []
        self.call_frames = []  # the frame index of each joint call
        pf, proj, jf = module.prediction_forward, module.project_prediction, module.joint_forward

        def note(rows, windows):
            for window, row in zip(windows, rows):
                assert self.window_of.setdefault(row.tobytes(), window) == window

        def prediction(history, *args, **kwargs):
            out = pf(history, *args, **kwargs)
            note(out, map(tuple, history.tolist()))
            return out

        def projection(g, *args, **kwargs):
            out = proj(g, *args, **kwargs)
            note(np.atleast_2d(out), [self.window_of[row.tobytes()] for row in np.atleast_2d(g)])
            return out

        def joint(enc, pred, *args, **kwargs):
            t = self.frames[enc.tobytes()]
            self.call_frames.append(t)
            self.pairs += [(t, self.window_of[p.tobytes()]) for p in np.atleast_2d(pred)]
            return jf(enc, pred, *args, **kwargs)

        monkeypatch.setattr(module, "prediction_forward", prediction)
        monkeypatch.setattr(module, "project_prediction", projection)
        monkeypatch.setattr(module, "joint_forward", joint)


@pytest.mark.parametrize("key", ["reduced", "lstm"])
def test_each_beam_round_makes_at_most_one_prediction_call(key, monkeypatch):
    w, cfg, _ = row_cases(key, np.dtype("f8"))
    frames = SeededRng(6).normal((5, cfg.d_enc))
    naive = ScoredPairs(monkeypatch, helpers, frames, w)
    naive_beam_decode(frames, w, cfg, 3)
    scored = ScoredPairs(monkeypatch, rnntdec.decoding, frames, w)
    # a round ends by choosing the next frontier, and a frame by pruning its
    # beam, either after its last round or once the exit rule holds ("exit")
    log = CallLog(monkeypatch, (rnntdec.decoding, "prediction_forward"),
                  (rnntdec.decoding, "joint_forward"), (rnntdec.decoding, "_best_extensions"),
                  (rnntdec.decoding, "_top_b"))
    settled = rnntdec.decoding._frame_settled

    def settled_logged(*args):
        done = settled(*args)
        if done:
            log.events.append("exit")
        return done

    monkeypatch.setattr(rnntdec.decoding, "_frame_settled", settled_logged)
    beam_decode(frames, w, cfg, 3)
    assert log.events.count("_top_b") == len(frames) and log.events[-1] == "_top_b"
    joint_frames = iter(scored.call_frames)
    frame_events = " ".join(log.events).split("_top_b")[:-1]
    for t, events in enumerate(frame_events):
        rounds = events.split("_best_extensions")
        exited = rounds[-1].split() == ["exit"]
        # a frame runs 1 to cap + 1 rounds, and all of them unless it exits
        assert 1 <= len(rounds) - exited <= cfg.max_symbols_per_frame + 1
        assert exited or len(rounds) == cfg.max_symbols_per_frame + 1
        for calls in rounds[:len(rounds) - exited]:
            # a window the cache has not seen is not yet scored at this frame
            # either, so a prediction call is always followed by a joint call
            assert calls.split() in ([], ["joint_forward"], ["prediction_forward", "joint_forward"])
            if calls.split():
                assert next(joint_frames) == t
    assert next(joint_frames, None) is None
    # each (frame, window) pair is scored once, and only pairs the naive search scores
    assert len(scored.pairs) == len(set(scored.pairs))
    assert set(scored.pairs) <= set(naive.pairs)
    assert len(scored.pairs) < len(naive.pairs)


class LockstepTicks:
    """Rebinds ``prediction_forward``, ``project_prediction``, the joint
    (``joint_forward`` and the ``output_logits`` it calls) and
    ``log_softmax``, to log the calls of ``beam_decode_batch`` and record the
    (utterance, frame index, window) triple of every joint row.  A row's
    frame is recovered from its ``f_t @ enc_w`` row, its window from its
    projected prediction row; distinct frames and windows must give
    distinct bytes."""

    def __init__(self, monkeypatch, frames_list, weights):
        self.frame_of = {}
        for u, frames in enumerate(frames_list):
            for t, f in enumerate(frames):
                assert self.frame_of.setdefault((f @ weights.enc_w).tobytes(), (u, t)) == (u, t)
        self.window_of = {}
        self.predicted = []  # every window sent to the prediction network
        self.triples = []
        self.log = CallLog(monkeypatch, (rnntdec.nets, "output_logits"), (rnntdec.decoding, "log_softmax"))
        pf, proj, jf = (rnntdec.decoding.prediction_forward, rnntdec.decoding.project_prediction,
                        rnntdec.decoding.joint_forward)

        def note(rows, windows):
            for window, row in zip(windows, rows):
                assert self.window_of.setdefault(row.tobytes(), window) == window

        def prediction(ids, *args, **kwargs):
            self.log.events.append("prediction_forward")
            out = pf(ids, *args, **kwargs)
            windows = list(map(tuple, ids.tolist()))
            self.predicted += windows
            note(out, windows)
            return out

        def projection(g, *args, **kwargs):
            out = proj(g, *args, **kwargs)
            note(out, [self.window_of[row.tobytes()] for row in g])
            return out

        def joint(enc, pred, *args, **kwargs):
            self.log.events.append("joint_forward")
            for e, p in zip(np.broadcast_to(enc, pred.shape), pred):
                self.triples.append((*self.frame_of[e.tobytes()], self.window_of[p.tobytes()]))
            return jf(enc, pred, *args, **kwargs)

        monkeypatch.setattr(rnntdec.decoding, "prediction_forward", prediction)
        monkeypatch.setattr(rnntdec.decoding, "project_prediction", projection)
        monkeypatch.setattr(rnntdec.decoding, "joint_forward", joint)


@pytest.mark.parametrize("key", ["reduced", "lstm"])
def test_each_lockstep_tick_makes_one_joint_call(key, monkeypatch):
    w, cfg, _ = row_cases(key, np.dtype("f8"))
    frames_list = [SeededRng(7 + u).normal((T, cfg.d_enc)) for u, T in enumerate((5, 2, 6, 1))]
    # per utterance alone: its joint calls (one per round that meets new
    # windows) and the (utterance, frame, window) triples the naive search scores
    alone, naive = [], set()
    for u, frames in enumerate(frames_list):
        with monkeypatch.context() as m:
            spy = LockstepTicks(m, [frames], w)
            nbest = beam_decode(frames, w, cfg, 3)
            alone.append((nbest, spy.log.count("joint_forward")))
        with monkeypatch.context() as m:
            pairs = ScoredPairs(m, helpers, frames, w)
            naive_beam_decode(frames, w, cfg, 3)
            naive |= {(u, t, window) for t, window in pairs.pairs}
    spy = LockstepTicks(monkeypatch, frames_list, w)
    batch = rnntdec.beam_decode_batch(frames_list, w, cfg, 3)
    assert batch == [nbest for nbest, _ in alone]
    # a search asks once per tick until it ends, so the batch runs as many
    # ticks as its longest search asks, and each tick is one joint call
    # after at most one prediction call
    ticks = max(calls for _, calls in alone)
    assert spy.log.count("joint_forward") == spy.log.count("output_logits") == spy.log.count("log_softmax") == ticks
    between = " ".join(e for e in spy.log.events if e != "output_logits" and e != "log_softmax")
    assert all(calls.split() in ([], ["prediction_forward"]) for calls in between.split("joint_forward"))
    assert between.split("joint_forward")[-1].split() == []
    # each triple is scored once, and only triples the naive searches score;
    # no window reaches the prediction network twice
    assert len(spy.triples) == len(set(spy.triples))
    assert set(spy.triples) <= naive
    assert {u for u, _, _ in spy.triples} == set(range(len(frames_list)))
    assert len(spy.predicted) == len(set(spy.predicted))

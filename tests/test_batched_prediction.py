"""The batched prediction network and the callers that must use it.

``prediction_forward`` over an (n, N) id matrix must give, row for row, the
bits a single-history call gave before batching existed: the digests below
were recorded from one-state-at-a-time calls of the unbatched forward, on
the same models and histories.
"""

import hashlib

import numpy as np
import pytest

import rnntdec.backprop
import rnntdec.decoding
from rnntdec import PredictionState, SeededRng, beam_decode, prediction_forward
from rnntdec.backprop import forward_grid
from rnntdec.errors import DomainError
from rnntdec.weights import get_tensor, init_weights, specs_of

import helpers
from helpers import naive_beam_decode, tiny_config

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
    its histories: the fresh all-pad state first, then random label
    sequences of every length up to N + 2, so some rows are part padding."""
    cfg = ROW_CONFIGS[key]()
    w = init_weights(cfg, seed=0, dtype=dtype)
    rng = np.random.default_rng(sorted(ROW_CONFIGS).index(key))
    for spec in specs_of(w):
        if spec.alias is None:
            t = get_tensor(w, spec.name)
            t[...] = rng.normal(size=t.shape) * 0.7
    w.emb[cfg.pad_id] = 0.0
    states = [PredictionState.initial(cfg)]
    for k in range(14):
        labels = rng.integers(0, cfg.vocab_size, size=k % (cfg.history_len + 3))
        states.append(PredictionState.from_labels(labels.tolist(), cfg))
    return w, cfg, states


def single_history_rows(key, dtype):
    w, cfg, states = row_cases(key, dtype)
    return np.stack([prediction_forward(s, w, cfg) for s in states])


def recent_first_ids(states):
    return np.array([s.recent_first() for s in states])


@pytest.mark.parametrize("dtype", ["f8", "f4"])
@pytest.mark.parametrize("key", sorted(ROW_CONFIGS))
def test_batch_rows_equal_recorded_single_history_outputs(key, dtype):
    w, cfg, states = row_cases(key, np.dtype(dtype))
    ids = recent_first_ids(states)
    batch = prediction_forward(ids, w, cfg)
    assert batch.shape == (len(states), cfg.pn_out_dim) and batch.dtype == w.dtype
    single = single_history_rows(key, np.dtype(dtype))
    for row, expected in zip(batch, single):
        np.testing.assert_array_equal(row, expected)
    assert hashlib.sha256(batch.tobytes()).hexdigest() == SINGLE_HISTORY_DIGESTS[f"{key}-{dtype}"]
    # a row does not depend on the other rows of its batch
    np.testing.assert_array_equal(prediction_forward(ids[::-1], w, cfg), batch[::-1])
    np.testing.assert_array_equal(prediction_forward(ids[:1], w, cfg), batch[:1])


@pytest.mark.parametrize("key", sorted(ROW_CONFIGS))
def test_out_of_table_id_is_domain_error(key):
    w, cfg, states = row_cases(key, np.dtype("f8"))
    for bad in (cfg.vocab_ext, -1):
        ids = recent_first_ids(states)
        ids[3, -1] = bad
        with pytest.raises(DomainError):
            prediction_forward(ids, w, cfg)
        with pytest.raises(DomainError):
            prediction_forward(PredictionState(tuple(ids[3, ::-1].tolist()), cfg.pad_id), w, cfg)


@pytest.mark.parametrize("key", sorted(ROW_CONFIGS))
def test_malformed_history_is_domain_error(key):
    w, cfg, states = row_cases(key, np.dtype("f8"))
    ids = recent_first_ids(states)
    for bad in (ids[:, 1:], ids[0], ids.astype(np.float64), np.concatenate([ids, ids], axis=1)):
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
    w, cfg, _ = row_cases(key, np.dtype("f8"))
    log = CallLog(monkeypatch, (rnntdec.backprop, "prediction_forward"))
    target = [1, 3, 0, 2, 2, 1, 0]
    frames = SeededRng(5).normal((4, cfg.d_enc))
    _, cache = forward_grid(frames, target, w, cfg)
    assert log.count("prediction_forward") == 1
    assert cache.g_stack.shape == (len(target) + 1, cfg.pn_out_dim)


def test_forward_grid_rejects_ids_outside_the_vocabulary():
    w, cfg, _ = row_cases("reduced", np.dtype("f8"))
    frames = SeededRng(5).normal((4, cfg.d_enc))
    for target in ([0, cfg.pad_id], [-1], [cfg.vocab_ext]):
        with pytest.raises(DomainError):
            forward_grid(frames, target, w, cfg)


class ScoredPairs:
    """Rebinds ``prediction_forward`` and ``joint_forward`` in one module to
    record which (frame index, history window) pairs reach the joint.

    Windows are recovered from the prediction outputs the module computed,
    so every distinct window must have given distinct output bytes."""

    def __init__(self, monkeypatch, module, frames):
        self.frames = {f.tobytes(): t for t, f in enumerate(frames)}
        self.window_of = {}
        self.pairs = []
        self.call_frames = []  # the frame index of each joint call
        pf, jf = module.prediction_forward, module.joint_forward

        def prediction(history, *args, **kwargs):
            out = pf(history, *args, **kwargs)
            if isinstance(history, PredictionState):
                windows, rows = [history.recent_first()], out[None]
            else:
                windows, rows = [tuple(r) for r in history.tolist()], out
            for window, row in zip(windows, rows):
                assert self.window_of.setdefault(row.tobytes(), window) == window
            return out

        def joint(f_t, g_u, *args, **kwargs):
            t = self.frames[f_t.tobytes()]
            self.call_frames.append(t)
            self.pairs += [(t, self.window_of[g.tobytes()]) for g in np.atleast_2d(g_u)]
            return jf(f_t, g_u, *args, **kwargs)

        monkeypatch.setattr(module, "prediction_forward", prediction)
        monkeypatch.setattr(module, "joint_forward", joint)


@pytest.mark.parametrize("key", ["reduced", "lstm"])
def test_each_beam_round_makes_at_most_one_prediction_call(key, monkeypatch):
    w, cfg, _ = row_cases(key, np.dtype("f8"))
    frames = SeededRng(6).normal((5, cfg.d_enc))
    naive = ScoredPairs(monkeypatch, helpers, frames)
    naive_beam_decode(frames, w, cfg, 3)
    scored = ScoredPairs(monkeypatch, rnntdec.decoding, frames)
    # every round but a frame's last ends by choosing the next frontier and
    # the last ends the frame by pruning its beam; what follows the final
    # prune is the n-best lookup
    log = CallLog(monkeypatch, (rnntdec.decoding, "prediction_forward"),
                  (rnntdec.decoding, "joint_forward"), (rnntdec.decoding, "_best_extensions"),
                  (rnntdec.decoding, "_top_b"))
    nbest = beam_decode(frames, w, cfg, 3)
    ends = [i for i, name in enumerate(log.events) if name in ("_best_extensions", "_top_b")]
    rounds_per_frame = cfg.max_symbols_per_frame + 1
    assert len(ends) == len(frames) * rounds_per_frame
    assert [log.events[i] == "_top_b" for i in ends] == [
        r % rounds_per_frame == rounds_per_frame - 1 for r in range(len(ends))]
    joint_frames = iter(scored.call_frames)
    for r, (lo, hi) in enumerate(zip([-1] + ends, ends)):
        calls = log.events[lo + 1:hi]
        # a window the cache has not seen is not yet scored at this frame
        # either, so a prediction call is always followed by a joint call
        assert calls in ([], ["joint_forward"], ["prediction_forward", "joint_forward"])
        if calls:
            assert next(joint_frames) == r // rounds_per_frame
    assert log.events[ends[-1] + 1:] == []  # the n-best lookup calls nothing
    # each (frame, window) pair is scored once, and exactly the naive search's pairs are
    assert len(scored.pairs) == len(set(scored.pairs))
    assert set(scored.pairs) == set(naive.pairs)
    assert len(scored.pairs) < len(naive.pairs)
    for h in nbest:
        np.testing.assert_array_equal(h.pn_out, prediction_forward(h.state, w, cfg))

"""Forward passes for every decoder variant.

The prediction network is a pure function of the last ``history_len``
non-blank labels, so its output can be cached per history window or
precomputed into a lookup table.
"""

from __future__ import annotations

import numpy as np

from .config import CONCAT_2EMB, LSTM, REDUCED, STATELESS_1EMB, DecoderConfig
from .errors import DomainError, ShapeError
from .mathops import layer_norm, sigmoid, swish
from .weights import LstmLayer, ModelWeights, check_variant


class PredictionState:
    """Ring buffer of the last N non-blank labels, most recent last.

    Immutable: ``push`` returns a new state.  Fresh states hold N copies of
    the pad id, whose embedding row is zero.
    """

    __slots__ = ("ids", "pad_id")

    def __init__(self, ids: tuple[int, ...], pad_id: int):
        self.ids = ids
        self.pad_id = pad_id

    @classmethod
    def initial(cls, config: DecoderConfig) -> "PredictionState":
        return cls((config.pad_id,) * config.history_len, config.pad_id)

    @classmethod
    def from_labels(cls, labels, config: DecoderConfig) -> "PredictionState":
        """State after emitting ``labels`` in order."""
        n = config.history_len
        tail = tuple(labels)[-n:]
        ids = (config.pad_id,) * (n - len(tail)) + tail
        return cls(ids, config.pad_id)

    def push(self, label: int) -> "PredictionState":
        if not 0 <= label < self.pad_id:
            raise DomainError(f"cannot push label {label}; valid ids are [0, {self.pad_id})")
        return PredictionState(self.ids[1:] + (label,), self.pad_id)

    def recent_first(self) -> tuple[int, ...]:
        """Ids ordered y_{u-1}, y_{u-2}, ... (embedding row order)."""
        return self.ids[::-1]

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, PredictionState) and self.ids == other.ids

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"PredictionState({self.ids})"


def embed(state: PredictionState, weights: ModelWeights) -> np.ndarray:
    """(N, d_e) matrix; row n is the embedding of the n-th most recent label."""
    n_rows = weights.emb.shape[0]
    ids = state.recent_first()
    for i in ids:
        if not 0 <= i < n_rows:
            raise DomainError(f"label id {i} outside embedding table [0, {n_rows})")
    return weights.emb[list(ids)]


def predict_multi_head(E: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Multi-head position-weighted embedding average.

    ``E`` is (N, d_e), ``positions`` is (H, N, d_e).  Each head weights
    embedding n by dot(E_n, P_hn) (no softmax), and the output averages all
    H*N weighted embeddings into a single d_e vector.
    """
    if positions.ndim != 3 or E.ndim != 2 or positions.shape[1:] != E.shape:
        raise ShapeError(f"positions {positions.shape} incompatible with embeddings {E.shape}")
    h, n = positions.shape[0], E.shape[0]
    head_w = (positions * E[None, :, :]).sum(axis=2)  # (H, N)
    return (head_w.sum(axis=0) @ E) / (h * n)


def predict_single_head(E: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Single-head special case: (1/N) sum_n E_n * dot(E_n, P_n)."""
    if positions.ndim != 2 or positions.shape != E.shape:
        raise ShapeError(f"positions {positions.shape} incompatible with embeddings {E.shape}")
    return predict_multi_head(E, positions[None, :, :])


def lstm_cell(x: np.ndarray, h: np.ndarray, c: np.ndarray, layer: LstmLayer):
    """One LSTM-with-projection step; returns (h_proj, c)."""
    gates = x @ layer.w_x + h @ layer.w_h + layer.bias
    units = c.shape[0]
    i = sigmoid(gates[:units])
    f = sigmoid(gates[units : 2 * units])
    g = np.tanh(gates[2 * units : 3 * units])
    o = sigmoid(gates[3 * units :])
    c_new = f * c + i * g
    h_proj = (o * np.tanh(c_new)) @ layer.w_p
    return h_proj, c_new


def _lstm_forward(ids_oldest_first, weights: ModelWeights) -> np.ndarray:
    """Run the stacked LSTM over the non-pad labels, oldest first.

    Pads are skipped, so a fresh state yields the zero vector; the recurrent
    state always starts from zero at the window boundary.
    """
    cfg = weights.config
    dtype = weights.dtype
    real = [i for i in ids_oldest_first if i != cfg.pad_id]
    if not real:
        return np.zeros(cfg.lstm_proj, dtype=dtype)
    hs = [np.zeros(cfg.lstm_proj, dtype=dtype) for _ in weights.lstm]
    cs = [np.zeros(cfg.lstm_units, dtype=dtype) for _ in weights.lstm]
    for label in real:
        x = weights.emb[label]
        for li, layer in enumerate(weights.lstm):
            hs[li], cs[li] = lstm_cell(x, hs[li], cs[li], layer)
            x = hs[li]
    return hs[-1]


def prediction_forward(
    state: PredictionState, weights: ModelWeights, config: DecoderConfig
) -> np.ndarray:
    """Prediction-network output g_u for the given history window."""
    check_variant(weights, config)
    if len(state) != config.history_len:
        raise DomainError(f"state holds {len(state)} ids, config expects {config.history_len}")
    if config.variant == REDUCED:
        E = embed(state, weights)
        avg = predict_multi_head(E, weights.positions)
        z = avg @ weights.proj_w + weights.proj_b
        return swish(layer_norm(z, weights.ln_gamma, weights.ln_beta))
    if config.variant == STATELESS_1EMB:
        return embed(state, weights)[0]
    if config.variant == CONCAT_2EMB:
        return embed(state, weights).reshape(-1)
    assert config.variant == LSTM
    return _lstm_forward(state.ids, weights)


def joint_hidden(
    f_t: np.ndarray, g_u: np.ndarray, weights: ModelWeights
) -> np.ndarray:
    """tanh(W_enc f_t + W_pred g_u + b): the joint's last hidden layer.

    ``g_u`` is one prediction output (d_pn,) or a batch (n, d_pn) that all
    meet the same frame.  A batch goes through stacked vector-matrix
    products rather than one matrix product, so every row equals the
    single-vector result bit for bit.
    """
    if f_t.shape != (weights.enc_w.shape[0],):
        raise ShapeError(f"encoder frame {f_t.shape} != ({weights.enc_w.shape[0]},)")
    if g_u.ndim not in (1, 2) or g_u.shape[-1] != weights.pred_w.shape[0]:
        raise ShapeError(
            f"prediction output {g_u.shape} != ([n,] {weights.pred_w.shape[0]})"
        )
    if g_u.ndim == 1:
        pred = g_u @ weights.pred_w
    else:
        pred = np.matmul(g_u[:, None, :], weights.pred_w)[:, 0, :]
    return np.tanh(f_t @ weights.enc_w + pred + weights.joint_b)


def output_logits(h: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """Logits over vocab + blank; blank occupies the last index.

    Non-blank logit v is dot(out_w[v], h); in tied mode out_w[v] is
    embedding row v, so the output layer reuses the embedding storage.
    A batch ``h`` of shape (n, d_h) gives (n, V+1) logits, computed as
    stacked matrix-vector products so that each row is bit-identical to
    the single-vector result.
    """
    logits = np.empty(h.shape[:-1] + weights.out_b.shape, dtype=h.dtype)
    if h.ndim == 1:
        logits[:-1] = weights.out_w @ h
        logits[-1] = weights.blank_w @ h
    else:
        logits[:, :-1] = np.matmul(weights.out_w, h[:, :, None])[:, :, 0]
        logits[:, -1] = np.matmul(h[:, None, :], weights.blank_w[:, None])[:, 0, 0]
    logits += weights.out_b
    return logits


def joint_forward(
    f_t: np.ndarray, g_u: np.ndarray, weights: ModelWeights, config: DecoderConfig
) -> np.ndarray:
    """Full joint network: combine one encoder frame with one PN output,
    or with a batch (n, d_pn) of them to give (n, V+1) logits."""
    check_variant(weights, config)
    return output_logits(joint_hidden(f_t, g_u, weights), weights)

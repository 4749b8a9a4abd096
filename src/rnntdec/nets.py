"""Forward passes for every decoder variant.

The prediction network is a pure function of the last ``history_len``
non-blank labels, so its output can be cached per history window or
precomputed into a lookup table, and many windows can run as one batch.
``prediction_forward`` takes one window (a ``PredictionState``) or an
(n, N) matrix of them and runs both through the same batched body; every
row of a batch equals the single-window output bit for bit, because
batches use stacked vector-matrix products (never one matrix product,
which rounds differently) and row-wise LayerNorm and Swish.
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

    def __eq__(self, other) -> bool:
        return isinstance(other, PredictionState) and self.ids == other.ids

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"PredictionState({self.ids})"


def _id_matrix(history) -> tuple[np.ndarray, bool]:
    """(n, N) recent-first ids of ``history``, and whether it was one state."""
    if isinstance(history, PredictionState):
        return np.array([history.recent_first()]), True
    ids = np.asarray(history)
    if ids.ndim != 2 or ids.dtype.kind not in "iu":
        raise DomainError(
            f"history must be a state or an (n, N) integer id matrix, got {ids.dtype} {ids.shape}"
        )
    return ids, False


def embed(history, weights: ModelWeights) -> np.ndarray:
    """Embeddings of a history window, most recent label first.

    ``history`` is one ``PredictionState``, giving (N, d_e), or an (n, N)
    recent-first id matrix, giving (n, N, d_e).  Every id must index the
    embedding table.
    """
    ids, single = _id_matrix(history)
    n_rows = weights.emb.shape[0]
    outside = (ids < 0) | (ids >= n_rows)
    if np.count_nonzero(outside):
        raise DomainError(f"label id {ids[outside][0]} outside embedding table [0, {n_rows})")
    E = weights.emb[ids]
    return E[0] if single else E


def predict_multi_head(E: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Multi-head position-weighted embedding average.

    ``E`` is (N, d_e) or a batch (n, N, d_e), ``positions`` is (H, N, d_e).
    Each head weights embedding n by dot(E_n, P_hn) (no softmax), and the
    output averages all H*N weighted embeddings into a single d_e vector
    per history.  A batch runs as stacked vector-matrix products, so every
    row equals the single-history result bit for bit.
    """
    if positions.ndim != 3 or E.ndim not in (2, 3) or positions.shape[1:] != E.shape[-2:]:
        raise ShapeError(f"positions {positions.shape} incompatible with embeddings {E.shape}")
    single = E.ndim == 2
    if single:
        E = E[None]
    h, n = positions.shape[0], E.shape[1]
    head_w = (positions[None] * E[:, None]).sum(axis=3)  # (n, H, N)
    avg = np.matmul(head_w.sum(axis=1)[:, None, :], E)[:, 0, :] / (h * n)
    return avg[0] if single else avg


def predict_single_head(E: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Single-head special case: (1/N) sum_n E_n * dot(E_n, P_n)."""
    if positions.ndim != 2 or positions.shape != E.shape:
        raise ShapeError(f"positions {positions.shape} incompatible with embeddings {E.shape}")
    return predict_multi_head(E, positions[None, :, :])


def lstm_cell(x: np.ndarray, h: np.ndarray, c: np.ndarray, layer: LstmLayer, cache=None):
    """One LSTM-with-projection step; returns (h_proj, c).

    ``cache``, when given, is a list that receives the step's activations
    ``(x, h, c, i, f, g, o, tanh(c_new), h_cell)`` for the backward pass.
    """
    gates = x @ layer.w_x + h @ layer.w_h + layer.bias
    units = c.shape[0]
    i = sigmoid(gates[:units])
    f = sigmoid(gates[units : 2 * units])
    g = np.tanh(gates[2 * units : 3 * units])
    o = sigmoid(gates[3 * units :])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_cell = o * tanh_c
    if cache is not None:
        cache.append((x, h, c, i, f, g, o, tanh_c, h_cell))
    return h_cell @ layer.w_p, c_new


def prediction_forward(
    history, weights: ModelWeights, config: DecoderConfig, cache=None
) -> np.ndarray:
    """Prediction-network outputs for one history window or a batch of them.

    ``history`` is a ``PredictionState``, giving g_u as (pn_out,), or an
    (n, N) recent-first id matrix, giving (n, pn_out); a state runs as a
    batch of one.  Reduced batches run as stacked vector-matrix products and
    LayerNorm and Swish run row-wise, so every row equals the single-history
    output bit for bit.  The LSTM runs its histories one after another.

    ``cache``, when given, is a list that receives what the backward pass
    (``backprop.backprop_decoder``) needs from this call: for reduced, one
    tuple ``(avg, z, y)`` of (n, ·) arrays, the head averages, projections
    and LayerNorm outputs; for lstm, one list per history of every
    ``lstm_cell`` activation, step by step and layer by layer; nothing for
    the two embedding variants, whose backward pass needs only the ids.
    """
    check_variant(weights, config)
    ids, single = _id_matrix(history)
    if ids.shape[1] != config.history_len:
        raise DomainError(f"history holds {ids.shape[1]} ids, config expects {config.history_len}")
    E = embed(ids, weights)  # (n, N, d_e)
    if config.variant == REDUCED:
        avg = predict_multi_head(E, weights.positions)
        z = np.matmul(avg[:, None, :], weights.proj_w)[:, 0, :] + weights.proj_b
        y = layer_norm(z, weights.ln_gamma, weights.ln_beta)
        if cache is not None:
            cache.append((avg, z, y))
        out = swish(y)
    elif config.variant == STATELESS_1EMB:
        out = E[:, 0]
    elif config.variant == CONCAT_2EMB:
        out = E.reshape(len(ids), -1)
    else:
        assert config.variant == LSTM
        out = np.stack([_lstm_history(row, E[r], weights, config, cache)
                        for r, row in enumerate(ids.tolist())])
    return out[0] if single else out


def _lstm_history(ids, E, weights: ModelWeights, config: DecoderConfig, cache):
    """Stacked-LSTM output for one history; ``E`` holds its embeddings.

    The LSTM runs over the non-pad labels, oldest first.  Pads are skipped,
    so a fresh state yields the zero vector; the recurrent state always
    starts from zero at the window boundary.
    """
    cells = None
    if cache is not None:
        cells = []
        cache.append(cells)
    hs = [np.zeros(config.lstm_proj, dtype=weights.dtype) for _ in weights.lstm]
    cs = [np.zeros(config.lstm_units, dtype=weights.dtype) for _ in weights.lstm]
    for k in range(len(ids) - 1, -1, -1):
        if ids[k] == config.pad_id:
            continue
        x = E[k]
        for li, layer in enumerate(weights.lstm):
            hs[li], cs[li] = lstm_cell(x, hs[li], cs[li], layer, cells)
            x = hs[li]
    return hs[-1]


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

"""Forward passes for every decoder variant.

The prediction network is a pure function of the last ``history_len``
non-blank labels, so its output can be cached per history window or
precomputed into a lookup table, and many windows can run as one batch.
A window is a row of N label ids, most recent first, with the pad id
standing in for labels before the start; ``prediction_forward`` takes an
(n, N) matrix of them.  Every row of a batch equals the output of its
window run alone, bit for bit, because batches use stacked vector-matrix
products (never one matrix product, which rounds differently) and row-wise
LayerNorm, Swish and LSTM gates.

The joint runs on projections (``joint_forward``): a decoder projects each
frame (``f_t @ enc_w``) and each window's output (``project_prediction``) once.
"""

from __future__ import annotations

import numpy as np

from .config import CONCAT_2EMB, LSTM, REDUCED, STATELESS_1EMB, DecoderConfig
from .errors import DomainError, ShapeError
from .mathops import layer_norm, sigmoid, swish
from .weights import LstmLayer, ModelWeights, check_config


def embed(ids: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """(n, N, d_e) embeddings of an (n, N) recent-first integer id matrix.
    Every id must index the embedding table."""
    try:
        ids = np.asarray(ids)
    except ValueError as e:  # ragged rows
        raise DomainError(f"history must be an (n, N) integer id matrix: {e}") from None
    if ids.ndim != 2 or ids.dtype.kind not in "iu":
        raise DomainError(f"history must be an (n, N) integer id matrix, got {ids.dtype} {ids.shape}")
    n_rows = weights.emb.shape[0]
    outside = (ids < 0) | (ids >= n_rows)
    if np.count_nonzero(outside):
        raise DomainError(f"label id {ids[outside][0]} outside embedding table [0, {n_rows})")
    return weights.emb[ids]


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
    """One LSTM-with-projection step over (rows, ·) arrays; returns (h_proj, c).

    ``cache``, when given, is a list that receives the step's activations
    ``(x, h, c, i, f, g, o, tanh(c_new), h_cell)`` for the backward pass.
    """
    gates = np.matmul(x[:, None], layer.w_x)[:, 0] + np.matmul(h[:, None], layer.w_h)[:, 0]
    gates += layer.bias
    units = c.shape[1]
    i = sigmoid(gates[:, :units])
    f = sigmoid(gates[:, units : 2 * units])
    g = np.tanh(gates[:, 2 * units : 3 * units])
    o = sigmoid(gates[:, 3 * units :])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_cell = o * tanh_c
    if cache is not None:
        cache.append((x, h, c, i, f, g, o, tanh_c, h_cell))
    return np.matmul(h_cell[:, None], layer.w_p)[:, 0], c_new


def prediction_forward(
    ids: np.ndarray, weights: ModelWeights, config: DecoderConfig, cache=None
) -> np.ndarray:
    """(n, pn_out) prediction-network outputs of an (n, N) recent-first id
    matrix, one row per history window; every row equals the output of its
    window run alone, bit for bit.  The LSTM runs its rows in lockstep over
    the N steps, oldest label first, each step only on the rows whose id
    there is not the pad, so an all-pad window yields the zero vector.

    ``cache``, when given, is a list that receives what the prediction
    backward pass of a training or EMBR step (``backprop.step_grads``) needs
    from this call: for reduced, one tuple ``(avg, z, y)`` of (n, ·) arrays,
    the head averages, projections and LayerNorm outputs; for lstm, one
    ``(step, rows, cells)`` entry per step that ran: its non-pad rows and
    each layer's ``lstm_cell`` activations; nothing for the two embedding
    variants.
    """
    config = check_config(weights, config)
    E = embed(ids, weights)  # (n, N, d_e); checks the ids' type, rank and range
    ids = np.asarray(ids)
    if ids.shape[1] != config.history_len:
        raise DomainError(f"history holds {ids.shape[1]} ids, config expects {config.history_len}")
    if config.variant == REDUCED:
        avg = predict_multi_head(E, weights.positions)
        z = np.matmul(avg[:, None, :], weights.proj_w)[:, 0, :] + weights.proj_b
        y = layer_norm(z, weights.ln_gamma, weights.ln_beta)
        if cache is not None:
            cache.append((avg, z, y))
        return swish(y)
    if config.variant == STATELESS_1EMB:
        return E[:, 0]
    if config.variant == CONCAT_2EMB:
        return E.reshape(len(ids), config.pn_out_dim)
    assert config.variant == LSTM
    hs = [np.zeros((len(ids), config.lstm_proj), dtype=weights.dtype) for _ in weights.lstm]
    cs = [np.zeros((len(ids), config.lstm_units), dtype=weights.dtype) for _ in weights.lstm]
    for k in range(config.history_len - 1, -1, -1):
        rows = np.flatnonzero(ids[:, k] != config.pad_id)
        if not rows.size:
            continue
        cells = None if cache is None else []
        x = E[rows, k]
        for li, layer in enumerate(weights.lstm):
            x, cs[li][rows] = lstm_cell(x, hs[li][rows], cs[li][rows], layer, cells)
            hs[li][rows] = x
        if cache is not None:
            cache.append((k, rows, cells))
    return hs[-1]


def project_prediction(g_u: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """W_pred g_u of one prediction output (d_pn,) or of a batch (n, d_pn), as
    stacked vector-matrix products, so every row is the single-vector result."""
    if g_u.ndim not in (1, 2) or g_u.shape[-1] != weights.pred_w.shape[0]:
        raise ShapeError(f"prediction output {g_u.shape} != ([n,] {weights.pred_w.shape[0]})")
    if g_u.ndim == 1:
        return g_u @ weights.pred_w
    return np.matmul(g_u[:, None, :], weights.pred_w)[:, 0, :]


def joint_hidden(enc_proj: np.ndarray, pred_proj: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """tanh(enc_proj + pred_proj + b), the joint's last hidden layer, from a
    projected frame ``f_t @ enc_w`` and ``project_prediction`` rows."""
    return np.tanh(enc_proj + pred_proj + weights.joint_b)


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


def joint_forward(enc_proj: np.ndarray, pred_proj: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """The joint network on projections: (V+1,) logits of one frame ``f_t @ enc_w``
    and one ``project_prediction`` row, or (n, V+1) logits when either operand
    is a batch (n, d_h), row against row.  Each operand is (d_h,) or (n, d_h)."""
    h = weights.joint_b.shape  # (d_h,)
    if enc_proj.shape[-1:] != h or pred_proj.shape[-1:] != h or enc_proj.ndim > 2 or pred_proj.ndim > 2:
        raise ShapeError(f"joint operands {enc_proj.shape}, {pred_proj.shape} != ([n,] {h[0]})")
    return output_logits(joint_hidden(enc_proj, pred_proj, weights), weights)

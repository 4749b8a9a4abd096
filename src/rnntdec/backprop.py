"""Hand-derived backpropagation through the joint and prediction networks.

An optimizer step of training or EMBR is one ``step_grads`` call.  Each
utterance of the batch brings its frames, a (W, N) matrix of history
windows (most recent label first) and an objective that maps its
(T, W, V+1) logits grid to its value and ``dlogits``: the transducer loss
over its target's U+1 windows (``target_windows``), or the risk of an
n-best list over the list's distinct windows.  The prediction network reads
only the last N labels, so the windows of the whole batch run through one
batched ``nets.prediction_forward`` call (the decoder's own, so training
scores exactly what decoding produces) and one prediction backward pass at
the end, the LSTM's in lockstep.  In between, each utterance builds its
grid from its rows (``forward_grid``), runs its objective and
back-propagates it (``backprop_decoder``) into the step's one gradient set:
a name -> array dict keyed by the tensor table, where tied models
accumulate the output-layer gradient into ``emb`` and the pad embedding
row's gradient is zero.

Grid buffers of one utterance, each (T, W, width), every elementwise step
done in place in one of them:

- ``hidden`` (d_h): added, biased and tanh'd in one buffer, then
  overwritten by the backward pass with ``1 - hidden**2``.
- ``logits`` (V+1): the forward pass's result (and, for f4 models, the
  float64 copy ``transducer_loss`` takes).
- ``lp`` (V+1): ``lattice.transducer_loss``'s log-probabilities; their
  buffer becomes ``dlogits``.  ``log_softmax`` briefly holds one more.
- ``d_pre`` (d_h): ``dlogits @ out_full``, scaled in place by the tanh
  derivative.

So at most two d_h-wide grids are live at once, and a step frees each
utterance's grids before it builds the next one's.
"""

from __future__ import annotations

import numpy as np

from .config import LSTM, REDUCED, DecoderConfig
from .errors import DomainError
from .mathops import LN_EPS, sigmoid
from .nets import prediction_forward
from .toy import encode_backward
from .weights import ModelWeights, check_config, get_tensor, specs_of


def zero_grads(weights: ModelWeights) -> dict[str, np.ndarray]:
    """Gradient accumulators for every stored tensor, in archive order.

    Includes frozen position vectors (their gradient stays exactly zero);
    excludes ``out_w`` for tied models, whose output gradient lands in
    ``emb``.
    """
    return {s.name: np.zeros_like(get_tensor(weights, s.name))
            for s in specs_of(weights) if s.alias is None}


def step_grads(items, weights: ModelWeights, config: DecoderConfig):
    """Mean value and mean gradient over a non-empty batch of
    ``(features, frames, ids, objective)`` items, one per utterance.

    ``objective(logits)`` maps the utterance's logits grid over the windows
    ``ids`` to ``(value, dlogits)``; a None ``dlogits`` is a zero gradient
    that still counts in the mean.  ``features`` feed the encoder stub.
    """
    cfg = check_config(weights, config)
    grads = zero_grads(weights)
    ids = np.concatenate([item[2] for item in items])
    pn: list = []
    g_stack = prediction_forward(ids, weights, cfg, pn)
    G = g_stack @ weights.pred_w  # (sum of W, d_h)
    dG = np.zeros(G.shape)
    bounds = np.cumsum([0] + [len(item[2]) for item in items])
    total = 0.0
    for item, lo, hi in zip(items, bounds, bounds[1:]):
        total += _utterance_step(item, G[lo:hi], dG[lo:hi], weights, cfg, grads)
    _prediction_backward(dG, g_stack, ids, pn, weights, cfg, grads)
    for g in grads.values():
        g /= len(items)
    return total / len(items), grads


def _utterance_step(item, G, dG, weights, cfg, grads):
    """One utterance's grid, in a scope of its own so that its grids are
    freed before the next utterance's are built."""
    features, frames, _, objective = item
    logits, hidden = forward_grid(frames, G, weights)
    value, dlogits = objective(logits)
    del logits
    if dlogits is not None:
        dG[...], dframes = backprop_decoder(dlogits, hidden, frames, weights, cfg, grads)
        if weights.enc_stub is not None:
            encode_backward(features, dframes, grads)
    return value


def target_windows(target, config: DecoderConfig) -> np.ndarray:
    """(U+1, N) recent-first history windows of a target: row u holds
    y_{u-1}, ..., y_{u-N}, with the pad id before the start."""
    labels = np.asarray(target, dtype=np.intp)
    if labels.ndim != 1 or ((labels < 0) | (labels >= config.vocab_size)).any():
        raise DomainError(f"target ids must lie in [0, {config.vocab_size})")
    n = config.history_len
    padded = np.concatenate([np.full(n, config.pad_id, dtype=np.intp), labels])
    return padded[np.arange(len(labels) + 1)[:, None] + np.arange(n - 1, -1, -1)]


def forward_grid(frames, G, weights):
    """(logits, hidden) of every frame against every row of G = g @ pred_w."""
    F = frames @ weights.enc_w  # (T, d_h)
    hidden = np.add(F[:, None, :], G[None, :, :])
    hidden += weights.joint_b
    np.tanh(hidden, out=hidden)
    out_full = np.concatenate([weights.out_w, weights.blank_w[None, :]], axis=0)
    logits = hidden @ out_full.T
    logits += weights.out_b
    return logits, hidden


def backprop_decoder(dlogits, hidden, frames, weights, cfg, grads):
    """Accumulate one grid's output, joint and ``enc_w`` gradients; returns
    the gradients w.r.t. G = g @ pred_w and the frames, as (dG, dframes).
    Consumes ``hidden``: it is overwritten with ``1 - hidden**2``."""
    V = cfg.vocab_size
    out_full = np.concatenate([weights.out_w, weights.blank_w[None, :]], axis=0)
    d_out_full = dlogits.reshape(-1, V + 1).T @ hidden.reshape(-1, cfg.d_h)
    grads["emb" if cfg.tied else "out_w"][:V] += d_out_full[:V]
    grads["blank_w"] += d_out_full[V]
    grads["out_b"] += dlogits.sum(axis=(0, 1))

    # d_pre = d_hidden * (1 - hidden**2); 1 - hidden**2 overwrites hidden
    tanh_grad = np.square(hidden, out=hidden)
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    d_pre = dlogits @ out_full  # d_hidden, (T, W, d_h)
    d_pre *= tanh_grad
    grads["joint_b"] += d_pre.sum(axis=(0, 1))
    dF = d_pre.sum(axis=1)  # (T, d_h)
    grads["enc_w"] += frames.T @ dF
    return d_pre.sum(axis=0), dF @ weights.enc_w.T


def _prediction_backward(dG, g_stack, ids, pn, weights, cfg, grads):
    """Chain dG (W, d_h) through ``pred_w`` and the prediction network of
    the (W, N) windows ``ids``; ``pn`` is what ``prediction_forward`` kept."""
    grads["pred_w"] += g_stack.T @ dG
    dg_stack = dG @ weights.pred_w.T
    if cfg.variant == REDUCED:
        _reduced_backward(dg_stack, ids, pn, weights, cfg, grads)
    elif cfg.variant == LSTM:
        _lstm_backward(dg_stack, ids, pn, weights, cfg, grads)
    else:
        # the output is the history's embeddings, most recent first
        np.add.at(grads["emb"], ids, dg_stack.reshape(*ids.shape, cfg.d_e))
    grads["emb"][cfg.pad_id] = 0.0
    if cfg.variant == REDUCED and not cfg.position_trainable:
        grads["positions"][:] = 0.0


def _reduced_backward(dg, ids, pn, weights, cfg, grads):
    """All W windows at once; row w of each array belongs to window w."""
    ((avg, z, y),) = pn
    E = weights.emb[ids]  # (W, N, d_e)
    # swish: g = y * sigmoid(y)
    sig = sigmoid(y)
    dy = dg * (sig * (1.0 + y * (1.0 - sig)))
    # layer norm with population variance, as in mathops.layer_norm
    std = np.sqrt(z.var(axis=1, keepdims=True) + LN_EPS)
    xhat = (z - z.mean(axis=1, keepdims=True)) / std
    grads["ln_gamma"] += (dy * xhat).sum(axis=0)
    grads["ln_beta"] += dy.sum(axis=0)
    dxhat = dy * weights.ln_gamma
    mean_dxhat = dxhat.mean(axis=1, keepdims=True)
    dz = (dxhat - mean_dxhat - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)) / std
    grads["proj_w"] += avg.T @ dz
    grads["proj_b"] += dz.sum(axis=0)
    davg = dz @ weights.proj_w.T
    scale = 1.0 / (cfg.num_heads * cfg.history_len)
    # avg = scale * sum_n wsum_n * E_n with wsum_n = sum_h dot(E_n, P_hn)
    P = weights.positions
    wsum = np.einsum("hnd,und->un", P, E)
    dwsum = scale * np.einsum("und,ud->un", E, davg)
    dE = scale * wsum[:, :, None] * davg[:, None, :]  # via the E_n factor
    dE += np.einsum("un,hnd->und", dwsum, P)  # via the weights
    grads["positions"] += np.einsum("un,und->nd", dwsum, E)  # the same for every head
    np.add.at(grads["emb"], ids, dE)


def _lstm_backward(dg, ids, pn, weights, cfg, grads):
    """All W windows at once, walking ``prediction_forward``'s steps in
    reverse.  A row's output gradient starts at the top layer and passes
    unchanged through the steps that row skips (its pads)."""
    layers = weights.lstm
    dh = [np.zeros((len(dg), cfg.lstm_proj)) for _ in layers]
    dc = [np.zeros((len(dg), cfg.lstm_units)) for _ in layers]
    dh[-1] += dg
    for k, rows, cells in reversed(pn):
        dx = None
        for li in range(len(layers) - 1, -1, -1):
            x, h_prev, c_prev, i, f, g, o, tanh_c, h_cell = cells[li]
            layer = layers[li]
            grad_h = dh[li][rows]
            if dx is not None:
                grad_h += dx
            d_h_cell = grad_h @ layer.w_p.T
            grads[f"lstm{li}_w_p"] += h_cell.T @ grad_h
            do = d_h_cell * tanh_c
            d_c = d_h_cell * o * (1.0 - tanh_c**2) + dc[li][rows]
            dc[li][rows] = d_c * f
            dz = np.concatenate([
                d_c * g * i * (1.0 - i),
                d_c * c_prev * f * (1.0 - f),
                d_c * i * (1.0 - g**2),
                do * o * (1.0 - o),
            ], axis=1)
            grads[f"lstm{li}_w_x"] += x.T @ dz
            grads[f"lstm{li}_w_h"] += h_prev.T @ dz
            grads[f"lstm{li}_bias"] += dz.sum(axis=0)
            dx = dz @ layer.w_x.T
            dh[li][rows] = dz @ layer.w_h.T
        np.add.at(grads["emb"], ids[rows, k], dx)

"""Hand-derived backpropagation through the joint and prediction networks.

``forward_windows`` evaluates a T x W logits grid: every frame of one
utterance against every row of a (W, N) matrix of history windows.  It
sends the W windows through one batched call of the decoder's own
``nets.prediction_forward``, asking it to keep the activations the
backward pass needs; every row of a batch equals the single-history
output, so training scores exactly the prediction outputs decoding
produces.  ``forward_grid`` is its case for one target: the U+1 windows
before each target position, the training grid.  ``backprop_decoder`` then
runs the backward pass over all W windows at once, the LSTM's in lockstep.
Gradients are returned as a flat name -> array dict keyed by the tensor
table (``weights.tensor_specs``); tied models accumulate the output-layer
gradient into the embedding gradient, and the pad embedding row's gradient
is forced to zero.

Grid buffers of one utterance, each (T, W, width), every elementwise step
done in place in one of them:

- ``hidden`` (d_h): ``forward_windows`` adds, biases and tanhs it in one
  buffer and keeps it in the ``ForwardCache``; ``backprop_decoder`` then
  overwrites it with ``1 - hidden**2``, so a cache serves one backward pass.
- ``logits`` (V+1): ``forward_windows``'s result (and, for f4 models, the
  float64 copy ``transducer_loss`` takes).
- ``lp`` (V+1): ``lattice.transducer_loss``'s log-probabilities; their
  buffer becomes ``dlogits``.  ``log_softmax`` briefly holds one more V+1
  grid for its ``exp``.
- ``d_pre`` (d_h): ``backprop_decoder``'s ``dlogits @ out_full``, scaled in
  place by the tanh derivative.

So at most two d_h-wide grids are live at once.

Training and EMBR share one backward chain, ``utterance_grads``: one
``backprop_decoder`` over an utterance's grid, chained into the encoder
stub.  Training feeds it the transducer loss's ``dlogits`` over the target's
grid, EMBR the risk's: each n-best hypothesis's ``dlogits`` over its own
columns of one grid of the list's distinct windows, scaled by
-d(risk)/d(log P(h)) and summed.  ``batch_mean`` averages either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LSTM, REDUCED, DecoderConfig
from .errors import DomainError, StateError
from .mathops import LN_EPS, sigmoid
from .nets import prediction_forward
from .toy import encode_backward
from .weights import ModelWeights, check_config, get_tensor, specs_of


@dataclass
class ForwardCache:
    frames: np.ndarray  # (T, d_enc)
    ids: np.ndarray  # (W, N) history windows, recent first
    g_stack: np.ndarray  # (W, pn_out)
    pn: list  # what prediction_forward kept for backprop
    hidden: np.ndarray | None  # (T, W, d_h); None once a backward pass used it


def zero_grads(weights: ModelWeights) -> dict[str, np.ndarray]:
    """Gradient accumulators for every stored tensor, in archive order.

    Includes frozen position vectors (their gradient stays exactly zero);
    excludes ``out_w`` for tied models, whose output gradient lands in
    ``emb``.
    """
    return {
        s.name: np.zeros_like(get_tensor(weights, s.name))
        for s in specs_of(weights)
        if s.alias is None
    }


def utterance_grads(features: np.ndarray, dlogits: np.ndarray, cache: ForwardCache,
                    weights: ModelWeights, config: DecoderConfig):
    """Gradient of one utterance's objective from its ``dlogits`` over the
    grid ``cache`` came from, chained into the encoder stub (fed
    ``features``) when the model has one.  Uses up the cache."""
    grads, dframes = backprop_decoder(dlogits, cache, weights, config)
    if weights.enc_stub is not None:
        encode_backward(features, dframes, grads)
    return grads


def batch_mean(pairs, weights: ModelWeights):
    """Mean value and mean gradient over (value, grads) pairs, summed into the
    first pair's gradients; an empty batch gives 0.0 and zero gradients."""
    total, grads, n = 0.0, None, 0
    for value, pair_grads in pairs:
        total += value
        n += 1
        if grads is None:
            grads = pair_grads
            continue
        for name, g in pair_grads.items():
            grads[name] += g
    if grads is None:
        return 0.0, zero_grads(weights)
    for g in grads.values():
        g /= n
    return total / n, grads


def target_windows(target, config: DecoderConfig) -> np.ndarray:
    """(U+1, N) recent-first history windows of a target: row u holds
    y_{u-1}, ..., y_{u-N}, with the pad id before the start."""
    labels = np.asarray(target, dtype=np.intp)
    if labels.ndim != 1 or ((labels < 0) | (labels >= config.vocab_size)).any():
        raise DomainError(f"target ids must lie in [0, {config.vocab_size})")
    n = config.history_len
    padded = np.concatenate([np.full(n, config.pad_id, dtype=np.intp), labels])
    return padded[np.arange(len(labels) + 1)[:, None] + np.arange(n - 1, -1, -1)]


def forward_grid(frames: np.ndarray, target, weights: ModelWeights, config: DecoderConfig):
    """Logits over the whole alignment grid of ``target``, with cached
    activations: ``forward_windows`` over its U+1 history windows.

    Returns (logits (T, U+1, V+1), ForwardCache).
    """
    config = check_config(weights, config)
    return forward_windows(frames, target_windows(target, config), weights, config)


def forward_windows(frames: np.ndarray, ids: np.ndarray, weights: ModelWeights,
                    config: DecoderConfig):
    """Logits of every frame against every window of the (W, N) recent-first
    id matrix ``ids``, with cached activations.

    Returns (logits (T, W, V+1), ForwardCache).
    """
    config = check_config(weights, config)
    pn: list = []
    g_stack = prediction_forward(ids, weights, config, pn)

    F = frames @ weights.enc_w  # (T, d_h)
    G = g_stack @ weights.pred_w  # (W, d_h)
    hidden = np.add(F[:, None, :], G[None, :, :])
    hidden += weights.joint_b
    np.tanh(hidden, out=hidden)
    out_full = np.concatenate([weights.out_w, weights.blank_w[None, :]], axis=0)
    logits = hidden @ out_full.T
    logits += weights.out_b
    return logits, ForwardCache(frames, ids, g_stack, pn, hidden)


def backprop_decoder(
    dlogits: np.ndarray,
    cache: ForwardCache,
    weights: ModelWeights,
    config: DecoderConfig,
):
    """Chain dloss/dlogits back to every tensor.

    Returns (grads, dframes): ``grads`` maps tensor names to gradients and
    ``dframes`` is the gradient w.r.t. the encoder frames, for chaining into
    an encoder.  The cache's ``hidden`` grid becomes scratch space, so a
    second backward pass through the same cache raises StateError.
    """
    cfg = check_config(weights, config)
    if cache is None:
        raise StateError("backprop_decoder needs the cache from forward_grid")
    if cache.hidden is None:
        raise StateError("this forward cache was already used by a backward pass")
    V = cfg.vocab_size
    grads = zero_grads(weights)

    hidden, cache.hidden = cache.hidden, None
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
    grads["enc_w"] += cache.frames.T @ dF
    dframes = dF @ weights.enc_w.T
    dG = d_pre.sum(axis=0)  # (W, d_h)
    grads["pred_w"] += cache.g_stack.T @ dG
    dg_stack = dG @ weights.pred_w.T

    if cfg.variant == REDUCED:
        _reduced_backward(dg_stack, cache, weights, cfg, grads)
    elif cfg.variant == LSTM:
        _lstm_backward(dg_stack, cache, weights, cfg, grads)
    else:
        # the output is the history's embeddings, most recent first
        np.add.at(grads["emb"], cache.ids, dg_stack.reshape(*cache.ids.shape, cfg.d_e))

    grads["emb"][cfg.pad_id] = 0.0
    if cfg.variant == REDUCED and not cfg.position_trainable:
        grads["positions"][:] = 0.0
    return grads, dframes


def _reduced_backward(dg, cache: ForwardCache, weights, cfg, grads):
    """All W windows at once; row w of each array belongs to window w."""
    ((avg, z, y),) = cache.pn
    E = weights.emb[cache.ids]  # (W, N, d_e)
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
    np.add.at(grads["emb"], cache.ids, dE)


def _lstm_backward(dg, cache: ForwardCache, weights, cfg, grads):
    """All W windows at once, walking ``prediction_forward``'s steps in
    reverse.  A row's output gradient starts at the top layer and passes
    unchanged through the steps that row skips (its pads)."""
    layers = weights.lstm
    dh = [np.zeros((len(dg), cfg.lstm_proj)) for _ in layers]
    dc = [np.zeros((len(dg), cfg.lstm_units)) for _ in layers]
    dh[-1] += dg
    for k, rows, cells in reversed(cache.pn):
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
        np.add.at(grads["emb"], cache.ids[rows, k], dx)

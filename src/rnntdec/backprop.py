"""Hand-derived backpropagation through the joint and prediction networks.

``forward_grid`` evaluates the full T x (U+1) logits grid for one utterance
while caching every intermediate needed by ``backprop_decoder``.  Gradients
are returned as a flat name -> array dict matching the tensor names used by
``weights.trainable_tensors``; tied models accumulate the output-layer
gradient into the embedding gradient, and the pad embedding row's gradient
is forced to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CONCAT_2EMB, LSTM, REDUCED, STATELESS_1EMB, DecoderConfig
from .errors import StateError
from .mathops import LN_EPS, sigmoid
from .nets import PredictionState, predict_multi_head
from .weights import ModelWeights, check_variant


@dataclass
class ReducedCache:
    ids: tuple[int, ...]  # recent first
    E: np.ndarray
    head_w: np.ndarray  # (H, N)
    avg: np.ndarray
    z: np.ndarray
    inv_std: float
    xhat: np.ndarray
    y: np.ndarray
    sig: np.ndarray


@dataclass
class EmbeddingCache:
    ids: tuple[int, ...]  # recent first


@dataclass
class LstmStepCache:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tanh_c: np.ndarray
    h_cell: np.ndarray


@dataclass
class LstmCache:
    labels: list[int]  # non-pad labels, oldest first
    steps: list[list[LstmStepCache]]  # [step][layer]


@dataclass
class ForwardCache:
    frames: np.ndarray  # (T, d_enc)
    g_stack: np.ndarray  # (U+1, pn_out)
    pn: list
    hidden: np.ndarray  # (T, U+1, d_h)
    logits: np.ndarray  # (T, U+1, V+1)


def _pn_forward_cached(state: PredictionState, weights: ModelWeights, config: DecoderConfig):
    """Prediction output plus the cache its backward pass needs."""
    ids = state.recent_first()
    if config.variant == REDUCED:
        E = weights.emb[list(ids)]
        head_w = (weights.positions * E[None, :, :]).sum(axis=2)
        avg = predict_multi_head(E, weights.positions)
        z = avg @ weights.proj_w + weights.proj_b
        mean = z.mean()
        inv_std = 1.0 / np.sqrt(z.var() + LN_EPS)
        xhat = (z - mean) * inv_std
        y = xhat * weights.ln_gamma + weights.ln_beta
        sig = sigmoid(y)
        return y * sig, ReducedCache(ids, E, head_w, avg, z, inv_std, xhat, y, sig)
    if config.variant == STATELESS_1EMB:
        return weights.emb[ids[0]].copy(), EmbeddingCache(ids)
    if config.variant == CONCAT_2EMB:
        return weights.emb[list(ids)].reshape(-1), EmbeddingCache(ids)
    assert config.variant == LSTM
    return _lstm_forward_cached(state.ids, weights)


def _lstm_forward_cached(ids_oldest_first, weights: ModelWeights):
    cfg = weights.config
    labels = [i for i in ids_oldest_first if i != cfg.pad_id]
    cache = LstmCache(labels, [])
    if not labels:
        return np.zeros(cfg.lstm_proj, dtype=weights.dtype), cache
    hs = [np.zeros(cfg.lstm_proj, dtype=weights.dtype) for _ in weights.lstm]
    cs = [np.zeros(cfg.lstm_units, dtype=weights.dtype) for _ in weights.lstm]
    units = cfg.lstm_units
    for label in labels:
        x = weights.emb[label]
        step_caches = []
        for li, layer in enumerate(weights.lstm):
            gates = x @ layer.w_x + hs[li] @ layer.w_h + layer.bias
            i = sigmoid(gates[:units])
            f = sigmoid(gates[units : 2 * units])
            g = np.tanh(gates[2 * units : 3 * units])
            o = sigmoid(gates[3 * units :])
            c_new = f * cs[li] + i * g
            tanh_c = np.tanh(c_new)
            h_cell = o * tanh_c
            h_proj = h_cell @ layer.w_p
            step_caches.append(LstmStepCache(x, hs[li], cs[li], i, f, g, o, tanh_c, h_cell))
            hs[li], cs[li] = h_proj, c_new
            x = h_proj
        cache.steps.append(step_caches)
    return hs[-1], cache


def zero_grads(weights: ModelWeights) -> dict[str, np.ndarray]:
    """Gradient accumulators for every tensor that can receive one.

    Includes frozen position vectors (their gradient stays exactly zero);
    excludes ``out_w`` for tied models, whose output gradient lands in
    ``emb``.
    """
    cfg = weights.config
    grads = {"emb": np.zeros_like(weights.emb)}
    if cfg.variant == REDUCED:
        grads["positions"] = np.zeros_like(weights.positions)
        grads["proj_w"] = np.zeros_like(weights.proj_w)
        grads["proj_b"] = np.zeros_like(weights.proj_b)
        grads["ln_gamma"] = np.zeros_like(weights.ln_gamma)
        grads["ln_beta"] = np.zeros_like(weights.ln_beta)
    elif cfg.variant == LSTM:
        for i, layer in enumerate(weights.lstm):
            grads[f"lstm{i}_w_x"] = np.zeros_like(layer.w_x)
            grads[f"lstm{i}_w_h"] = np.zeros_like(layer.w_h)
            grads[f"lstm{i}_bias"] = np.zeros_like(layer.bias)
            grads[f"lstm{i}_w_p"] = np.zeros_like(layer.w_p)
    grads["enc_w"] = np.zeros_like(weights.enc_w)
    grads["pred_w"] = np.zeros_like(weights.pred_w)
    grads["joint_b"] = np.zeros_like(weights.joint_b)
    if not cfg.tied:
        grads["out_w"] = np.zeros_like(weights.out_w)
    grads["blank_w"] = np.zeros_like(weights.blank_w)
    grads["out_b"] = np.zeros_like(weights.out_b)
    if weights.enc_stub is not None:
        grads["enc_stub_w"] = np.zeros_like(weights.enc_stub.w)
        grads["enc_stub_b"] = np.zeros_like(weights.enc_stub.b)
    return grads


def forward_grid(frames: np.ndarray, target, weights: ModelWeights, config: DecoderConfig):
    """Logits over the whole alignment grid, with cached activations.

    Returns (logits (T, U+1, V+1), ForwardCache).
    """
    check_variant(weights, config)
    target = list(target)
    T = frames.shape[0]
    state = PredictionState.initial(config)
    g_list, pn_caches = [], []
    g, cache = _pn_forward_cached(state, weights, config)
    g_list.append(g)
    pn_caches.append(cache)
    for y in target:
        state = state.push(y)
        g, cache = _pn_forward_cached(state, weights, config)
        g_list.append(g)
        pn_caches.append(cache)
    g_stack = np.stack(g_list)  # (U+1, pn_out)

    F = frames @ weights.enc_w  # (T, d_h)
    G = g_stack @ weights.pred_w  # (U+1, d_h)
    hidden = np.tanh(F[:, None, :] + G[None, :, :] + weights.joint_b)
    out_full = np.concatenate([weights.out_w, weights.blank_w[None, :]], axis=0)
    logits = hidden @ out_full.T + weights.out_b
    return logits, ForwardCache(frames, g_stack, pn_caches, hidden, logits)


def backprop_decoder(
    dlogits: np.ndarray,
    cache: ForwardCache,
    weights: ModelWeights,
    config: DecoderConfig,
):
    """Chain dloss/dlogits back to every tensor.

    Returns (grads, dframes): ``grads`` maps tensor names to gradients and
    ``dframes`` is the gradient w.r.t. the encoder frames, for chaining into
    an encoder.
    """
    check_variant(weights, config)
    if cache is None:
        raise StateError("backprop_decoder needs the cache from forward_grid")
    cfg = config
    V = cfg.vocab_size
    grads = zero_grads(weights)

    hidden = cache.hidden
    out_full = np.concatenate([weights.out_w, weights.blank_w[None, :]], axis=0)
    d_hidden = dlogits @ out_full  # (T, U+1, d_h)
    d_out_full = dlogits.reshape(-1, V + 1).T @ hidden.reshape(-1, cfg.d_h)
    if cfg.tied:
        grads["emb"][:V] += d_out_full[:V]
    else:
        grads["out_w"] += d_out_full[:V]
    grads["blank_w"] += d_out_full[V]
    grads["out_b"] += dlogits.sum(axis=(0, 1))

    d_pre = d_hidden * (1.0 - hidden**2)
    grads["joint_b"] += d_pre.sum(axis=(0, 1))
    dF = d_pre.sum(axis=1)  # (T, d_h)
    grads["enc_w"] += cache.frames.T @ dF
    dframes = dF @ weights.enc_w.T
    dG = d_pre.sum(axis=0)  # (U+1, d_h)
    grads["pred_w"] += cache.g_stack.T @ dG
    dg_stack = dG @ weights.pred_w.T

    for u, pn_cache in enumerate(cache.pn):
        _pn_backward(dg_stack[u], pn_cache, weights, cfg, grads)

    grads["emb"][cfg.pad_id] = 0.0
    if cfg.variant == REDUCED and not cfg.position_trainable:
        grads["positions"][:] = 0.0
    return grads, dframes


def _pn_backward(dg, pn_cache, weights, cfg, grads):
    if cfg.variant == REDUCED:
        _reduced_backward(dg, pn_cache, weights, cfg, grads)
    elif cfg.variant == STATELESS_1EMB:
        grads["emb"][pn_cache.ids[0]] += dg
    elif cfg.variant == CONCAT_2EMB:
        halves = dg.reshape(2, cfg.d_e)
        grads["emb"][pn_cache.ids[0]] += halves[0]
        grads["emb"][pn_cache.ids[1]] += halves[1]
    else:
        _lstm_backward(dg, pn_cache, weights, cfg, grads)


def _reduced_backward(dg, c: ReducedCache, weights, cfg, grads):
    # swish: g = y * sigmoid(y)
    dy = dg * (c.sig * (1.0 + c.y * (1.0 - c.sig)))
    grads["ln_gamma"] += dy * c.xhat
    grads["ln_beta"] += dy
    dxhat = dy * weights.ln_gamma
    # layer norm with population variance
    dz = c.inv_std * (dxhat - dxhat.mean() - c.xhat * (dxhat * c.xhat).mean())
    grads["proj_w"] += np.outer(c.avg, dz)
    grads["proj_b"] += dz
    davg = weights.proj_w @ dz
    scale = 1.0 / (cfg.num_heads * cfg.history_len)
    # avg = scale * sum_n wsum_n * E_n with wsum_n = sum_h dot(E_n, P_hn)
    dwsum = scale * (c.E @ davg)  # (N,)
    dE = scale * np.outer(c.head_w.sum(axis=0), davg)  # via the E_n factor
    dE += (weights.positions * dwsum[None, :, None]).sum(axis=0)  # via the weights
    grads["positions"] += dwsum[None, :, None] * c.E[None, :, :]
    for n, label in enumerate(c.ids):
        grads["emb"][label] += dE[n]


def _lstm_backward(dg, c: LstmCache, weights, cfg, grads):
    if not c.labels:
        return
    layers = weights.lstm
    L = len(layers)
    dh_carry = [np.zeros(cfg.lstm_proj) for _ in range(L)]
    dc_carry = [np.zeros(cfg.lstm_units) for _ in range(L)]
    last = len(c.labels) - 1
    for t in range(last, -1, -1):
        dx_above = None
        for li in range(L - 1, -1, -1):
            sc = c.steps[t][li]
            layer = layers[li]
            grad_h = dh_carry[li].copy()
            if li == L - 1:
                if t == last:
                    grad_h += dg
            else:
                grad_h += dx_above
            d_h_cell = layer.w_p @ grad_h
            grads[f"lstm{li}_w_p"] += np.outer(sc.h_cell, grad_h)
            do = d_h_cell * sc.tanh_c
            dc = d_h_cell * sc.o * (1.0 - sc.tanh_c**2) + dc_carry[li]
            di = dc * sc.g
            df = dc * sc.c_prev
            dgate = dc * sc.i
            dc_carry[li] = dc * sc.f
            dz = np.concatenate([
                di * sc.i * (1.0 - sc.i),
                df * sc.f * (1.0 - sc.f),
                dgate * (1.0 - sc.g**2),
                do * sc.o * (1.0 - sc.o),
            ])
            grads[f"lstm{li}_w_x"] += np.outer(sc.x, dz)
            grads[f"lstm{li}_w_h"] += np.outer(sc.h_prev, dz)
            grads[f"lstm{li}_bias"] += dz
            dx_above = layer.w_x @ dz
            dh_carry[li] = layer.w_h @ dz
        grads["emb"][c.labels[t]] += dx_above

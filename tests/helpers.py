"""Shared test utilities: tiny configs, rigged models, and the independent
oracles (naive loops, exhaustive enumerations, finite differences) the
implementation is checked against."""

from __future__ import annotations

import numpy as np

from rnntdec import DecoderConfig, SeededRng
from rnntdec.lattice import transducer_loss
from rnntdec.mathops import LN_EPS, log_softmax, logaddexp
from rnntdec.nets import joint_forward, prediction_forward, project_prediction
from rnntdec.toy import Utterance, encode_backward
from rnntdec.train import utterance_loss_grads
from rnntdec.weights import init_encoder_stub, init_weights, trainable_tensors


def tiny_config(variant="reduced", **overrides) -> DecoderConfig:
    base = dict(
        variant=variant, vocab_size=4, d_e=5, d_h=5, d_enc=4,
        history_len=2, num_heads=2, tied=False, max_symbols_per_frame=10,
    )
    if variant == "stateless1emb":
        base["history_len"] = 1
    if variant == "lstm":
        base.update(lstm_layers=2, lstm_units=6, lstm_proj=5, history_len=2)
    base.update(overrides)
    return DecoderConfig(**base)


def tiny_model(config: DecoderConfig, seed=0, d_feat=None):
    w = init_weights(config, seed=seed)
    if d_feat is not None:
        w.enc_stub = init_encoder_stub(d_feat, config.d_enc, seed)
    return w


def window_of(labels, config) -> tuple[int, ...]:
    """The history window after ``labels``: their last N, oldest first,
    padded with the pad id."""
    return ((config.pad_id,) * config.history_len + tuple(labels))[-config.history_len:]


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def step_log_probs(f_t, labels, weights, config) -> np.ndarray:
    """Log-probs of one decode step at frame ``f_t`` after ``labels``,
    computed from scratch: the prediction network on the step's own window,
    then the joint on the projected frame and prediction output."""
    g = prediction_forward(np.array([window_of(labels, config)[::-1]]), weights, config)[0]
    return log_softmax(joint_forward(f_t @ weights.enc_w, project_prediction(g, weights), weights))


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function filled through boolean masks: 1 / (1 + exp(-x))
    where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def vector_layer_norm(x: np.ndarray, gamma, beta, eps: float = LN_EPS) -> np.ndarray:
    """LayerNorm of one vector through ``ndarray.mean`` and ``ndarray.var``
    (population variance)."""
    return (x - x.mean()) / np.sqrt(x.var() + eps) * gamma + beta


def fresh_log_softmax(logits: np.ndarray) -> np.ndarray:
    """log_softmax through ``ndarray.max``/``ndarray.sum``, one fresh array
    per step: shifted = x - max, then shifted - log(sum(exp(shifted)))."""
    logits = np.asarray(logits)
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def enumerate_alignment_ll(log_probs: np.ndarray, target) -> float:
    """Brute-force sum over all alignment paths of the standard lattice.

    ``log_probs`` is the already-normalized (T, U+1, V+1) grid.
    """
    T, _, num_logits = log_probs.shape
    U = len(target)
    blank = num_logits - 1

    def rec(t, u):
        paths = []
        if t == T - 1 and u == U:
            paths.append(log_probs[t, u, blank])
        if t < T - 1:
            tail = rec(t + 1, u)
            paths.extend(log_probs[t, u, blank] + p for p in tail)
        if u < U:
            tail = rec(t, u + 1)
            paths.extend(log_probs[t, u, target[u]] + p for p in tail)
        return paths

    paths = rec(0, 0)
    m = max(paths)
    return m + np.log(sum(np.exp(p - m) for p in paths))


def naive_lattice(log_probs: np.ndarray, target):
    """Cell-by-cell alpha/beta recursions and the logits gradient from them.

    ``log_probs`` is the already-normalized (T, U+1, V+1) grid.  Returns
    (log_alpha, log_beta, dlogits), each filled one scalar at a time.
    """
    T, _, num_logits = log_probs.shape
    U = len(target)
    blank = num_logits - 1
    lp_blank = log_probs[:, :, blank]

    def lp_label(t, u):
        return log_probs[t, u, target[u]]

    log_alpha = np.full((T, U + 1), -np.inf)
    log_alpha[0, 0] = 0.0
    for t in range(T):
        for u in range(U + 1):
            if t == 0 and u == 0:
                continue
            from_blank = log_alpha[t - 1, u] + lp_blank[t - 1, u] if t > 0 else -np.inf
            from_label = log_alpha[t, u - 1] + lp_label(t, u - 1) if u > 0 else -np.inf
            log_alpha[t, u] = np.logaddexp(from_blank, from_label)

    log_beta = np.full((T, U + 1), -np.inf)
    log_beta[T - 1, U] = lp_blank[T - 1, U]
    for t in range(T - 1, -1, -1):
        for u in range(U, -1, -1):
            if t == T - 1 and u == U:
                continue
            via_blank = lp_blank[t, u] + log_beta[t + 1, u] if t < T - 1 else -np.inf
            via_label = lp_label(t, u) + log_beta[t, u + 1] if u < U else -np.inf
            log_beta[t, u] = np.logaddexp(via_blank, via_label)

    ll = log_alpha[T - 1, U] + lp_blank[T - 1, U]
    dlogits = np.zeros_like(log_probs)
    for t in range(T):
        for u in range(U + 1):
            if t < T - 1:
                occ_blank = np.exp(log_alpha[t, u] + lp_blank[t, u] + log_beta[t + 1, u] - ll)
            elif u == U:
                occ_blank = np.exp(log_alpha[t, u] + lp_blank[t, u] - ll)
            else:
                occ_blank = 0.0
            occ_label = 0.0
            if u < U:
                occ_label = np.exp(log_alpha[t, u] + lp_label(t, u) + log_beta[t, u + 1] - ll)
            for k in range(num_logits):
                dlogits[t, u, k] = (occ_blank + occ_label) * np.exp(log_probs[t, u, k])
            dlogits[t, u, blank] -= occ_blank
            if u < U:
                dlogits[t, u, target[u]] -= occ_label
    return log_alpha, log_beta, dlogits


def dp_edit_distance(hyp, ref) -> int:
    """Levenshtein distance by the textbook dynamic program, one row of the
    (len(hyp)+1) x (len(ref)+1) table at a time."""
    hyp = list(hyp)
    ref = list(ref)
    if not hyp:
        return len(ref)
    if not ref:
        return len(hyp)
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            cur[j] = min(
                prev[j] + 1,  # deletion of h
                cur[j - 1] + 1,  # insertion of r
                prev[j - 1] + (h != r),  # substitution / match
            )
        prev = cur
    return prev[-1]


def naive_greedy_decode(frames, weights, config) -> tuple[list[int], float]:
    """Greedy decoding one step at a time (``step_log_probs``, no cache):
    at each frame, up to ``max_symbols_per_frame`` argmax steps, each either
    a blank that ends the frame or a label that is emitted.  Returns the
    labels and the sum of the chosen log-probs, in step order."""
    labels: list[int] = []
    log_prob = 0.0
    for f_t in frames:
        for _ in range(config.max_symbols_per_frame):
            logp = step_log_probs(f_t, labels, weights, config)
            k = int(np.argmax(logp))
            log_prob += float(logp[k])
            if k == config.blank_id:
                break
            labels.append(k)
    return labels, log_prob


def naive_beam_decode(frames, weights, config, beam_width) -> list[tuple[tuple[int, ...], float]]:
    """Beam search one hypothesis and one vocabulary label at a time.

    The same search as ``beam_decode`` (``max_symbols_per_frame + 1`` rounds
    per frame, label-sequence merging, top-B by ``(-log_prob, labels)``),
    written as a joint call per hypothesis and a Python loop over the
    vocabulary that puts every extension into a dict and sorts all of them.
    Returns the n-best ``(labels, log_prob)`` pairs sorted like ``beam_decode``.
    """
    blank = config.blank_id

    def top_b(d):
        if len(d) <= beam_width:
            return d
        return dict(sorted(d.items(), key=lambda kv: (-kv[1], kv[0]))[:beam_width])

    beams = {(): 0.0}
    for t in range(frames.shape[0]):
        next_beams = {}
        frontier = beams
        for round_idx in range(config.max_symbols_per_frame + 1):
            extended = {}
            for labels, lp in frontier.items():
                logp = step_log_probs(frames[t], labels, weights, config)
                blank_lp = lp + float(logp[blank])
                prev = next_beams.get(labels)
                next_beams[labels] = blank_lp if prev is None else logaddexp(prev, blank_lp)
                if round_idx < config.max_symbols_per_frame:
                    for v in range(config.vocab_size):
                        seq = labels + (v,)
                        cand = lp + float(logp[v])
                        prev = extended.get(seq)
                        extended[seq] = cand if prev is None else logaddexp(prev, cand)
            frontier = top_b(extended)
        beams = top_b(next_beams)
    return sorted(beams.items(), key=lambda kv: (-kv[1], kv[0]))


def enumerate_decode_paths(frames, weights, config) -> dict[tuple[int, ...], float]:
    """All capped decode paths, grouped by emitted label sequence.

    Independent of beam_decode: plain depth-first recursion over every
    blank/label decision with the per-frame symbol cap, merging path
    probabilities per label sequence in the log domain.
    """
    blank = config.blank_id
    seqs: dict[tuple[int, ...], float] = {}

    def rec(t, labels, emitted, lp):
        if t == frames.shape[0]:
            seqs[labels] = np.logaddexp(seqs[labels], lp) if labels in seqs else lp
            return
        logp = step_log_probs(frames[t], labels, weights, config)
        rec(t + 1, labels, 0, lp + float(logp[blank]))
        if emitted < config.max_symbols_per_frame:
            for v in range(config.vocab_size):
                rec(t, labels + (v,), emitted + 1, lp + float(logp[v]))

    rec(0, (), 0, 0.0)
    return seqs


def fd_gradients(objective, tensors: dict[str, np.ndarray], h=1e-5, skip=None):
    """Central finite differences of ``objective()`` w.r.t. every tensor entry.

    ``skip`` maps tensor names to boolean masks of entries to leave out
    (e.g. the pinned pad embedding row).
    """
    out = {}
    for name, arr in tensors.items():
        mask = None if skip is None else skip.get(name)
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        mflat = None if mask is None else mask.reshape(-1)
        for i in range(flat.size):
            if mflat is not None and mflat[i]:
                continue
            orig = flat[i]
            flat[i] = orig + h
            plus = objective()
            flat[i] = orig - h
            minus = objective()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * h)
        out[name] = grad
    return out


def pad_row_mask(weights) -> dict[str, np.ndarray]:
    """Skip-mask pinning the pad embedding row out of FD comparisons."""
    mask = np.zeros(weights.emb.shape, dtype=bool)
    mask[weights.config.pad_id] = True
    return {"emb": mask}


def assert_grads_close(analytic, numeric, rtol=1e-4, skip=None):
    """Entrywise |a - n| <= rtol * max(|a|, |n|) + atol.

    The absolute floor is 1e-5 of the tensor's own gradient scale (plus 1e-9
    for roundoff), which absorbs the finite-difference scheme's truncation
    noise on near-zero entries while staying five orders of magnitude below
    any real gradient defect.
    """
    for name, num in numeric.items():
        ana = analytic[name]
        mask = None if skip is None else skip.get(name)
        scale = max(np.abs(ana).max(), np.abs(num).max())
        atol = 1e-5 * scale + 1e-9
        diff = np.abs(ana - num)
        bound = rtol * np.maximum(np.abs(ana), np.abs(num)) + atol
        bad = diff > bound
        if mask is not None:
            bad &= ~mask
        assert not bad.any(), (
            f"{name}: {int(bad.sum())} entries exceed tolerance; worst "
            f"analytic={ana[bad][0]!r} numeric={num[bad][0]!r}"
        )


def loss_objective(utt: Utterance, weights, config):
    """Closure returning the utterance transducer loss at current weights."""

    def objective():
        return utterance_loss_grads(utt, weights, config)[0]

    return objective


# ---------------------------------------------------------------------------
# Rigged models for decode tests
# ---------------------------------------------------------------------------


def all_blank_model(config: DecoderConfig, bias=50.0):
    """Model whose blank logit dominates every frame."""
    w = init_weights(config, seed=0)
    for t in trainable_tensors(w).values():
        t[:] = 0.0
    if w.ln_gamma is not None:
        w.ln_gamma[:] = 1.0
    w.out_b[config.blank_id] = bias
    return w


def one_label_then_blank_model():
    """Stateless model emitting label 0 at (t=0, u=0) and blank elsewhere.

    d_enc == d_h == d_e == 3, vocab 2: the joint hidden is tanh(f_t + g) with
    identity projections; output rows select coordinates, so frame 0 pushes
    logit 0 up while the fed-back embedding of label 0 pushes blank up.
    """
    cfg = DecoderConfig(
        variant="stateless1emb", vocab_size=2, d_e=3, d_h=3, d_enc=3,
        history_len=1, max_symbols_per_frame=4,
    )
    w = init_weights(cfg, seed=0)
    for t in trainable_tensors(w).values():
        t[:] = 0.0
    w.enc_w[:] = np.eye(3)
    w.pred_w[:] = np.eye(3)
    scale = 8.0
    w.out_w[:] = scale * np.eye(3)[:2]
    w.blank_w[:] = scale * np.eye(3)[2]
    w.emb[0] = [0.0, 0.0, 2.0]  # feeding back label 0 boosts the blank logit
    w.emb[1] = [0.0, 1.0, 0.0]
    frames = np.array([
        [1.0, 0.0, 0.0],  # favours label 0 on a fresh history
        [0.0, 0.0, 1.0],  # favours blank outright
    ])
    return cfg, w, frames

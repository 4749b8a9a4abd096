"""Independent float64 reference of the reduced, tied transducer decoder.

Written from the paper's equations, not from the package: the prediction
network averages the last N label embeddings, each weighted per head by
its dot product with a fixed position vector, then applies projection,
LayerNorm (population variance) and Swish; the joint is
tanh(W_enc f + W_pred g + b) followed by the output rows (the embedding
rows themselves when tied, plus a separate blank row) and a log-softmax.
Blank is the last class and the pad id (= vocab size) has a zero
embedding.  The alpha recursion, Levenshtein distance and softmax risk
below are likewise the benchmark's own.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-6


class RefModel:
    """float64 copies of the tensors the equations use.

    Reads the weights object afresh on every construction, so a caller that
    perturbs a weight in place sees the change in the next ``RefModel``.
    """

    def __init__(self, weights, config):
        f8 = lambda a: np.asarray(a, dtype=np.float64)  # noqa: E731
        self.V = config.vocab_size
        self.N = config.history_len
        self.H = config.num_heads
        self.cap = config.max_symbols_per_frame
        self.emb = f8(weights.emb)
        self.P = f8(weights.positions)
        self.proj_w = f8(weights.proj_w)
        self.proj_b = f8(weights.proj_b)
        self.gamma = f8(weights.ln_gamma)
        self.beta = f8(weights.ln_beta)
        self.enc_w = f8(weights.enc_w)
        self.pred_w = f8(weights.pred_w)
        self.joint_b = f8(weights.joint_b)
        rows = self.emb[: self.V] if config.tied else f8(weights.out_w)
        self.out_rows = np.vstack([rows, f8(weights.blank_w)[None, :]])
        self.out_b = f8(weights.out_b)
        stub = weights.enc_stub
        self.stub = None if stub is None else (f8(stub.w), f8(stub.b))

    def frames(self, features):
        w, b = self.stub
        return np.asarray(features, dtype=np.float64) @ w + b

    def pn(self, history):
        """g_u for the labels emitted so far (oldest first)."""
        recent = list(history[::-1][: self.N])
        ids = recent + [self.V] * (self.N - len(recent))
        E = self.emb[ids]  # (N, d), row n = n-th most recent label
        head_w = np.einsum("hnd,nd->hn", self.P, E)
        avg = (head_w.sum(axis=0)[:, None] * E).sum(axis=0) / (self.H * self.N)
        z = avg @ self.proj_w + self.proj_b
        mu = z.mean()
        var = ((z - mu) ** 2).mean()
        y = (z - mu) / np.sqrt(var + LN_EPS) * self.gamma + self.beta
        return y / (1.0 + np.exp(-y))

    def log_probs(self, frames, g):
        """Log-softmax over vocab + blank for every (frame, g) pair.

        ``frames`` is (T, d_enc), ``g`` is (K, d_e); returns (T, K, V+1).
        """
        F = np.asarray(frames, dtype=np.float64) @ self.enc_w
        G = np.asarray(g, dtype=np.float64) @ self.pred_w
        h = np.tanh(F[:, None, :] + G[None, :, :] + self.joint_b)
        logits = h @ self.out_rows.T + self.out_b
        m = logits.max(axis=-1, keepdims=True)
        return logits - (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))


def greedy_replay(ref: RefModel, frames):
    """Reference greedy decode with the per-frame symbol cap.

    Returns (labels, log_prob, min_gap, cap_hits): ``min_gap`` is the
    smallest top-1/top-2 log-prob gap met on the path, which says how close
    the path came to a tie.
    """
    labels: list[int] = []
    log_prob = 0.0
    min_gap = math.inf
    cap_hits = 0
    blank = ref.V
    g = ref.pn(labels)
    for t in range(len(frames)):
        f = frames[t : t + 1]
        emitted = 0
        while True:
            lp = ref.log_probs(f, g[None, :])[0, 0]
            top2 = np.partition(lp, -2)[-2:]
            min_gap = min(min_gap, float(top2[1] - top2[0]))
            k = int(np.argmax(lp))
            log_prob += float(lp[k])
            if k == blank:
                break
            labels.append(k)
            g = ref.pn(labels)
            emitted += 1
            if emitted >= ref.cap:
                cap_hits += 1
                break
    return labels, log_prob, min_gap, cap_hits


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def alpha_log_likelihood(lp_blank, lp_label) -> float:
    """log P(y | x) by the forward recursion over the T x (U+1) lattice.

    ``lp_blank[t][u]`` is log P(blank | t, u) and ``lp_label[t][u]`` is
    log P(y_{u+1} | t, u).  Every path ends with a blank at (T-1, U).
    """
    T = len(lp_blank)
    U = len(lp_blank[0]) - 1
    prev = None
    for t in range(T):
        row = [0.0] * (U + 1)
        for u in range(U + 1):
            a = -math.inf if t == 0 else prev[u] + lp_blank[t - 1][u]
            if u > 0:
                a = _logaddexp(a, row[u - 1] + lp_label[t][u - 1])
            elif t == 0:
                a = 0.0
            row[u] = a
        prev = row
    return prev[U] + lp_blank[T - 1][U]


def exact_log_prob(ref: RefModel, frames, labels) -> float:
    """Exact marginal log P(labels | frames) over all alignments."""
    labels = list(labels)
    g = np.stack([ref.pn(labels[:u]) for u in range(len(labels) + 1)])
    lp = ref.log_probs(frames, g)  # (T, U+1, V+1)
    lp_blank = lp[:, :, ref.V].tolist()
    U = len(labels)
    lp_label = lp[:, np.arange(U), labels].tolist() if U else [[] for _ in lp_blank]
    return alpha_log_likelihood(lp_blank, lp_label)


def levenshtein(a, b) -> int:
    a, b = list(a), list(b)
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        diag, row[0] = row[0], i
        for j, y in enumerate(b, start=1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (x != y))
    return row[-1]


def expected_risk(log_probs, hyps, reference, scale: float = 1.0):
    """(risk, distances): softmax(scale * log_probs)-weighted edit distance."""
    lp = np.asarray(log_probs, dtype=np.float64) * scale
    p = np.exp(lp - lp.max())
    p /= p.sum()
    dist = np.array([levenshtein(h, reference) for h in hyps], dtype=np.float64)
    return float(p @ dist), dist


def utterance_nll(weights, config, features, labels) -> float:
    """-log P(labels | features) through the encoder stub, all in float64."""
    ref = RefModel(weights, config)
    return -exact_log_prob(ref, ref.frames(features), labels)


def utterance_risk(weights, config, features, reference, hyps) -> float:
    ref = RefModel(weights, config)
    frames = ref.frames(features)
    lps = [exact_log_prob(ref, frames, h) for h in hyps]
    return expected_risk(lps, hyps, reference)[0]


def central_difference(fn, array, index, step: float = 1e-5) -> float:
    """d fn() / d array[index] by a central difference, restoring the entry."""
    orig = array[index]
    try:
        array[index] = orig + step
        up = fn()
        array[index] = orig - step
        down = fn()
    finally:
        array[index] = orig
    return (up - down) / (2.0 * step)

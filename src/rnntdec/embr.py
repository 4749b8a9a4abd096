"""Edit distance and minimum-risk training over n-best lists.

Risk is the expected edit distance of the n-best hypotheses against the
reference under the softmax posterior of their log-probs.  Hypothesis
log-probs are exact alignment marginals (log P(h) = -loss(h)).  The
decoder sees only the last N labels, so the hypotheses share most of their
history windows: each utterance gets one grid (``backprop.forward_windows``)
over the distinct windows of its whole list, and each hypothesis's lattice
reads its own columns of it.  The risk gradient scales each hypothesis's
``dlogits`` by -d(risk)/d(log P(h)), sums them into the grid's columns and
runs one backward pass, training's ``backprop.utterance_grads``; batches
average through the same ``backprop.batch_mean``.  Each utterance is
encoded once, for its beam search and its rescoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backprop import (
    batch_mean, forward_grid, forward_windows, target_windows, utterance_grads, zero_grads,
)
from .config import DecoderConfig, DictCodec
from .decoding import Hypothesis, beam_decode
from .errors import DomainError
from .lattice import transducer_loss
from .toy import Utterance, frames_for
from .weights import ModelWeights, check_config


@dataclass
class EmbrParams(DictCodec):
    beam_width: int = 4
    steps: int = 0  # 0 means: pick steps as main_steps // 10
    lr: float = 0.02
    momentum: float = 0.9
    batch_size: int = 4
    seed: int = 0
    add_reference: bool = False
    posterior_scale: float = 1.0
    grad_clip: float = 1.0

    def __post_init__(self):
        self.check_min(beam_width=1, steps=0, batch_size=1, grad_clip=0)


def edit_distance(hyp, ref) -> int:
    """Levenshtein distance between token sequences.

    Tokens are whatever the vocabulary models; on the toy task each token is
    one word, so this is word-level edit distance.
    """
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


@dataclass
class NBestList:
    """Distinct-by-labels hypotheses plus the reference they are scored against."""

    entries: list[Hypothesis]
    reference: tuple[int, ...]


@dataclass
class RiskResult:
    risk: float
    posterior: np.ndarray
    distances: np.ndarray
    dlog_prob: np.ndarray  # d(risk) / d(entry log-prob)


def embr_risk(nbest: NBestList, posterior_scale: float = 1.0) -> RiskResult:
    """Expected edit distance and its gradient w.r.t. the n-best log-probs.

    Posterior is softmax(scale * log_prob) over the list; the gradient uses
    the variance-reduced form scale * p_h * (W_h - risk).  Invariant to a
    constant shift of all log-probs.
    """
    if not nbest.entries:
        raise DomainError("embr_risk needs a non-empty n-best list")
    lp = np.array([h.log_prob for h in nbest.entries], dtype=np.float64) * posterior_scale
    shifted = lp - lp.max()
    p = np.exp(shifted)
    p /= p.sum()
    dist = np.array(
        [edit_distance(h.labels, nbest.reference) for h in nbest.entries],
        dtype=np.float64,
    )
    risk = float(p @ dist)
    dlp = posterior_scale * p * (dist - risk)
    return RiskResult(risk, p, dist, dlp)


def rescore_exact(frames: np.ndarray, labels, weights: ModelWeights, config: DecoderConfig):
    """Exact marginal log P(labels | frames) plus the pieces for backprop."""
    logits, cache = forward_grid(frames, labels, weights, config)
    res = transducer_loss(logits, labels)
    return -res.loss, res, cache


def _distinct_windows(nbest_labels, config: DecoderConfig):
    """The distinct history windows of all candidates as a (W, N) id matrix,
    in order of first use, and each candidate's (U+1,) columns into it."""
    index: dict[tuple, int] = {}
    cols = []
    for labels in nbest_labels:
        windows = map(tuple, target_windows(labels, config).tolist())
        cols.append(np.array([index.setdefault(w, len(index)) for w in windows], dtype=np.intp))
    ids = np.array(list(index), dtype=np.intp).reshape(len(index), config.history_len)
    return ids, cols


def _score_nbest(utt, frames, nbest_labels, weights, config, posterior_scale):
    """Rescore every candidate exactly over one grid of the list's distinct
    history windows, and take the risk of the list.

    Returns (cache, scored, RiskResult): ``cache`` is the grid's
    ForwardCache and ``scored[i]`` candidate i's (columns, LossResult).
    """
    config = check_config(weights, config)
    ids, cols = _distinct_windows(nbest_labels, config)
    logits, cache = forward_windows(frames, ids, weights, config)
    scored = [(c, transducer_loss(logits[:, c], labels)) for c, labels in zip(cols, nbest_labels)]
    entries = [Hypothesis(labels, -res.loss) for labels, (_, res) in zip(nbest_labels, scored)]
    return cache, scored, embr_risk(NBestList(entries, tuple(utt.labels)), posterior_scale)


def _risk_grads(utt, frames, nbest_labels, weights, config, posterior_scale):
    cache, scored, result = _score_nbest(
        utt, frames, nbest_labels, weights, config, posterior_scale)
    if not result.dlog_prob.any():
        return result.risk, zero_grads(weights)
    # d(risk)/d(logits_h) = dlp * d(log P)/d(logits) = -dlp * dloss/dlogits,
    # summed into the grid's columns; np.add.at because a candidate can
    # meet one window at several positions
    dlogits = np.zeros(cache.hidden.shape[:2] + (config.vocab_size + 1,))
    for dlp, (cols, res) in zip(result.dlog_prob, scored):
        if dlp:
            res.dlogits *= -dlp
            np.add.at(dlogits, (slice(None), cols), res.dlogits)
    del scored, res  # the backward pass holds no candidate's gradient
    return result.risk, utterance_grads(utt.features, dlogits, cache, weights, config)


def utterance_risk(
    utt: Utterance,
    nbest_labels: list[tuple[int, ...]],
    weights: ModelWeights,
    config: DecoderConfig,
    posterior_scale: float = 1.0,
) -> float:
    """Risk of a fixed candidate set under the current weights (no gradient)."""
    frames = frames_for(utt, weights)
    return _score_nbest(utt, frames, nbest_labels, weights, config, posterior_scale)[2].risk


def utterance_risk_grads(
    utt: Utterance,
    nbest_labels: list[tuple[int, ...]],
    weights: ModelWeights,
    config: DecoderConfig,
    posterior_scale: float = 1.0,
):
    """Risk and its gradient for a fixed candidate set.

    Chains d(risk)/d(log_prob_h) through each hypothesis's lattice gradient
    (log P(h) = -loss(h)) into every trainable tensor, including the encoder
    stub when present.
    """
    frames = frames_for(utt, weights)
    return _risk_grads(utt, frames, nbest_labels, weights, config, posterior_scale)


def _decoded(utts, weights, config, beam_width, add_reference=False):
    """Yield (utt, frames, n-best labels) per utterance, encoding each once;
    the list gets the reference appended when asked and missing."""
    for utt in utts:
        frames = frames_for(utt, weights)
        labels = [h.labels for h in beam_decode(frames, weights, config, beam_width)]
        if add_reference and tuple(utt.labels) not in labels:
            labels.append(tuple(utt.labels))
        yield utt, frames, labels


def embr_batch_grads(
    batch: list[Utterance], weights: ModelWeights, config: DecoderConfig, params: EmbrParams
):
    """Decode each utterance, compute risk gradients, average over the batch.

    Returns (mean risk, grads).
    """
    decoded = _decoded(batch, weights, config, params.beam_width, params.add_reference)
    return batch_mean(
        (_risk_grads(*d, weights, config, params.posterior_scale) for d in decoded), weights
    )


def dev_risk(
    dev_set: list[Utterance],
    weights: ModelWeights,
    config: DecoderConfig,
    params: EmbrParams,
) -> float:
    """Mean risk of each utterance's beam n-best list (evaluation only)."""
    total = 0.0
    for utt, frames, labels in _decoded(dev_set, weights, config, params.beam_width):
        total += _score_nbest(utt, frames, labels, weights, config, params.posterior_scale)[2].risk
    return total / len(dev_set) if dev_set else 0.0

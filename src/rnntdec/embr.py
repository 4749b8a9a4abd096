"""Edit distance and minimum-risk training over n-best lists.

Risk is the expected edit distance of the n-best hypotheses against the
reference under the softmax posterior of their log-probs.  Hypothesis
log-probs are exact alignment marginals (via the lattice), so the risk
gradient chains cleanly through the transducer-loss gradient machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backprop import backprop_decoder, forward_grid, zero_grads
from .config import DecoderConfig
from .decoding import Hypothesis, beam_decode
from .errors import DomainError
from .lattice import transducer_loss
from .toy import Utterance, encode_backward, frames_for
from .weights import ModelWeights


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


def utterance_risk(
    utt: Utterance,
    nbest_labels: list[tuple[int, ...]],
    weights: ModelWeights,
    config: DecoderConfig,
    posterior_scale: float = 1.0,
) -> float:
    """Risk of a fixed candidate set under the current weights (no gradient)."""
    frames = frames_for(utt, weights)
    entries = [
        Hypothesis(labels, rescore_exact(frames, labels, weights, config)[0])
        for labels in nbest_labels
    ]
    return embr_risk(NBestList(entries, tuple(utt.labels)), posterior_scale).risk


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
    scored = [rescore_exact(frames, labels, weights, config) for labels in nbest_labels]
    entries = [
        Hypothesis(labels, lp) for labels, (lp, _, _) in zip(nbest_labels, scored)
    ]
    result = embr_risk(NBestList(entries, tuple(utt.labels)), posterior_scale)
    grads = zero_grads(weights)
    dframes_total = np.zeros_like(frames)
    for dlp_h, (_, loss_res, cache) in zip(result.dlog_prob, scored):
        if dlp_h == 0.0:
            continue
        # d(risk)/d(logits_h) = dlp_h * d(log P)/d(logits) = -dlp_h * dloss/dlogits
        h_grads, dframes = backprop_decoder(
            -dlp_h * loss_res.dlogits, cache, weights, config
        )
        for name, g in h_grads.items():
            grads[name] += g
        dframes_total += dframes
    if weights.enc_stub is not None:
        encode_backward(utt.features, dframes_total, grads)
    return result.risk, grads


@dataclass
class EmbrBatchStats:
    mean_risk: float
    used: int
    skipped: int


def embr_batch_grads(
    batch: list[Utterance],
    weights: ModelWeights,
    config: DecoderConfig,
    beam_width: int,
    posterior_scale: float = 1.0,
    add_reference: bool = False,
):
    """Decode each utterance, compute risk gradients, average over the batch.

    Utterances whose beam comes back empty are skipped and counted.
    Returns (grads, EmbrBatchStats).
    """
    grads = zero_grads(weights)
    total_risk = 0.0
    used = skipped = 0
    for utt in batch:
        frames = frames_for(utt, weights)
        nbest = beam_decode(frames, weights, config, beam_width)
        if not nbest:
            skipped += 1
            continue
        labels_list = [h.labels for h in nbest]
        if add_reference and tuple(utt.labels) not in labels_list:
            labels_list.append(tuple(utt.labels))
        risk, utt_grads = utterance_risk_grads(
            utt, labels_list, weights, config, posterior_scale
        )
        for name, g in utt_grads.items():
            grads[name] += g
        total_risk += risk
        used += 1
    if used:
        for g in grads.values():
            g /= used
    return grads, EmbrBatchStats(total_risk / used if used else 0.0, used, skipped)


def dataset_risk(
    utts: list[Utterance],
    weights: ModelWeights,
    config: DecoderConfig,
    beam_width: int,
    posterior_scale: float = 1.0,
) -> float:
    """Mean expected edit distance over a dataset (evaluation only)."""
    total = 0.0
    for utt in utts:
        frames = frames_for(utt, weights)
        nbest = beam_decode(frames, weights, config, beam_width)
        labels_list = [h.labels for h in nbest]
        total += utterance_risk(utt, labels_list, weights, config, posterior_scale)
    return total / len(utts) if utts else 0.0

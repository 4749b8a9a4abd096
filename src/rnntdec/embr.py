"""Edit distance and minimum-risk training over n-best lists.

Risk is the expected edit distance of the n-best hypotheses against the
reference under the softmax posterior of their log-probs.  Hypothesis
log-probs are exact alignment marginals (log P(h) = -loss(h)).  The
decoder sees only the last N labels, so the hypotheses share most of their
history windows: each utterance's grid covers the distinct windows of its
whole list, and each hypothesis's lattice reads its own columns of it.  The
risk's ``dlogits`` sum each hypothesis's, scaled by -d(risk)/d(log P(h)).
An EMBR step decodes its whole batch first, in one ``beam_decode_batch``
(the weights are fixed within a step), then runs training's
``backprop.step_grads`` over it.  Each utterance is encoded once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backprop import forward_grid, step_grads, target_windows
from .config import DecoderConfig, DictCodec
from .decoding import Hypothesis, beam_decode, beam_decode_batch  # noqa: F401 (beam_decode re-exported)
from .errors import DomainError
from .lattice import transducer_loss
from .nets import prediction_forward
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
    """Levenshtein distance between sequences of hashable tokens (words, on
    the toy task).  Bit-parallel (Myers 1999, in Hyyro's 2001 form), over
    Python ints as bit vectors: bit i of ``pv`` / ``mv`` is set where
    D[i+1] - D[i] is +1 / -1 in the DP column of ``hyp`` so far, and
    ``dist`` is that column's last entry."""
    ref = list(ref)
    if not ref:
        return len(list(hyp))
    peq: dict = {}  # token -> bits of the ref positions holding it
    for i, r in enumerate(ref):
        peq[r] = peq.get(r, 0) | 1 << i
    mask, top = (1 << len(ref)) - 1, 1 << len(ref) - 1
    pv, mv, dist = mask, 0, len(ref)
    for h in hyp:
        eq = peq.get(h, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv) & mask
        mh = pv & xh
        dist += (ph & top > 0) - (mh & top > 0)
        ph = (ph << 1 | 1) & mask
        mh = mh << 1 & mask
        pv = mh | ~(xv | ph) & mask
        mv = ph & xv
    return dist


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


def rescore_exact(logits, cols, nbest_labels, reference, posterior_scale):
    """Exact rescoring of an n-best list over its grid ``logits``: each
    candidate's LossResult over its own columns (log P(h) = -loss), and the
    RiskResult of the list."""
    scored = [transducer_loss(logits[:, c], labels) for c, labels in zip(cols, nbest_labels)]
    entries = [Hypothesis(labels, -res.loss) for labels, res in zip(nbest_labels, scored)]
    return scored, embr_risk(NBestList(entries, tuple(reference)), posterior_scale)


def _risk_item(utt, frames, nbest_labels, weights, config, posterior_scale):
    """``step_grads``'s item for the risk of one n-best list, rescored
    exactly over one grid of the list's distinct history windows."""
    ids, cols = _distinct_windows(nbest_labels, check_config(weights, config))

    def objective(logits):
        scored, result = rescore_exact(logits, cols, nbest_labels, utt.labels, posterior_scale)
        if not result.dlog_prob.any():
            return result.risk, None
        # d(risk)/d(logits_h) = dlp * d(log P)/d(logits) = -dlp * dloss/dlogits,
        # summed into the grid's columns; np.add.at because a candidate can
        # meet one window at several positions
        dlogits = np.zeros(logits.shape)
        for dlp, c, res in zip(result.dlog_prob, cols, scored):
            if dlp:
                res.dlogits *= -dlp
                np.add.at(dlogits, (slice(None), c), res.dlogits)
        return result.risk, dlogits

    return utt.features, frames, ids, objective


def utterance_risk(utt: Utterance, nbest_labels: list[tuple[int, ...]], weights: ModelWeights,
                   config: DecoderConfig, posterior_scale: float = 1.0) -> float:
    """Risk of a fixed candidate set under the current weights (no gradient)."""
    ids, cols = _distinct_windows(nbest_labels, check_config(weights, config))
    G = prediction_forward(ids, weights, config) @ weights.pred_w
    logits, _ = forward_grid(frames_for(utt, weights), G, weights)
    return rescore_exact(logits, cols, nbest_labels, utt.labels, posterior_scale)[1].risk


def utterance_risk_grads(utt: Utterance, nbest_labels: list[tuple[int, ...]],
                         weights: ModelWeights, config: DecoderConfig, posterior_scale: float = 1.0):
    """Risk and its gradient for a fixed candidate set.

    Chains d(risk)/d(log_prob_h) through each hypothesis's lattice gradient
    (log P(h) = -loss(h)) into every trainable tensor, including the encoder
    stub when present.
    """
    item = _risk_item(utt, frames_for(utt, weights), nbest_labels, weights, config, posterior_scale)
    return step_grads([item], weights, config)


def _decoded(utts, weights, config, beam_width, add_reference=False):
    """Yield (utt, frames, n-best labels) per utterance, all decoded in one
    batch; the list gets the reference appended when asked and missing."""
    frames_list = [frames_for(utt, weights) for utt in utts]
    nbests = beam_decode_batch(frames_list, weights, config, beam_width)
    for utt, frames, nbest in zip(utts, frames_list, nbests):
        labels = [h.labels for h in nbest]
        if add_reference and tuple(utt.labels) not in labels:
            labels.append(tuple(utt.labels))
        yield utt, frames, labels


def embr_batch_grads(
    batch: list[Utterance], weights: ModelWeights, config: DecoderConfig, params: EmbrParams
):
    """Decode every utterance, then take (mean risk, mean gradient) in one step."""
    decoded = _decoded(batch, weights, config, params.beam_width, params.add_reference)
    items = [_risk_item(*d, weights, config, params.posterior_scale) for d in decoded]
    return step_grads(items, weights, config)


def dev_risk(
    dev_set: list[Utterance],
    weights: ModelWeights,
    config: DecoderConfig,
    params: EmbrParams,
) -> float:
    """Mean risk of each utterance's beam n-best list (evaluation only)."""
    total = 0.0
    for utt, _, labels in _decoded(dev_set, weights, config, params.beam_width):
        total += utterance_risk(utt, labels, weights, config, params.posterior_scale)
    return total / len(dev_set) if dev_set else 0.0

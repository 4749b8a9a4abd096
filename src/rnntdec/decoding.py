"""Greedy and beam transducer decoding, plus lookup-table conversion.

Both decoders are frame-synchronous: at each encoder frame a hypothesis may
emit up to ``max_symbols_per_frame`` non-blank labels before a blank advances
time.  Since the prediction network only sees the last ``history_len``
labels, each decode caches its outputs in a dict from history window to
prediction row (the dynamic form of the lookup-table conversion below).
A window is the tuple of the last N labels, oldest first and padded with
the pad id; the network takes windows reversed, as the rows of a
recent-first id matrix.

Within one frame the joint output also depends only on the history window,
so beam search scores each (frame, window) pair once.  It expands its
hypotheses in rounds, one batch per round.  Its prediction rows and its
per-frame memo of log-prob rows are both dicts keyed by window, read through
one helper, ``_rows``: the windows a dict lacks go through one batched call
(the prediction network, or the joint plus a row-wise log-softmax) and are
stored.  A round whose windows were all scored earlier in the frame makes no
network call.  The next frontier is chosen from the (hypotheses x
vocabulary) score matrix with ``np.partition``.  Candidates tied at the
beam's last score are settled by label sequence, so the n-best list is the
one a full sort by ``(-log_prob, labels)`` would give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DecoderConfig
from .errors import CapacityError, ConfigError, DomainError, ShapeError
from .mathops import log_softmax, logaddexp
from .nets import joint_forward, prediction_forward
from .weights import ModelWeights, check_config

# windows per prediction call in ``convert_to_lookup``: a reduced batch holds
# an (n, H, N, d_e) product, far too large at the full table budget
_LOOKUP_CHUNK = 1024


@dataclass
class Hypothesis:
    """One beam-search hypothesis: emitted labels and their merged log-prob."""

    labels: tuple[int, ...]
    log_prob: float

    def sort_key(self):
        return (-self.log_prob, self.labels)


@dataclass
class GreedyResult:
    labels: list[int]
    log_prob: float


def _rows(table: dict, keys, compute) -> np.ndarray:
    """``table``'s rows for ``keys``, stacked in key order.  The distinct
    keys ``table`` lacks go through one ``compute(missing)`` call, whose
    rows are stored."""
    missing = [k for k in dict.fromkeys(keys) if k not in table]
    if missing:
        table.update(zip(missing, compute(missing)))
    return np.array([table[k] for k in keys])


def _check_frames(enc_frames: np.ndarray, weights: ModelWeights, config: DecoderConfig) -> DecoderConfig:
    """The model's config (``check_config``), once the frames fit it."""
    config = check_config(weights, config)
    d_enc = weights.enc_w.shape[0]
    if enc_frames.ndim != 2 or enc_frames.shape[1] != d_enc:
        raise ShapeError(f"encoder frames {enc_frames.shape} != (T, {d_enc})")
    return config


def greedy_decode(
    enc_frames: np.ndarray, weights: ModelWeights, config: DecoderConfig
) -> GreedyResult:
    """Frame-synchronous argmax decoding.

    A non-blank argmax emits the label, feeds it back into the prediction
    network and stays on the frame; blank (or hitting the per-frame symbol
    cap) advances to the next frame.  Blanks never appear in the output.
    """
    config = _check_frames(enc_frames, weights, config)
    pn: dict[tuple[int, ...], np.ndarray] = {}  # window -> prediction row
    window = (config.pad_id,) * config.history_len  # oldest label first
    g = prediction_forward(np.array([window]), weights, config)[0]
    labels: list[int] = []
    log_prob = 0.0
    blank = config.blank_id
    for t in range(enc_frames.shape[0]):
        f_t = enc_frames[t]
        emitted = 0
        while True:
            logp = log_softmax(joint_forward(f_t, g, weights, config))
            k = int(np.argmax(logp))
            log_prob += float(logp[k])
            if k == blank:
                break
            labels.append(k)
            window = window[1:] + (k,)
            g = pn.get(window)
            if g is None:
                g = pn[window] = prediction_forward(np.array([window[::-1]]), weights, config)[0]
            emitted += 1
            if emitted >= config.max_symbols_per_frame:
                break
    return GreedyResult(labels, log_prob)


def beam_decode(
    enc_frames: np.ndarray,
    weights: ModelWeights,
    config: DecoderConfig,
    beam_width: int,
) -> list[Hypothesis]:
    """Time-synchronous beam search with label-sequence merging.

    Each frame runs ``max_symbols_per_frame + 1`` expansion rounds over a
    frontier of at most ``beam_width`` hypotheses.  A round reads its
    frontier's log-prob rows through ``_rows`` from the frame's memo, a dict
    from window to log-prob row that starts empty at every frame.  Windows
    not yet scored at this frame go through one joint call and one row-wise
    log-softmax, on prediction rows read through ``_rows`` from the decode's
    own dict, so each (frame, window) pair is scored once.  Every frontier
    hypothesis takes blank into the next frame's beam, where identical label
    sequences merge by log-sum-exp of their alignment log-probs.  Except in
    the last round, the extensions ``lp + logp[:, :V]`` form the next
    frontier: the ``beam_width`` best by ``(-log_prob, labels)``, found with
    ``np.partition`` at the B-th score, keeping every candidate tied at that
    threshold and sorting only those.  Distinct frontier sequences have
    distinct extensions, so a round's candidates never merge.

    Returns the n-best list sorted by descending log-prob.
    """
    config = _check_frames(enc_frames, weights, config)
    if beam_width < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam_width}")
    blank = config.blank_id
    last_round = config.max_symbols_per_frame
    n = config.history_len
    pad = (config.pad_id,) * n
    pn: dict[tuple[int, ...], np.ndarray] = {}  # window -> prediction row

    def predict(windows):
        return prediction_forward(np.array(windows)[:, ::-1], weights, config)  # recent first

    beams: dict[tuple[int, ...], float] = {(): 0.0}
    for f_t in enc_frames:
        memo: dict[tuple[int, ...], np.ndarray] = {}  # window -> log-prob row at f_t

        def score(windows):
            return log_softmax(joint_forward(f_t, _rows(pn, windows, predict), weights, config))

        next_beams: dict[tuple[int, ...], float] = {}
        frontier = list(beams.items())
        for round_idx in range(last_round + 1):
            logp = _rows(memo, [(pad + labels)[-n:] for labels, _ in frontier], score)
            for (labels, lp), blank_logp in zip(frontier, logp[:, blank].tolist()):
                blank_lp = lp + blank_logp
                prev = next_beams.get(labels)
                next_beams[labels] = blank_lp if prev is None else logaddexp(prev, blank_lp)
            if round_idx < last_round:
                lps = np.array([lp for _, lp in frontier])
                frontier = _best_extensions(frontier, lps[:, None] + logp[:, :blank], beam_width)
        beams = _top_b(next_beams, beam_width)

    nbest = [Hypothesis(labels, float(lp)) for labels, lp in beams.items()]
    nbest.sort(key=Hypothesis.sort_key)
    return nbest


def _top_b(d: dict[tuple[int, ...], float], beam_width: int) -> dict[tuple[int, ...], float]:
    if len(d) <= beam_width:
        return d
    return dict(sorted(d.items(), key=lambda kv: (-kv[1], kv[0]))[:beam_width])


def _best_extensions(frontier, scores: np.ndarray, beam_width: int):
    """The ``beam_width`` best (labels + (v,), scores[i, v]) by (-score, labels).

    ``scores`` is (len(frontier), V).  Every candidate at or above the B-th
    largest score is kept, so ties at the threshold are settled by labels
    exactly as a full sort would settle them.  NaN scores that leave no
    candidate raise DomainError.
    """
    flat = scores.ravel()
    cut = flat.size - beam_width
    if cut > 0:
        idx = np.flatnonzero(flat >= np.partition(flat, cut)[cut])
        if not idx.size:  # at least B scores are NaN, so none reaches the NaN threshold
            raise DomainError("beam search met NaN extension scores (non-finite network output)")
    else:
        idx = np.arange(flat.size)
    rows, cols = np.divmod(idx, scores.shape[1])
    cands = [(frontier[i][0] + (v,), s)
             for i, v, s in zip(rows.tolist(), cols.tolist(), flat[idx].tolist())]
    if len(cands) > beam_width:
        cands.sort(key=lambda c: (-c[1], c[0]))
        del cands[beam_width:]
    return cands


@dataclass
class LookupTable:
    """Precomputed prediction outputs for every length-N history window of
    the model whose config is ``config``.

    ``table[idx]`` is the output for the window whose most-recent-first ids
    form the base-(V+1) digits of ``idx`` (pad id included).
    """

    config: DecoderConfig
    table: np.ndarray  # ((V+1)^N, pn_out)

    def index_of(self, ids_recent_first) -> int:
        idx = 0
        for i in ids_recent_first:
            idx = idx * self.config.vocab_ext + i
        return idx

    def contexts(self):
        """All windows in table order, as recent-first tuples."""
        return itertools.product(range(self.config.vocab_ext), repeat=self.config.history_len)


def convert_to_lookup(
    weights: ModelWeights,
    config: DecoderConfig,
    max_entries: int = 1_000_000,
) -> LookupTable:
    """Enumerate every history window and precompute the PN output.

    Raises CapacityError before doing any work when (V+1)^N exceeds
    ``max_entries`` (large vocabularies make the table impractical).
    """
    config = check_config(weights, config)
    n = config.history_len
    entries = config.vocab_ext**n
    if entries > max_entries:
        raise CapacityError(
            f"lookup table needs {entries} entries "
            f"({config.vocab_ext}^{n}), budget is {max_entries}"
        )
    # row r holds the recent-first window whose base-(V+1) digits spell r
    ids = np.stack(np.unravel_index(np.arange(entries), (config.vocab_ext,) * n), axis=1)
    table = np.empty((entries, config.pn_out_dim), dtype=weights.dtype)
    for lo in range(0, entries, _LOOKUP_CHUNK):
        chunk = slice(lo, lo + _LOOKUP_CHUNK)
        table[chunk] = prediction_forward(ids[chunk], weights, config)
    return LookupTable(config, table)

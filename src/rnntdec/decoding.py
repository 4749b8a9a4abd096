"""Greedy and beam transducer decoding, plus lookup-table conversion.

Both decoders are frame-synchronous: at each encoder frame a hypothesis may
emit up to ``max_symbols_per_frame`` non-blank labels before a blank advances
time.  The prediction network only sees the last N = ``history_len`` labels,
so both decoders cache each window's projected prediction row by its code
(``window_code``, the ``LookupTable`` index) and score via ``joint_forward``.
Beam search scores each (frame, window) pair once and ends a frame once no
later round can change its beam, so its n-best lists stay those of all
rounds.  ``beam_decode_batch`` runs a batch's searches in lockstep, a tick
being one prediction call into a shared cache and one joint call over all
their new windows; stacked rows equal rows computed alone, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DecoderConfig
from .errors import CapacityError, ConfigError, DomainError, ShapeError
from .mathops import log_softmax, logaddexp
from .nets import joint_forward, prediction_forward, project_prediction
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


def _rows(cache: dict, codes, weights: ModelWeights, config: DecoderConfig) -> np.ndarray:
    """``cache``'s projected rows for window ``codes``, stacked in code order.
    The distinct codes ``cache`` lacks go through one ``_project`` call,
    whose rows are stored."""
    missing = [c for c in dict.fromkeys(codes) if c not in cache]
    if missing:
        cache.update(zip(missing, _project(missing, weights, config)))
    return np.array([cache[c] for c in codes])


def _project(window_codes, weights: ModelWeights, config: DecoderConfig) -> np.ndarray:
    """The projected prediction rows (``project_prediction``) of windows given
    by code; digit k of a code, most significant first, is the window's k-th id."""
    n, base = config.history_len, config.vocab_ext
    ids = np.array([[c // base**k % base for k in range(n - 1, -1, -1)] for c in window_codes])
    return project_prediction(prediction_forward(ids, weights, config), weights)


def window_code(ids_recent_first, base: int) -> int:
    """A history window's code: the base-(V+1) integer whose digits, most
    significant first, are its recent-first ids.  Pushing label v maps code
    c to ``v * (V+1)**(N-1) + c // (V+1)``."""
    return functools.reduce(lambda code, i: code * base + int(i), ids_recent_first, 0)


def _check_frames(batch, weights: ModelWeights, config: DecoderConfig) -> DecoderConfig:
    """The model's config (``check_config``), once all frames fit it and share one dtype."""
    config, d_enc = check_config(weights, config), weights.enc_w.shape[0]
    for i, f in enumerate(batch):
        if f.ndim != 2 or f.shape[1] != d_enc or f.dtype != batch[0].dtype:
            raise ShapeError(f"utterance {i}: {f.dtype} {f.shape} != {batch[0].dtype} (T, {d_enc})")
    return config


def greedy_decode(
    enc_frames: np.ndarray, weights: ModelWeights, config: DecoderConfig
) -> GreedyResult:
    """Frame-synchronous argmax decoding.

    A non-blank argmax emits the label, feeds it back into the prediction
    network and stays on the frame; blank (or hitting the per-frame symbol
    cap) advances to the next frame.  Blanks never appear in the output.
    A NaN log-prob raises DomainError.
    """
    config = _check_frames([enc_frames], weights, config)
    base, shift = config.vocab_ext, config.vocab_ext ** (config.history_len - 1)
    code = window_code((config.pad_id,) * config.history_len, base)
    pn: dict[int, np.ndarray] = {}  # window code -> projected prediction row
    row = _project([code], weights, config)[0]
    labels: list[int] = []
    log_prob = 0.0
    blank = config.blank_id
    for f_t in enc_frames:
        enc = f_t @ weights.enc_w
        emitted = 0
        while True:
            logp = log_softmax(joint_forward(enc, row, weights))
            k = int(np.argmax(logp))
            lp = float(logp[k])
            if lp != lp:  # argmax picks a row's first NaN, so this check covers the row
                raise DomainError("greedy decoding met a NaN log-prob (non-finite network output)")
            log_prob += lp
            if k == blank:
                break
            labels.append(k)
            code = k * shift + code // base
            row = pn.get(code)
            if row is None:
                row = pn[code] = _project([code], weights, config)[0]
            emitted += 1
            if emitted >= config.max_symbols_per_frame:
                break
    return GreedyResult(labels, log_prob)


def beam_decode(enc_frames: np.ndarray, weights: ModelWeights, config: DecoderConfig,
                beam_width: int) -> list[Hypothesis]:
    """Time-synchronous beam search with label-sequence merging (``_search``):
    ``beam_decode_batch`` of one.  Returns the n-best list, best first."""
    return beam_decode_batch([enc_frames], weights, config, beam_width)[0]


def beam_decode_batch(frames_list: list[np.ndarray], weights: ModelWeights, config: DecoderConfig,
                      beam_width: int) -> list[list[Hypothesis]]:
    """Each utterance's ``beam_decode``, all searches in lockstep.  A tick serves
    every search waiting for windows new to its frame: one ``_projected_rows``
    call into the batch's cache, then one ``joint_forward`` over the stacked
    rows, each on its ``f_t @ enc_w`` (1-D when one search waits).  An f4 row
    stacked with f8 rows would be computed in f8, so frames must share one
    dtype: a wrong shape or dtype raises ShapeError naming the utterance, up
    front."""
    config = _check_frames(frames_list, weights, config)
    if beam_width < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam_width}")
    pn: dict[int, np.ndarray] = {}  # window code -> projected prediction row
    nbests, logp = [None] * len(frames_list), None  # logp: the last tick's rows
    asks = [(i, _search(f, weights, config, beam_width), None, ()) for i, f in enumerate(frames_list)]
    while asks:  # an ask: (utterance, search, f_t @ enc_w, window codes)
        waiting, asks, lo = asks, [], 0
        for i, search, _, window_codes in waiting:
            try:
                asks.append((i, search, *search.send(logp[lo:] if lo else logp)))
            except StopIteration as done:
                nbests[i] = done.value
            lo += len(window_codes)
        if not asks:
            break
        _, _, enc, codes = asks[0]
        if len(asks) > 1:
            codes = [code for ask in asks for code in ask[3]]
            enc = np.repeat([ask[2] for ask in asks], [len(ask[3]) for ask in asks], axis=0)
        logp = log_softmax(joint_forward(enc, _rows(pn, codes, weights, config), weights))
    return nbests


def _search(enc_frames: np.ndarray, weights: ModelWeights, config: DecoderConfig, beam_width: int):
    """One utterance's beam search as a generator: a round that meets windows
    new to its frame yields ``(f_t @ enc_w, their codes)`` and is sent log-prob
    rows, theirs first.  Returns the n-best list.  Each frame runs up to
    ``max_symbols_per_frame + 1`` rounds over a frontier of at most B =
    ``beam_width`` (labels, log-prob, window code) hypotheses.  Each takes
    blank into the next beam, where equal label sequences merge by
    log-sum-exp, and its extensions compete for the next frontier, the B
    best by ``(-log_prob, labels)``.

    The frame ends early once ``_frame_settled`` holds.  Let theta be the
    B-th best merged value.  Every later contribution is a blank taken by a
    descendant of a frontier hypothesis f: it is <= lp_f, as log-probs are
    <= 0, and lands on a key extending f's labels.  A key receives at most
    B contributions per frame, one per beam prefix, so it ends at most
    log(B+1) above the largest of its value and those contributions.  So
    the top B are final when (a) every frontier lp is more than that margin
    (plus rounding at any finite magnitude) below theta, and (b) every key
    within the margin of theta that a frontier hypothesis can reach keeps
    its bits when the largest such lp is merged into it.  A NaN keeps the
    frame going.  Skipped rounds score nothing, so a non-finite network
    output that only they would meet goes unseen.
    """
    blank, last_round = config.blank_id, config.max_symbols_per_frame
    n, base = config.history_len, config.vocab_ext
    shift = base ** (n - 1)
    beams: dict[tuple[int, ...], float] = {(): 0.0}
    codes = {(): window_code((config.pad_id,) * n, base)}  # beam labels -> window code
    for f_t in enc_frames:
        enc = f_t @ weights.enc_w
        memo: dict[int, np.ndarray] = {}  # window code -> log-prob row at f_t
        next_beams: dict[tuple[int, ...], float] = {}
        frontier = [(labels, lp, codes[labels]) for labels, lp in beams.items()]
        codes = {}
        for round_idx in range(last_round + 1):
            wanted = [code for _, _, code in frontier]
            missing = [code for code in dict.fromkeys(wanted) if code not in memo]
            if missing:
                memo.update(zip(missing, (yield enc, missing)))
            logp = np.array([memo[code] for code in wanted])
            for (labels, lp, code), blank_logp in zip(frontier, logp[:, blank].tolist()):
                blank_lp = lp + blank_logp
                prev = next_beams.get(labels)
                next_beams[labels] = blank_lp if prev is None else logaddexp(prev, blank_lp)
                codes[labels] = code
            if round_idx < last_round:
                lps = np.array([lp for _, lp, _ in frontier])
                frontier = _best_extensions(frontier, lps[:, None] + logp[:, :blank], beam_width, shift)
                if _frame_settled(next_beams, frontier, beam_width):
                    break
        beams = _top_b(next_beams, beam_width)
    nbest = [Hypothesis(labels, float(lp)) for labels, lp in beams.items()]
    nbest.sort(key=Hypothesis.sort_key)
    return nbest


def _top_b(d: dict[tuple[int, ...], float], beam_width: int) -> dict[tuple[int, ...], float]:
    if len(d) <= beam_width:
        return d
    return dict(sorted(d.items(), key=lambda kv: (-kv[1], kv[0]))[:beam_width])


def _best_extensions(frontier, scores: np.ndarray, beam_width: int, shift: int):
    """The ``beam_width`` best (labels + (v,), scores[i, v], child code) by
    (-score, labels), where ``scores`` is (len(frontier), V) and ``shift`` is
    (V+1)**(N-1).  Every candidate at or above the B-th largest score is
    kept, so ties at the threshold are settled by labels exactly as a full
    sort would settle them.  NaN scores that leave no candidate raise
    DomainError.
    """
    flat = scores.ravel()
    cut = flat.size - beam_width
    idx = range(flat.size)
    if cut > 0:
        idx = np.flatnonzero(flat >= np.partition(flat, cut)[cut]).tolist()
        if not idx:  # at least B scores are NaN, so none reaches the NaN threshold
            raise DomainError("beam search met NaN extension scores (non-finite network output)")
    width, values, cands = scores.shape[1], flat.tolist(), []
    for i in idx:
        row, v = divmod(i, width)
        labels, _, code = frontier[row]
        cands.append((labels + (v,), values[i], v * shift + code // (width + 1)))
    if len(cands) > beam_width:
        cands.sort(key=lambda c: (-c[1], c[0]))
        del cands[beam_width:]
    return cands


def _frame_settled(next_beams: dict, frontier, beam_width: int) -> bool:
    """Whether no later round can change the frame's top B (``_search``)."""
    if len(next_beams) < beam_width:
        return False
    theta = sorted(next_beams.values(), reverse=True)[beam_width - 1]
    limit = theta - math.log1p(beam_width) - (beam_width + 2) * 2.0**-45 * (1.0 + 2.0 * abs(theta))
    if not all(lp < limit for _, lp, _ in frontier):  # (a)
        return False
    reach = {labels: lp for labels, lp, _ in frontier}
    lengths = {len(labels) for labels in reach}
    for key, e in next_beams.items():  # (b), and a NaN value fails ``merged == e``
        reaching = [reach[key[:k]] for k in lengths if key[:k] in reach] if e >= limit else None
        merged = logaddexp(e, max(reaching)) if reaching else e
        if merged != e or math.copysign(1.0, merged) != math.copysign(1.0, e):
            return False
    return True


@dataclass
class LookupTable:
    """Precomputed prediction outputs for every length-N history window of
    the model whose config is ``config``.

    ``table[idx]`` is the output for the window whose code (``window_code``)
    is ``idx``: its most-recent-first ids, pad id included, form the
    base-(V+1) digits of ``idx``.
    """

    config: DecoderConfig
    table: np.ndarray  # ((V+1)^N, pn_out)


def table_rows(config: DecoderConfig, limit: int) -> int | None:
    """A lookup table's row count (V+1)^N, or None when it exceeds
    ``limit``, decided without forming a number much larger than ``limit``."""
    if config.history_len > limit.bit_length():  # then (V+1)^N >= 2^N > limit
        return None
    rows = config.vocab_ext**config.history_len
    return rows if rows <= limit else None


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
    entries = table_rows(config, max_entries)
    if entries is None:
        raise CapacityError(f"lookup table needs (V+1)^N = {config.vocab_ext}^{n} entries, "
                            f"more than the budget of {max_entries}")
    # row r holds the recent-first window whose base-(V+1) digits spell r
    ids = np.stack(np.unravel_index(np.arange(entries), (config.vocab_ext,) * n), axis=1)
    table = np.empty((entries, config.pn_out_dim), dtype=weights.dtype)
    for lo in range(0, entries, _LOOKUP_CHUNK):
        chunk = slice(lo, lo + _LOOKUP_CHUNK)
        table[chunk] = prediction_forward(ids[chunk], weights, config)
    return LookupTable(config, table)

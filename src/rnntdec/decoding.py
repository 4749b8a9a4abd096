"""Greedy and beam transducer decoding, plus lookup-table conversion.

Both decoders are frame-synchronous: at each encoder frame a hypothesis may
emit up to ``max_symbols_per_frame`` non-blank labels before a blank advances
time.  The prediction network only sees the last N = ``history_len`` labels,
so both decoders cache each window's projected prediction row by its code
(``window_code``, the ``LookupTable`` index) and score via ``joint_forward``.
Beam search scores each (frame, window) pair once and ends a frame once no
later round can change its beam, so its n-best lists stay those of all
rounds.  ``beam_decode_batch`` runs a batch's searches in lockstep as one
frontier of label-trie node ids (``_Trie``): a tick is one prediction call
and one joint call over all rows' new windows, bit-equal to each alone.
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
    """Time-synchronous beam search with label-sequence merging:
    ``beam_decode_batch`` of one.  Returns the n-best list, best first."""
    return beam_decode_batch([enc_frames], weights, config, beam_width)[0]


def beam_decode_batch(frames_list: list[np.ndarray], weights: ModelWeights, config: DecoderConfig,
                      beam_width: int) -> list[list[Hypothesis]]:
    """Each utterance's n-best list, best first, all searches in lockstep, a
    ``_Row`` each.  A tick scores the windows the rows need with one
    ``_rows`` call and one ``joint_forward`` over the stacked rows, then runs
    rounds (``_round``) until every row needs windows new to its frame.
    Frames must share one dtype (an f4 row stacked with f8 rows would be
    computed in f8): a wrong shape or dtype raises ShapeError naming the
    utterance, up front."""
    config = _check_frames(frames_list, weights, config)
    if beam_width < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam_width}")
    trie, pn = _Trie(len(frames_list), config), {}  # pn: window code -> projected prediction row
    nbests = [[Hypothesis((), 0.0)] for _ in frames_list]
    # enc holds every frame's f_t @ enc_w, utterance u's in rows first[u] to first[u + 1] - 1
    first = np.cumsum([0] + [len(f) for f in frames_list]).tolist()
    rows = [_Row(u, first[u], beam_width, trie) for u, f in enumerate(frames_list) if len(f)]
    enc = np.array([f_t @ weights.enc_w for f in frames_list for f_t in f]) if rows else None
    while rows:
        wanted = [(row, c) for row in rows for c in row.need]
        pred = _rows(pn, [c for _, c in wanted], weights, config)
        logp = log_softmax(joint_forward(enc[[row.frame for row, _ in wanted]], pred, weights))
        for (row, c), lp in zip(wanted, logp):
            row.memo[c] = lp
        waiting = []
        while rows:
            rows = _round(trie, rows, first, config.max_symbols_per_frame, nbests)
            waiting += [row for row in rows if row.need]
            rows = [row for row in rows if not row.need]
        rows = waiting
    return nbests


class _Trie:
    """Label sequences as node ids: node k extends ``parent[k]`` by the first
    digit of its window ``code``; nodes 0..n-1 are the utterances' empty
    sequences, and ``child`` finds a node by ``parent * V + label``."""

    def __init__(self, roots: int, config: DecoderConfig):
        n = config.history_len
        self.vocab, self.base = config.vocab_size, config.vocab_ext
        self.shift = self.base ** (n - 1)
        self.code = [window_code((config.pad_id,) * n, self.base)] * roots
        self.parent, self.depth, self.child = [-1] * roots, [0] * roots, {}
        self.zero = np.zeros(self.vocab + 1)  # the log-probs of an empty frontier slot

    def child_of(self, parent: int, label: int) -> int:
        """The node of ``parent`` extended by ``label``, made on first use."""
        node = self.child.get(parent * self.vocab + label)
        if node is None:
            node = self.child[parent * self.vocab + label] = len(self.code)
            self.code.append(label * self.shift + self.code[parent] // self.base)
            self.parent.append(parent), self.depth.append(self.depth[parent] + 1)
        return node

    def labels(self, node: int) -> tuple[int, ...]:
        out = []
        while self.parent[node] >= 0:
            out.append(self.code[node] // self.shift)
            node = self.parent[node]
        return tuple(out[::-1])


class _Row:
    """One utterance's search: its frame's row of ``enc``, round ``r``, the
    frontier's B node ids and log-probs (-1 and -inf in an empty slot), the
    frame's next beam ``nb`` (node id -> merged log-prob) and ``memo``
    (window code -> log-prob row), and the codes it ``need``s scored."""

    __slots__ = ("utt", "frame", "r", "node", "lp", "nb", "memo", "need")

    def __init__(self, utt: int, frame: int, beam_width: int, trie: _Trie):
        self.utt, self.frame, self.r, self.nb, self.memo = utt, frame, 0, {}, {}
        self.node, self.lp = [utt] + [-1] * (beam_width - 1), [0.0] + [-math.inf] * (beam_width - 1)
        self.need = {trie.code[utt]}


def _round(trie: _Trie, rows: list, first: list, cap: int, nbests: list) -> list:
    """One round of every row (all its windows scored); returns the rows
    still searching.  Blanks merge into the next beams, equal keys in one
    ``logaddexp`` call; the B best extensions form the next frontier unless
    the frame ends, after its last round or once ``_frame_settled`` holds."""
    B, W, code = len(rows[0].node), trie.vocab + 1, trie.code
    scores = np.array([row.memo[code[x]] if x >= 0 else trie.zero for row in rows for x in row.node])
    scores = scores + np.array([lp for row in rows for lp in row.lp])[:, None]  # a row per slot
    values, merges, old, new = scores.reshape(len(rows), -1).tolist(), [], [], []
    for row, vs in zip(rows, values):
        nb = row.nb
        for x, b in zip(row.node, vs[W - 1::W]):
            if x >= 0:
                if b != b:  # a log-softmax row with a NaN is NaN throughout
                    raise DomainError("beam search met a NaN log-prob (non-finite network output)")
                if x in nb:
                    merges.append((nb, x)), old.append(nb[x]), new.append(b)
                else:
                    nb[x] = b
    if merges:
        for (nb, x), v in zip(merges, logaddexp(np.array(old), np.array(new)).tolist()):
            nb[x] = v
    ended = rows
    if any(row.r < cap for row in rows):
        scores[:, W - 1] = -math.inf  # blank is not an extension
        flat = scores.reshape(len(rows), -1)
        nodes, lps = _next_frontier(trie, [row.node for row in rows], flat, values, B)
        settled = _frame_settled(trie, [row.nb for row in rows], nodes, lps, B)
        ended = []
        for row, node, lp, done in zip(rows, nodes, lps, settled):
            row.node, row.lp, row.r = node, lp, row.r + 1
            if done or row.r > cap:
                ended.append(row)
    if ended:
        for row, (node, lp) in zip(ended, _beams(trie, [row.nb for row in ended], B)):
            row.node, row.lp, row.frame, row.r, row.nb, row.memo = node, lp, row.frame + 1, 0, {}, {}
            if row.frame == first[row.utt + 1]:  # its last frame: store the n-best list
                nbest = [Hypothesis(trie.labels(x), v) for x, v in zip(row.node, row.lp) if x >= 0]
                nbests[row.utt], row.r = sorted(nbest, key=Hypothesis.sort_key), -1
    for row in rows:
        row.need = {code[x] for x in row.node if x >= 0} - row.memo.keys()
    return [row for row in rows if row.r >= 0] if ended else rows


def _next_frontier(trie: _Trie, node: list, scores: np.ndarray, values: list, width: int) -> tuple:
    """Each row's ``width`` best extensions by (-log_prob, labels), picked with
    ``np.argpartition`` from its B (V+1) ``scores`` (blank set to -inf; the
    Python ``values`` keep it): node ids and log-probs."""
    V, child, nodes, lps = trie.vocab, trie.child, [], []
    W = V + 1
    parts = scores.argpartition(-width - 1, axis=1)[:, -width - 1:].tolist()
    for xs, row, part in zip(node, values, parts):
        top, cut = part[1:], row[part[0]] if part[0] % W < V else -math.inf
        vals = [row[c] if c % W < V else -math.inf for c in top]
        if min(vals) == cut:  # an exact tie at the cut: settle it by labels
            real = [c for c in range(len(row)) if xs[c // W] >= 0 and c % W < V]
            tied = sorted((trie.labels(xs[c // W]) + (c % W,), c) for c in real if row[c] == cut)
            top = [c for c in real if row[c] > cut] + [c for _, c in tied]  # then blank or empty
            top = (top + [c for c in range(len(row)) if xs[c // W] < 0 or c % W == V])[:width]
            vals = [row[c] if xs[c // W] >= 0 and c % W < V else -math.inf for c in top]
        new = [child.get(xs[c // W] * V + c % W) if xs[c // W] >= 0 and c % W < V else -1 for c in top]
        if None in new:  # a label sequence first met now
            new = [trie.child_of(xs[c // W], c % W) if x is None else x for x, c in zip(new, top)]
        nodes.append(new), lps.append(vals)
    return nodes, lps


def _beams(trie: _Trie, nbs: list, width: int) -> list:
    """Each next beam's ``width`` best keys by (-log_prob, labels), padded."""
    out = []
    for nb in nbs:
        keys = list(nb) if len(nb) <= width else sorted(nb, key=nb.__getitem__, reverse=True)
        if len(keys) > width and nb[keys[width - 1]] == nb[keys[width]]:  # an exact tie at the cut
            cut = nb[keys[width - 1]]
            tied = sorted((x for x in keys if nb[x] == cut), key=trie.labels)
            keys = [x for x in keys if nb[x] > cut] + tied
        keys = keys[:width] + [-1] * (width - len(keys))
        out.append((keys, [nb[x] if x >= 0 else -math.inf for x in keys]))
    return out


def _frame_settled(trie: _Trie, nbs: list, node: list, lp: list, width: int) -> list:
    """Whether no later round of each row's frame can change its beam, the
    top B = ``width`` of ``nbs[i]``, given frontier ``node[i]``, ``lp[i]``.
    Let theta be the B-th best value.  Every later contribution is a blank
    taken by a descendant of a frontier hypothesis f: it is <= lp_f, as
    log-probs are <= 0, and lands on a key extending f's labels.  A key
    receives at most B contributions per frame, one per beam prefix, so it
    ends at most log(B+1) above the largest of its value and those
    contributions.  So the top B are final when (a) every frontier lp is
    more than that margin (plus rounding at any finite magnitude) below
    theta, and (b) every key e within the margin of theta that a frontier
    hypothesis can reach keeps its bits when the largest such lp is merged
    into it: lp < e and exp(lp - e) <= 2^-56 |e|, so that log1p(exp(lp - e))
    stays below half an ulp of e, or e = +0.0 and exp(lp - e) underflows.
    Reach is a walk up the trie to the shallowest frontier node.  A NaN
    keeps the frame going.  Skipped rounds score nothing, so a non-finite
    network output that only they would meet goes unseen."""
    settled, margin = [], math.log1p(width)
    for nb, xs, lps in zip(nbs, node, lp):
        theta = sorted(nb.values(), reverse=True)[width - 1] if len(nb) >= width else -math.inf
        limit = theta - margin - (width + 2) * 2.0**-45 * (1.0 + 2.0 * abs(theta))
        done = theta > -math.inf and all(f < limit for f in lps)  # (a), a NaN included
        if done:
            reach, low = dict(zip(xs, lps)), min(trie.depth[x] for x in xs if x >= 0)
            for x, e in nb.items():
                if not e < limit:  # near theta, or NaN
                    best = -math.inf
                    while x >= 0 and trie.depth[x] >= low:
                        best, x = max(best, reach.get(x, -math.inf)), trie.parent[x]
                    if best > -math.inf or e != e:  # (b)
                        done = best < e and (math.exp(best - e) <= abs(e) * 2.0**-56 if e else
                                             best - e < -750 and math.copysign(1.0, e) > 0)
                        if not done:
                            break
        settled.append(done)
    return settled


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

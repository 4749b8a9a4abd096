"""Transducer alignment lattice: forward-backward loss and its gradient.

The lattice is the standard T x (U+1) grid: a blank emission advances the
frame index t, a label emission advances the target index u, and every
complete path ends with a blank at (T-1, U).  All recursions run in the log
domain in float64.

Both recursions are scanned one label column at a time.  Within column u
the blank arcs chain the frames, so with ``B[t] = sum_{s<t} lp_blank[s, u]``
(an exclusive cumulative sum) the recurrences have the closed forms

    alpha[t, u] = B[t] + log sum_{s<=t} exp(a[s] - B[s]),
                  a[s] = alpha[s, u-1] + lp_label[s, u-1]
    beta[t, u]  = -B[t] + log sum_{s>=t} exp(b[s] + B[s]),
                  b[s] = lp_label[s, u] + beta[s, u+1]

where column 0 enters only at (0, 0) with log-probability 0 and column U
leaves only through the final blank at (T-1, U).  Each sum is one
``np.logaddexp.accumulate`` (the beta one over reversed frames), so Python
loops over the U+1 columns only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .mathops import log_softmax

NEG_INF = -np.inf


@dataclass
class TransducerLattice:
    """Forward/backward log-probability grids for one (frames, target) pair."""

    T: int
    U: int
    log_alpha: np.ndarray  # (T, U+1)
    log_beta: np.ndarray  # (T, U+1)
    lp_blank: np.ndarray  # (T, U+1) log P(blank | t, u)
    lp_label: np.ndarray  # (T, U)   log P(target[u] | t, u)
    log_likelihood: float


@dataclass
class LossResult:
    loss: float
    dlogits: np.ndarray  # (T, U+1, V+1)
    lattice: TransducerLattice


def transducer_loss(logits_grid: np.ndarray, target) -> LossResult:
    """Negative log-probability of ``target`` summed over all alignments.

    ``logits_grid`` is (T, U+1, V+1) with blank as the last class.  The
    gradient w.r.t. the logits is computed analytically from the alpha/beta
    grids.  The lattice is the standard uncapped recursion, so any U is
    feasible over T >= 1 frames.
    """
    target = list(target)
    U = len(target)
    logits_grid = np.asarray(logits_grid, dtype=np.float64)
    if logits_grid.ndim != 3:
        raise ShapeError(f"logits grid must be (T, U+1, V+1), got {logits_grid.shape}")
    T, u_rows, num_logits = logits_grid.shape
    if u_rows != U + 1:
        raise ShapeError(f"logits grid has {u_rows} target rows, expected U+1={U + 1}")
    if not np.all(np.isfinite(logits_grid)):
        raise DomainError("logits grid contains non-finite entries")
    if any(not 0 <= y < num_logits - 1 for y in target):
        raise DomainError("target contains ids outside the non-blank vocabulary")
    if T == 0:
        if U > 0:
            raise DomainError(f"cannot align {U} labels over zero frames")
        lattice = TransducerLattice(0, 0, np.zeros((0, 1)), np.zeros((0, 1)),
                                    np.zeros((0, 1)), np.zeros((0, 0)), 0.0)
        return LossResult(0.0, np.zeros_like(logits_grid), lattice)

    lp = log_softmax(logits_grid)
    blank = num_logits - 1
    label_rows = np.arange(U)
    labels = np.asarray(target, dtype=np.intp)
    lp_blank = lp[:, :, blank].copy()  # lp's buffer becomes dlogits below
    lp_label = lp[:, label_rows, labels]  # (T, U)

    # Blank-run log-probabilities: B[t, u] = sum_{s<t} lp_blank[s, u].
    B = np.zeros((T, U + 1))
    np.cumsum(lp_blank[:-1], axis=0, out=B[1:])

    log_alpha = np.empty((T, U + 1))
    log_alpha[:, 0] = B[:, 0]
    for u in range(1, U + 1):
        enter = log_alpha[:, u - 1] + lp_label[:, u - 1]
        log_alpha[:, u] = B[:, u] + np.logaddexp.accumulate(enter - B[:, u])
    ll = log_alpha[T - 1, U] + lp_blank[T - 1, U]

    log_beta = np.empty((T, U + 1))
    leave = np.full(T, NEG_INF)
    leave[T - 1] = lp_blank[T - 1, U]
    for u in range(U, -1, -1):
        if u < U:
            leave = lp_label[:, u] + log_beta[:, u + 1]
        scan = np.logaddexp.accumulate((leave + B[:, u])[::-1])
        log_beta[:, u] = scan[::-1] - B[:, u]

    loss = -ll

    # Arc occupancies: posterior probability of traversing each arc.
    occ_blank = np.zeros((T, U + 1))
    if T > 1:
        occ_blank[:-1, :] = np.exp(log_alpha[:-1] + lp_blank[:-1] + log_beta[1:] - ll)
    occ_blank[T - 1, U] = np.exp(log_alpha[T - 1, U] + lp_blank[T - 1, U] - ll)
    occ_label = np.exp(log_alpha[:, :U] + lp_label + log_beta[:, 1:] - ll)

    node_occ = occ_blank.copy()
    node_occ[:, :U] += occ_label
    dlogits = np.exp(lp, out=lp)
    dlogits *= node_occ[:, :, None]
    dlogits[:, :, blank] -= occ_blank
    dlogits[:, label_rows, labels] -= occ_label

    lattice = TransducerLattice(T, U, log_alpha, log_beta, lp_blank, lp_label, ll)
    return LossResult(loss, dlogits, lattice)

"""Output checks: program results against the benchmark's own references.

Every check returns a list of failure messages; an empty list means the
outputs passed.  No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

import reference as ref_impl

# Path log-probs are compared within this many float eps per joint step; a
# greedy path whose top-1/top-2 gap falls under ``TIE_EPS`` eps is a near-tie
# the two precisions may resolve differently, and is exempt.
LP_EPS_PER_STEP = 1e3
TIE_EPS = 1e3
LATTICE_TOL = 1e-8
RISK_TOL = 1e-9
MAX_TOKEN_ERROR_RATE = 0.05


def _eps(dtype) -> float:
    return float(np.finfo(dtype).eps)


def check_greedy(ref, frames_list, results, dtype):
    """Replay every greedy decode with the reference.

    Returns (failures, stats) where stats counts frames, labels, cap hits
    and exempt near-ties over the replayed utterances.
    """
    failures = []
    eps = _eps(dtype)
    stats = {"frames": 0, "labels": 0, "cap_hits": 0, "near_ties": 0, "worst_lp_error_share": 0.0}
    for i, (frames, res) in enumerate(zip(frames_list, results)):
        labels, lp, gap, cap_hits = ref_impl.greedy_replay(ref, frames)
        stats["frames"] += len(frames)
        stats["labels"] += len(res.labels)
        if gap < TIE_EPS * eps:
            stats["near_ties"] += 1
            continue
        stats["cap_hits"] += cap_hits
        steps = len(frames) + len(labels)
        tol = LP_EPS_PER_STEP * eps * steps * max(1.0, abs(lp) / steps)
        stats["worst_lp_error_share"] = max(stats["worst_lp_error_share"], abs(res.log_prob - lp) / tol)
        if list(res.labels) != labels:
            failures.append(f"greedy utt {i}: labels {list(res.labels)[:8]}... != reference {labels[:8]}...")
        elif abs(res.log_prob - lp) > tol:
            failures.append(f"greedy utt {i}: log_prob {res.log_prob:.9g} != reference {lp:.9g} (tol {tol:.2g})")
    return failures, stats


def check_nbest(nbest, beam_width, tag="beam"):
    """Sorted by (-log_prob, labels), distinct label sequences, at most B."""
    failures = []
    if not 1 <= len(nbest) <= beam_width:
        failures.append(f"{tag}: {len(nbest)} hypotheses for beam width {beam_width}")
    keys = [(-h.log_prob, tuple(h.labels)) for h in nbest]
    if keys != sorted(keys):
        failures.append(f"{tag}: n-best list is not sorted by descending log-prob")
    if len({tuple(h.labels) for h in nbest}) != len(nbest):
        failures.append(f"{tag}: n-best list repeats a label sequence")
    return failures


def check_beam(ref, frames_list, nbests, beam_width, dtype):
    """Each merged beam score is at most the exact marginal of its labels.

    Beam search sums only the alignments it kept, so its score can never
    exceed the sum over all alignments.  Returns (failures, worst margin).
    """
    failures = []
    eps = _eps(dtype)
    worst = -np.inf
    for i, (frames, nbest) in enumerate(zip(frames_list, nbests)):
        failures += check_nbest(nbest, beam_width, f"beam utt {i}")
        for h in nbest:
            exact = ref_impl.exact_log_prob(ref, frames, h.labels)
            tol = max(RISK_TOL, LP_EPS_PER_STEP * eps * (len(frames) + len(h.labels)))
            worst = max(worst, h.log_prob - exact)
            if h.log_prob > exact + tol:
                failures.append(
                    f"beam utt {i}: score {h.log_prob:.9g} exceeds exact marginal "
                    f"{exact:.9g} of {tuple(h.labels)[:8]} (tol {tol:.2g})"
                )
    return failures, float(worst)


def check_lattice(weights, config, utts, program_nll):
    """Program utterance losses equal the reference alpha recursion."""
    failures = []
    for i, (utt, nll) in enumerate(zip(utts, program_nll)):
        own = ref_impl.utterance_nll(weights, config, utt.features, utt.labels)
        if not abs(nll - own) <= LATTICE_TOL:
            failures.append(f"lattice utt {i}: loss {nll:.12g} != reference {own:.12g}")
    return failures


def check_gradients(fn, weights, grads, probes, tag):
    """Central differences of ``fn`` against analytic ``grads`` at ``probes``.

    ``probes`` lists (grad name, array to perturb, index) triples.
    """
    failures = []
    for name, array, index in probes:
        numeric = ref_impl.central_difference(fn, array, index)
        analytic = float(grads[name][index])
        if abs(numeric - analytic) > 1e-6 + 1e-4 * abs(numeric):
            failures.append(f"{tag} grad {name}{index}: analytic {analytic:.9g} != numeric {numeric:.9g}")
    return failures


def check_risk(program_risk, hyp_log_probs, hyps, reference):
    """Program risk equals the reference softmax-weighted edit distance
    and lies between the smallest and largest distance in the list."""
    own, dist = ref_impl.expected_risk(hyp_log_probs, hyps, reference)
    failures = []
    if not dist.min() - RISK_TOL <= program_risk <= dist.max() + RISK_TOL:
        failures.append(f"risk {program_risk:.9g} outside [{dist.min()}, {dist.max()}]")
    if abs(program_risk - own) > RISK_TOL * max(1.0, own):
        failures.append(f"risk {program_risk:.12g} != reference {own:.12g}")
    return failures


def check_token_error_rate(hyps, refs, tag):
    errors = sum(ref_impl.levenshtein(h, r) for h, r in zip(hyps, refs))
    total = sum(len(r) for r in refs)
    ter = errors / total
    if not ter < MAX_TOKEN_ERROR_RATE:
        return [f"{tag}: greedy token error rate {ter:.3f} >= {MAX_TOKEN_ERROR_RATE}"], ter
    return [], ter


def check_same_tensors(a: dict, b: dict, tag):
    """Two name -> array maps hold bit-identical arrays."""
    if a.keys() != b.keys():
        return [f"{tag}: tensor names differ"]
    return [
        f"{tag}: tensor {name} differs"
        for name in a
        if a[name].dtype != b[name].dtype
        or a[name].shape != b[name].shape
        or a[name].tobytes() != b[name].tobytes()
    ]

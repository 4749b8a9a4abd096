"""Dense linear algebra and neural primitives.

Matrices are 2-D numpy arrays, row-major, float64 in tests (an optional
float32 storage mode exists for benchmark builds).  All functions are pure
and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

LN_EPS = 1e-6


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    ``exp(-|x|)`` never overflows; both branches are computed for every
    element and ``np.where`` picks 1/(1+e) for x >= 0 and e/(1+e) below.
    """
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def swish(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x), elementwise."""
    return x * sigmoid(x)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = LN_EPS,
) -> np.ndarray:
    """(x - mean) / sqrt(pop_var + eps) * gamma + beta, over the last axis.

    ``x`` is one vector (D,) or a batch (..., D) normalized row by row.
    Uses the population (1/D) variance, not the sample variance.
    """
    x = np.asarray(x)
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    if x.ndim < 1 or x.shape[-1:] != gamma.shape or x.shape[-1:] != beta.shape:
        raise ShapeError(
            f"layer_norm length mismatch: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    if eps < 0:
        raise ShapeError(f"layer_norm eps must be >= 0, got {eps}")
    n = x.shape[-1]
    d = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(d * d, axis=-1, keepdims=True) / n  # population variance
    return d / np.sqrt(var + eps) * gamma + beta


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities with max-subtraction for overflow safety."""
    logits = np.asarray(logits)
    if logits.size == 0:
        raise ShapeError("log_softmax of an empty vector")
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    # in place unless integer input, whose shifted values are still integers
    return np.subtract(shifted, lse, out=shifted if shifted.dtype == lse.dtype else None)


def logaddexp(a: float, b: float) -> float:
    """Two-operand log-domain add of scalars, for beam search's merge of
    identical label sequences."""
    if a == -np.inf:
        return b
    if b == -np.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + np.log1p(np.exp(lo - hi))

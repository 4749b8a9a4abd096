"""Dense linear algebra and neural primitives.

Matrices are 2-D numpy arrays, row-major, float64 in tests (an optional
float32 storage mode exists for benchmark builds).  All functions are pure
and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

LN_EPS = 1e-6


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product; raises ShapeError on inner-dimension mismatch."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    return a @ b


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def swish(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x), elementwise."""
    return x * sigmoid(x)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = LN_EPS,
) -> np.ndarray:
    """(x - mean) / sqrt(pop_var + eps) * gamma + beta.

    Uses the population (1/D) variance, not the sample variance.
    """
    x = np.asarray(x)
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    if x.shape != gamma.shape or x.shape != beta.shape:
        raise ShapeError(
            f"layer_norm length mismatch: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    if eps < 0:
        raise ShapeError(f"layer_norm eps must be >= 0, got {eps}")
    mean = x.mean()
    var = x.var()  # population variance
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities with max-subtraction for overflow safety."""
    logits = np.asarray(logits)
    if logits.size == 0:
        raise ShapeError("log_softmax of an empty vector")
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def logaddexp(a: float, b: float) -> float:
    """Two-operand log-domain add for lattice recursions."""
    if a == -np.inf:
        return b
    if b == -np.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + np.log1p(np.exp(lo - hi))

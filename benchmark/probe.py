"""Fixed reference work, timed between the operations' slices.

The shared host this benchmark was built on changes speed by up to 2x,
often for seconds at a time, and the share of a run spent at each speed
differs from run to run, so the raw frames per second of one run say as
much about the neighbours as about the program.  The probe is a fixed piece
of work of the same make-up as the program's, in three equal parts: a
Python loop of small numpy steps (as in decoding), a scalar alpha recursion
(as in the lattice) and contractions over a (T, U+1, V) grid (as in the
gradients).  It uses no ``rnntdec`` code, so no change to the package
changes it.  Timed in short slices between the operations' slices, it
samples the host at the same moments they do, and the harness scales every
timing by the probe's rate against ``REFERENCE_RATE``.
"""

from __future__ import annotations

import math

import numpy as np

# probe calls per second on the reference host (see README.md); scaled
# timings read as they would on a host that runs the probe at this rate
REFERENCE_RATE = 300.0

_D, _V, _STEPS = 32, 6, 30  # decoding-like loop
_GRID_T, _GRID_U = 40, 11  # alpha recursion
_T, _U1, _H = 140, 36, 32  # gradient-like contractions


class Probe:
    """One call is one unit of reference work (about 4 ms on the reference
    host at ``scale`` 1; smaller scales shorten every part alike); it
    returns a checksum that must repeat exactly from call to call."""

    def __init__(self, scale: float = 1.0):
        rng = np.random.default_rng(0)
        self.steps = max(1, round(_STEPS * scale))
        self.w_in = rng.standard_normal((_D, _D)) / math.sqrt(_D)
        self.w_out = rng.standard_normal((_V, _D))
        self.x0 = rng.standard_normal(_D)
        self.grid = rng.standard_normal((max(2, round(_GRID_T * scale)), _GRID_U + 1, 2)) - 1.0
        T = max(1, round(_T * scale))
        self.dlogits = rng.standard_normal((T, _U1, _V))
        self.hidden = rng.standard_normal((T, _U1, _H))

    def __call__(self) -> float:
        x, acc = self.x0, 0.0
        for i in range(self.steps):
            h = np.tanh(self.w_in @ x)
            h = (h - h.mean()) / np.sqrt(h.var() + 1e-6)
            z = self.w_out @ h
            m = z.max()
            lp = z - (m + np.log(np.exp(z - m).sum()))
            acc += float(lp[i % _V])
            x = 0.5 * (h + self.x0)

        g = self.grid
        alpha = [[0.0] * (_GRID_U + 1) for _ in range(len(g))]
        for t in range(len(g)):
            for u in range(_GRID_U + 1):
                if t == 0 and u == 0:
                    continue
                a = alpha[t - 1][u] + g[t - 1, u, 0] if t else -math.inf
                b = alpha[t][u - 1] + g[t, u - 1, 1] if u else -math.inf
                hi = max(a, b)
                alpha[t][u] = hi + math.log1p(math.exp(min(a, b) - hi))
        acc += alpha[-1][-1]

        grad = np.einsum("tuv,tuh->vh", self.dlogits, self.hidden)
        acc += float(grad[0, 0]) + float(np.tanh(self.hidden).sum())
        return acc

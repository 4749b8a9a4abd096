"""Wall-clock benchmarking of single decoder steps.

One step is one prediction-network forward plus one joint forward, the work
a decoder does per emitted symbol.  Inputs (frames, history windows) are
generated ahead of time; the timed region contains only the step function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import DecoderConfig, DictCodec
from .errors import ConfigError
from .nets import joint_forward, prediction_forward, project_prediction
from .rng import SeededRng
from .weights import ModelWeights

BLOCK_RUNS = 100  # steps a decoder runs before the next decoder's turn
POOL_SIZE = 16  # pre-generated (frame, history) inputs a step function cycles through


def make_step_fn(weights: ModelWeights, config: DecoderConfig, seed: int = 0):
    """Closure running one decode step on pre-generated frames/windows.

    Cycles through ``POOL_SIZE`` random (frame, populated-history) pairs so
    repeated calls do not hit one identical cached input.
    """
    rng = SeededRng(seed).derive(0xBE7C)
    frames = [
        rng.normal(config.d_enc, dtype=weights.dtype) for _ in range(POOL_SIZE)
    ]
    # one-row recent-first id matrices of N labels drawn oldest first
    windows = [
        np.array([rng.integers(config.history_len, 0, config.vocab_size)[::-1]])
        for _ in range(POOL_SIZE)
    ]
    idx = 0  # rotating index, plain int for speed

    def step():
        nonlocal idx
        i = idx
        idx = (i + 1) % POOL_SIZE
        g = prediction_forward(windows[i], weights, config)[0]
        return joint_forward(frames[i] @ weights.enc_w, project_prediction(g, weights), weights)

    return step


@dataclass
class BenchRecord(DictCodec):
    core_label: str
    decoder_name: str
    runs: int
    mean_ms: float
    std_ms: float


def cpu_label() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine() or "unknown-cpu"


def bench_decoders(decoders, runs: int, warmup: int, seed: int = 0) -> list[BenchRecord]:
    """One BenchRecord per (name, weights, config) of ``decoders``: the mean
    and population standard deviation, in milliseconds, of ``runs`` timed
    steps.  The decoders take turns in blocks of ``BLOCK_RUNS`` steps, so
    load on the host during the run falls on all of them alike and does not
    decide their ratio; ``warmup`` unrecorded steps precede each decoder's
    first block.
    """
    if runs < 1:
        raise ConfigError(f"benchmark needs runs >= 1, got {runs}")
    steps = [make_step_fn(weights, config, seed=seed) for _, weights, config in decoders]
    times = np.empty((len(steps), runs))
    clock = time.perf_counter
    for start in range(0, runs, BLOCK_RUNS):
        for step, row in zip(steps, times):
            for _ in range(0 if start else warmup):
                step()
            for i in range(start, min(start + BLOCK_RUNS, runs)):
                t0 = clock()
                step()
                row[i] = clock() - t0
    times *= 1e3
    label = cpu_label()
    return [BenchRecord(label, name, runs, float(t.mean()), float(t.std()))
            for (name, _, _), t in zip(decoders, times)]

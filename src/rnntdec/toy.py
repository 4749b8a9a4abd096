"""Synthetic desk-scale task: noisy one-hot frames per label.

Each label in a target sequence emits a run of frames equal to its one-hot
feature vector plus Gaussian noise, so a tiny affine encoder plus any of the
decoders can learn it in seconds.  Generation is fully deterministic per
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DictCodec
from .errors import ConfigError, ShapeError
from .rng import SeededRng
from .weights import EncoderStub


@dataclass(frozen=True)
class ToyTaskSpec(DictCodec):
    vocab_size: int = 5
    min_target_len: int = 2
    max_target_len: int = 5
    frames_per_label_min: int = 2
    frames_per_label_max: int = 4
    feature_dim: int = 8
    noise_std: float = 0.1
    dataset_size: int = 200
    dev_fraction: float = 0.15
    split_seed: int = 1

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ConfigError("toy vocab_size must be >= 2")
        if self.feature_dim < self.vocab_size:
            raise ConfigError(
                f"feature_dim {self.feature_dim} must fit one-hot labels "
                f"(vocab_size {self.vocab_size})"
            )
        if not 1 <= self.min_target_len <= self.max_target_len:
            raise ConfigError("need 1 <= min_target_len <= max_target_len")
        if not 1 <= self.frames_per_label_min <= self.frames_per_label_max:
            raise ConfigError("need 1 <= frames_per_label_min <= frames_per_label_max")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if not 0 < self.dev_fraction < 1:
            raise ConfigError("dev_fraction must be in (0, 1)")
        if self.dataset_size < 2:
            raise ConfigError("dataset_size must be >= 2")


@dataclass
class Utterance:
    features: np.ndarray  # (T, feature_dim)
    labels: list[int]


def make_toy_dataset(spec: ToyTaskSpec, seed: int) -> tuple[list[Utterance], list[Utterance]]:
    """Generate the corpus and split it into disjoint (train, dev) sets."""
    rng = SeededRng(seed).derive(0x70D47A)
    utts = []
    for _ in range(spec.dataset_size):
        length = int(rng.integers(1, spec.min_target_len, spec.max_target_len + 1)[0])
        # no adjacent repeats: a run of identical one-hot frames must map to
        # exactly one token, otherwise segment counts are ambiguous for any
        # decoder conditioned on label history alone
        labels: list[int] = []
        for _ in range(length):
            pick = int(rng.integers(1, 0, spec.vocab_size - (1 if labels else 0))[0])
            if labels and pick >= labels[-1]:
                pick += 1
            labels.append(pick)
        rows = []
        for label in labels:
            n_frames = int(
                rng.integers(1, spec.frames_per_label_min, spec.frames_per_label_max + 1)[0]
            )
            block = np.zeros((n_frames, spec.feature_dim))
            block[:, label] = 1.0
            rows.append(block)
        features = np.concatenate(rows, axis=0)
        if spec.noise_std > 0:
            features = features + rng.normal(features.shape, std=spec.noise_std)
        utts.append(Utterance(features, labels))
    perm = SeededRng(spec.split_seed).permutation(spec.dataset_size)
    dev_count = max(1, round(spec.dataset_size * spec.dev_fraction))
    dev_idx = set(int(i) for i in perm[:dev_count])
    train = [utts[i] for i in range(spec.dataset_size) if i not in dev_idx]
    dev = [utts[i] for i in sorted(dev_idx)]
    return train, dev


def frames_for(utt: Utterance, weights) -> np.ndarray:
    """Encoder frames of ``utt``: its features through the model's encoder
    stub, or the features themselves when the model has none."""
    if weights.enc_stub is None:
        return utt.features
    return toy_encode(utt.features, weights.enc_stub)


def toy_encode(features: np.ndarray, stub: EncoderStub) -> np.ndarray:
    """Per-frame affine map to encoder space: features @ w + b."""
    if features.ndim != 2 or features.shape[1] != stub.w.shape[0]:
        raise ShapeError(
            f"features {features.shape} incompatible with encoder input dim {stub.w.shape[0]}"
        )
    return features @ stub.w + stub.b


def encode_backward(features: np.ndarray, dframes: np.ndarray, grads: dict) -> None:
    """Accumulate encoder-stub gradients from the frames gradient."""
    grads["enc_stub_w"] += features.T @ dframes
    grads["enc_stub_b"] += dframes.sum(axis=0)

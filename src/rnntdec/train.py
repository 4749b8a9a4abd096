"""Toy-scale training: SGD with momentum on the transducer loss, plus the
EMBR fine-tuning phase that follows it.

Every optimizer step of either phase is one ``backprop.step_grads`` call
over the batch, with one gradient set: the loss's grid pairs each frame
with the U+1 history windows of the target.  Everything is single-threaded
and deterministic given the hyperparameter seed.  Per-epoch metrics can be
appended to a JSON-lines log.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .backprop import step_grads, target_windows
from .config import DecoderConfig, DictCodec
from .decoding import greedy_decode
from .embr import EmbrParams, edit_distance, embr_batch_grads
from .embr import dev_risk  # noqa: F401 (re-exported)
from .errors import ConfigError, DivergenceError, DomainError
from .lattice import transducer_loss
from .rng import SeededRng
from .toy import ToyTaskSpec, Utterance, frames_for, make_toy_dataset
from .weights import ModelWeights, check_config, init_encoder_stub, init_weights, trainable_tensors


@dataclass
class Hyperparams(DictCodec):
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 4
    epochs: int = 15
    seed: int = 0
    grad_clip: float = 1.0  # global grad-norm ceiling; 0 disables

    def __post_init__(self):
        self.check_min(batch_size=1, epochs=1, grad_clip=0)


class SgdMomentum:
    """v <- momentum * v - lr * g;  w <- w + v.  In-place on the tensors.

    ``grad_clip`` rescales the whole gradient when its global L2 norm
    exceeds the ceiling; the LayerNorm pathways of the reduced decoder spike
    hard during the blank-dominance escape and a single global learning rate
    cannot absorb that unclipped.
    """

    def __init__(self, lr: float, momentum: float, grad_clip: float = 0.0):
        self.lr = lr
        self.momentum = momentum
        self.grad_clip = grad_clip
        self._velocity: dict[str, np.ndarray] = {}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        scale = 1.0
        if self.grad_clip > 0.0:
            total = np.sqrt(sum(float((grads[n] ** 2).sum()) for n in tensors))
            if total > self.grad_clip:
                scale = self.grad_clip / total
        for name, w in tensors.items():
            g = grads[name]
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(w)
                self._velocity[name] = v
            v *= self.momentum
            v -= (self.lr * scale) * g
            w += v


def _loss_item(utt: Utterance, weights: ModelWeights, config: DecoderConfig):
    """``step_grads``'s item for the transducer loss of one utterance."""
    def objective(logits):
        result = transducer_loss(logits, utt.labels)
        return result.loss, result.dlogits

    windows = target_windows(utt.labels, check_config(weights, config))
    return utt.features, frames_for(utt, weights), windows, objective


def utterance_loss_grads(utt: Utterance, weights: ModelWeights, config: DecoderConfig):
    """Transducer loss and gradients for one utterance (features or frames)."""
    return step_grads([_loss_item(utt, weights, config)], weights, config)


def token_error_rate(
    utts: list[Utterance], weights: ModelWeights, config: DecoderConfig
) -> float:
    """Greedy-decode edit distance over reference length, summed over utts."""
    errors = total = 0
    for utt in utts:
        hyp = greedy_decode(frames_for(utt, weights), weights, config).labels
        errors += edit_distance(hyp, utt.labels)
        total += len(utt.labels)
    return errors / total if total else 0.0


@dataclass
class EpochMetrics(DictCodec):
    epoch: int
    loss: float
    dev_token_error_rate: float
    wall_s: float


@dataclass
class TrainResult:
    weights: ModelWeights
    metrics: list[EpochMetrics]
    train_steps: int
    train_set: list[Utterance] = field(repr=False, default_factory=list)
    dev_set: list[Utterance] = field(repr=False, default_factory=list)


def toy_corpus(config: DecoderConfig, task: ToyTaskSpec, hp: Hyperparams):
    """The (train, dev) corpus ``train`` draws for ``hp.seed`` and the number
    of optimizer steps it makes over it, as (train_set, dev_set, steps)."""
    if config.vocab_size != task.vocab_size:
        raise ConfigError(
            f"decoder vocab_size {config.vocab_size} != task vocab_size {task.vocab_size}"
        )
    train_set, dev_set = make_toy_dataset(task, seed=SeededRng(hp.seed).derive(1).seed)
    return train_set, dev_set, hp.epochs * -(-len(train_set) // hp.batch_size)


def train(
    config: DecoderConfig,
    task: ToyTaskSpec,
    hp: Hyperparams,
    metrics_path: str | None = None,
) -> TrainResult:
    """Train a fresh decoder (plus encoder stub) on the toy task.

    Raises DivergenceError as soon as a batch loss, or an epoch's dev
    decode, goes non-finite.
    """
    train_set, dev_set, _ = toy_corpus(config, task, hp)
    rng = SeededRng(hp.seed)
    weights = init_weights(config, seed=rng.derive(2).seed)
    weights.enc_stub = init_encoder_stub(task.feature_dim, config.d_enc, rng.derive(3).seed)
    shuffle_rng = rng.derive(4)

    optimizer = SgdMomentum(hp.lr, hp.momentum, hp.grad_clip)
    tensors = trainable_tensors(weights)
    metrics: list[EpochMetrics] = []
    steps = 0
    for epoch in range(hp.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), hp.batch_size):
            batch = [train_set[int(i)] for i in order[start : start + hp.batch_size]]
            try:
                loss, grads = step_grads(
                    [_loss_item(utt, weights, config) for utt in batch], weights, config)
            except DomainError as e:
                raise DivergenceError(
                    f"diverged (non-finite forward) at epoch {epoch}, step {steps}: {e}"
                ) from e
            if not np.isfinite(loss) or loss > 1e12:
                raise DivergenceError(
                    f"diverged (loss={loss:.3e}) at epoch {epoch}, step {steps} (lr={hp.lr})"
                )
            optimizer.step(tensors, grads)
            losses.append(loss)
            steps += 1
        try:
            dev_ter = token_error_rate(dev_set, weights, config)
        except DomainError as e:  # an update left the network non-finite
            raise DivergenceError(f"diverged (non-finite dev decode) at epoch {epoch}: {e}") from e
        entry = EpochMetrics(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else 0.0,
            dev_token_error_rate=dev_ter,
            wall_s=time.perf_counter() - t0,
        )
        metrics.append(entry)
        if metrics_path:
            with open(metrics_path, "a") as fh:
                fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
    return TrainResult(weights, metrics, steps, train_set, dev_set)


@dataclass
class EmbrPhaseResult:
    weights: ModelWeights
    step_risks: list[float]
    skipped: int  # always 0 (beam search never returns an empty n-best); the benchmark reads it
    steps: int


def embr_phase(
    weights: ModelWeights,
    config: DecoderConfig,
    train_set: list[Utterance],
    params: EmbrParams,
    main_train_steps: int | None = None,
) -> EmbrPhaseResult:
    """Risk fine-tuning after regular training.

    Runs for ``params.steps`` updates, defaulting to one tenth of the main
    training step count.  Batches are drawn by deterministic shuffling.
    Raises DivergenceError as soon as a batch risk or, after an update, a
    trainable tensor goes non-finite.
    """
    steps = params.steps
    if steps <= 0:
        if main_train_steps is None:
            raise ConfigError("embr steps not set and main step count unknown")
        steps = max(1, main_train_steps // 10)
    rng = SeededRng(params.seed).derive(0xE3B)
    optimizer = SgdMomentum(params.lr, params.momentum, params.grad_clip)
    tensors = trainable_tensors(weights)
    step_risks: list[float] = []
    order: list[int] = []
    for step in range(steps):
        if len(order) < params.batch_size:
            order.extend(int(i) for i in rng.permutation(len(train_set)))
        batch = [train_set[i] for i in order[: params.batch_size]]
        del order[: params.batch_size]
        try:
            risk, grads = embr_batch_grads(batch, weights, config, params)
        except DomainError as e:
            raise DivergenceError(f"EMBR diverged at step {step} (lr={params.lr}): {e}") from e
        if not np.isfinite(risk):
            raise DivergenceError(f"EMBR diverged (risk={risk}) at step {step} (lr={params.lr})")
        optimizer.step(tensors, grads)
        bad = [name for name, t in tensors.items() if not np.isfinite(t).all()]
        if bad:
            raise DivergenceError(f"EMBR diverged (non-finite {', '.join(bad)}) after the update "
                                  f"of step {step} (lr={params.lr})")
        step_risks.append(risk)
    return EmbrPhaseResult(weights, step_risks, 0, steps)

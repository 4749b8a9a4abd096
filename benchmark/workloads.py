"""Workload definitions: inputs, set-up and the four timed operations.

Inputs come from the run seed.  Every decode utterance of a workload has
the same number of labels and frames, so a per-utterance median does not
jump between length groups from one run to the next; the seed chooses the
labels and the noise.  ``train()`` draws its own corpus from the task spec
and the run seed; on ``long`` that corpus has one shape too, since at 20
training utterances the spread of lengths between seeds moves its cost.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, replace

import numpy as np

import rnntdec
from rnntdec.runconfig import load_run_config
from rnntdec.toy import ToyTaskSpec, Utterance
from rnntdec.train import EmbrParams, Hyperparams
from rnntdec.weights import clone_weights

BEAM_WIDTH = 4
# v4096 decodes with random-init weights; this blank output bias makes the
# greedy decoder emit about one label every second frame instead of hitting
# the symbols-per-frame cap on every frame.
V4096_BLANK_BIAS = 3.5
V4096_WEIGHT_SEED = 0


@dataclass(frozen=True)
class Spec:
    name: str
    # decode inputs: n_decode utterances of target_len labels and
    # frames_per_label frames per label; beam decodes the first n_beam
    n_decode: int
    target_len: int
    frames_per_label: int
    n_beam: int
    # train(): task overrides and epochs
    train_task: dict
    train_epochs: int
    # embr_phase(): the first n_embr decode utterances, batch size, steps;
    # steps * batch is a whole number of passes over them
    n_embr: int
    embr_batch: int
    embr_steps: int


SPECS = {
    "toy": Spec("toy", 48, 4, 3, 48, {}, 2, 48, 4, 12),
    "long": Spec(
        "long", 12, 35, 4, 12,
        {"min_target_len": 35, "max_target_len": 35, "frames_per_label_min": 4,
         "frames_per_label_max": 4, "dataset_size": 12},
        1, 2, 2, 1,
    ),
    # v4096 decodes Gaussian frames: greedy utterances are 40 frames and beam
    # utterances 3 frames; target_len/frames_per_label shape its EMBR
    # utterances.
    "v4096": Spec(
        "v4096", 48, 2, 2, 2,
        {"vocab_size": 4096, "feature_dim": 4096, "min_target_len": 1, "max_target_len": 2,
         "frames_per_label_min": 2, "frames_per_label_max": 3, "dataset_size": 12,
         "dev_fraction": 0.25},
        1, 4, 2, 2,
    ),
}
V4096_GREEDY_T = 40
V4096_BEAM_T = 3


def toy_utterances(n, task: ToyTaskSpec, rng, target_len, frames_per_label):
    """Synthetic toy utterances: one-hot frames per label plus Gaussian noise,
    no label repeated back to back (as in the package's toy task)."""
    utts = []
    T = target_len * frames_per_label
    for _ in range(n):
        labels: list[int] = []
        for _ in range(target_len):
            pick = int(rng.integers(0, task.vocab_size - (1 if labels else 0)))
            if labels and pick >= labels[-1]:
                pick += 1
            labels.append(pick)
        features = rng.normal(0.0, task.noise_std, size=(T, task.feature_dim))
        features[np.arange(T), np.repeat(labels, frames_per_label)] += 1.0
        utts.append(Utterance(features, labels))
    return utts


# Every program call goes through the ``rnntdec`` namespace at call time,
# so the traced run sees the wrappers ``tracing.Tracer`` installs there.


@dataclass
class Context:
    """Everything the timed operations need, built by ``setup``."""

    decode_weights: object
    decode_cfg: object
    greedy_frames: list
    beam_frames: list
    references: list  # generator labels per greedy utterance, or None
    train_args: tuple
    embr_weights: object
    embr_cfg: object
    embr_utts: list
    embr_params: EmbrParams
    archives: dict  # name -> (bytes saved, tensors before, tensors after load)


def _round_trip(weights, cfg, tmpdir, name, archives):
    path = os.path.join(tmpdir, f"{name}.rnnt")
    rnntdec.save(weights, cfg, path)
    with open(path, "rb") as fh:
        data = fh.read()
    loaded, loaded_cfg = rnntdec.load(path)
    archives[name] = (data, all_tensors(weights), all_tensors(loaded), cfg == loaded_cfg)
    return loaded


def all_tensors(weights) -> dict:
    """Every array a model holds, by field name."""
    out = {k: v for k, v in vars(weights).items() if isinstance(v, np.ndarray)}
    if weights.enc_stub is not None:
        out["enc_stub.w"] = weights.enc_stub.w
        out["enc_stub.b"] = weights.enc_stub.b
    return out


def setup(spec: Spec, seed: int, root: str, out_dir: str, span):
    """Build the models and inputs for one run of ``spec``.

    ``span(name)`` is a context manager the caller uses to trace the
    benchmark's own input generation.
    """
    run_cfg = load_run_config(os.path.join(root, "configs", "toy_reduced.json"))
    rng = np.random.default_rng(seed)
    task = replace(run_cfg.task, **spec.train_task)
    archives: dict = {}
    tmpdir = tempfile.mkdtemp(prefix="setup-", dir=out_dir)
    try:
        if spec.name == "v4096":
            cfg = rnntdec.preset("reduced_small")
            w = rnntdec.init_weights(cfg, seed=V4096_WEIGHT_SEED, dtype=np.float32)
            w.out_b[cfg.blank_id] = V4096_BLANK_BIAS
            decode_w = _round_trip(w, cfg, tmpdir, "decode", archives)
            train_cfg = replace(cfg, max_symbols_per_frame=2)
            hp = Hyperparams(lr=0.1, momentum=0.9, batch_size=3, epochs=spec.train_epochs,
                             seed=0, grad_clip=1.0)
            embr_w = _round_trip(rnntdec.train(train_cfg, task, hp).weights, train_cfg, tmpdir, "embr", archives)
            with span("bench.inputs"):
                greedy = [rng.standard_normal((V4096_GREEDY_T, cfg.d_enc)).astype(np.float32)
                          for _ in range(spec.n_decode)]
                beam = [rng.standard_normal((V4096_BEAM_T, cfg.d_enc)).astype(np.float32)
                        for _ in range(spec.n_beam)]
                embr_utts = toy_utterances(spec.n_embr, task, rng,
                                           spec.target_len, spec.frames_per_label)
            references = None
            embr_cfg = train_cfg
            hp = replace(hp, seed=seed)
        else:
            cfg = run_cfg.decoder
            trained = rnntdec.train(cfg, run_cfg.task, run_cfg.train).weights
            decode_w = embr_w = _round_trip(trained, cfg, tmpdir, "decode", archives)
            with span("bench.inputs"):
                utts = toy_utterances(spec.n_decode, task, rng,
                                      spec.target_len, spec.frames_per_label)
            greedy = [rnntdec.toy_encode(u.features, decode_w.enc_stub) for u in utts]
            beam = greedy[: spec.n_beam]
            references = [u.labels for u in utts]
            embr_utts = utts[: spec.n_embr]
            embr_cfg = cfg
            hp = replace(run_cfg.train, epochs=spec.train_epochs, seed=seed)
            train_cfg = cfg
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    embr_params = replace(run_cfg.embr, beam_width=BEAM_WIDTH, batch_size=spec.embr_batch,
                          steps=spec.embr_steps, seed=seed)
    return Context(decode_w, cfg, greedy, beam, references, (train_cfg, task, hp),
                   embr_w, embr_cfg, embr_utts, embr_params, archives)


@dataclass
class Call:
    """One timed call: ``run(*prepare())``; only ``run`` is timed."""

    run: object
    frames: object  # int, or a function of the result
    prepare: object = tuple


def operations(ctx: Context):
    """The four operations as lists of calls; one list is one pass."""
    w, cfg = ctx.decode_weights, ctx.decode_cfg
    greedy = [Call(lambda f=f: rnntdec.greedy_decode(f, w, cfg), len(f)) for f in ctx.greedy_frames]
    beam = [Call(lambda f=f: rnntdec.beam_decode(f, w, cfg, BEAM_WIDTH), len(f))
            for f in ctx.beam_frames]
    train_cfg, task, hp = ctx.train_args
    train_call = Call(
        lambda: rnntdec.train(train_cfg, task, hp),
        lambda res: hp.epochs * sum(len(u.features) for u in res.train_set),
    )
    p = ctx.embr_params
    passes = p.steps * p.batch_size // len(ctx.embr_utts)
    embr_call = Call(
        lambda w2: rnntdec.embr_phase(w2, ctx.embr_cfg, ctx.embr_utts, p),
        passes * sum(len(u.features) for u in ctx.embr_utts),
        lambda: (clone_weights(ctx.embr_weights),),
    )
    return {"greedy": greedy, "beam": beam, "train": [train_call], "embr": [embr_call]}


def signature(op, out):
    """What two runs of the same call must reproduce bit for bit."""
    if op == "probe":
        return out
    if op == "greedy":
        return (tuple(out.labels), out.log_prob)
    if op == "beam":
        return tuple((h.labels, h.log_prob) for h in out)
    if op == "train":
        return (tuple(m.loss for m in out.metrics), tensor_digest(out.weights))
    return (tuple(out.step_risks), out.skipped, tensor_digest(out.weights))


def tensor_digest(weights) -> str:
    h = hashlib.blake2b()
    for name, v in sorted(all_tensors(weights).items()):
        h.update(f"{name}:{v.dtype}:{v.shape}".encode())
        h.update(np.ascontiguousarray(v))
    return h.hexdigest()

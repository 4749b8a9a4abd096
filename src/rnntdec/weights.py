"""Model weight storage, initialization, and parameter/FLOP accounting.

``tensor_specs`` is the one table of a model's tensors: their names, shapes,
initialization and trainability, in archive order.  Initialization, parameter
counts, the trainable set, clones, gradient accumulators (``backprop``) and
archives (``model_io``) are all derived from it, so no other code lists the
tensors of a variant.

Tying is implemented as real aliasing: in a tied model ``out_w`` is a numpy
view of the non-pad rows of the embedding matrix, so there is a single
storage location and mutating either view mutates the other.  Its table
entry is an alias with no storage of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import LSTM, REDUCED, DecoderConfig
from .errors import ConfigError, ValidationError
from .rng import SeededRng


@dataclass
class LstmLayer:
    """One LSTM-with-projection layer; gates packed [i, f, g, o]."""

    w_x: np.ndarray  # (in_dim, 4*units)
    w_h: np.ndarray  # (proj, 4*units)
    bias: np.ndarray  # (4*units,)
    w_p: np.ndarray  # (units, proj)


@dataclass
class EncoderStub:
    """Per-frame affine feature map standing in for a real encoder."""

    w: np.ndarray  # (d_feat, d_enc)
    b: np.ndarray  # (d_enc,)


@dataclass
class ModelWeights:
    """All decoder tensors for one DecoderConfig.

    ``emb`` has ``vocab_size + 1`` rows; the last row is the start-pad
    embedding, fixed at zero and never trained.  ``out_w`` holds one output
    row per non-blank token; the blank output row is always ``blank_w``.
    """

    config: DecoderConfig
    emb: np.ndarray  # (V+1, d_e)
    enc_w: np.ndarray  # (d_enc, d_h)
    pred_w: np.ndarray  # (pn_out_dim, d_h)
    joint_b: np.ndarray  # (d_h,)
    out_w: np.ndarray  # (V, d_h); view of emb[:V] when tied
    blank_w: np.ndarray  # (d_h,)
    out_b: np.ndarray  # (V+1,)
    positions: np.ndarray | None = None  # (H, N, d_e), reduced only
    proj_w: np.ndarray | None = None  # (d_e, d_e), reduced only
    proj_b: np.ndarray | None = None
    ln_gamma: np.ndarray | None = None
    ln_beta: np.ndarray | None = None
    lstm: list[LstmLayer] = field(default_factory=list)
    enc_stub: EncoderStub | None = None

    @property
    def dtype(self):
        return self.emb.dtype

    def validate(self) -> None:
        """Check every tensor's shape against the tensor table, and the pad
        row, tying alias and finiteness; raises ValidationError."""
        cfg = self.config
        for spec in specs_of(self):
            arr = get_tensor(self, spec.name)
            if arr.shape != spec.shape:
                raise ValidationError(f"{spec.name} shape {arr.shape} != {spec.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite entries in {spec.name}")
        if np.any(self.emb[cfg.pad_id] != 0.0):
            raise ValidationError("start-pad embedding row must be all zeros")
        if cfg.tied and (self.out_w.base is None or not np.shares_memory(self.out_w, self.emb)):
            raise ValidationError("tied model must alias out_w to the embedding rows")


class TensorSpec(NamedTuple):
    """One tensor of a model.

    ``name`` keys the tensor in archives, gradients and the trainable set.
    ``init`` is ``"normal"`` (Gaussian with std ``1/sqrt(fan_in)``),
    ``"zeros"`` or ``"ones"``.  An ``alias`` names the stored tensor whose
    rows this one views; an alias has no storage of its own.
    """

    name: str
    shape: tuple[int, ...]
    init: str
    fan_in: int
    trainable: bool
    alias: str | None = None


def _normal(name, shape, fan_in, trainable=True, alias=None) -> TensorSpec:
    return TensorSpec(name, shape, "normal", fan_in, trainable, alias)


def _const(name, shape, init="zeros") -> TensorSpec:
    return TensorSpec(name, shape, init, 0, True)


@lru_cache(maxsize=64)
def tensor_specs(config: DecoderConfig, d_feat: int | None = None) -> tuple[TensorSpec, ...]:
    """Every tensor of a ``config`` model, in archive order.

    With ``d_feat`` the table ends with the encoder stub that maps
    ``d_feat``-wide features to frames.  Frozen position vectors are listed
    with ``trainable=False``; a tied ``out_w`` is an alias of ``emb``.
    """
    c = config
    specs = [_normal("emb", (c.vocab_ext, c.d_e), c.d_e)]
    if c.variant == REDUCED:
        specs += [
            _normal("positions", (c.num_heads, c.history_len, c.d_e), c.d_e, c.position_trainable),
            _normal("proj_w", (c.d_e, c.d_e), c.d_e),
            _const("proj_b", (c.d_e,)),
            _const("ln_gamma", (c.d_e,), "ones"),
            _const("ln_beta", (c.d_e,)),
        ]
    elif c.variant == LSTM:
        gates = 4 * c.lstm_units
        for i in range(c.lstm_layers):
            in_dim = c.d_e if i == 0 else c.lstm_proj
            specs += [
                _normal(f"lstm{i}_w_x", (in_dim, gates), in_dim),
                _normal(f"lstm{i}_w_h", (c.lstm_proj, gates), c.lstm_proj),
                _const(f"lstm{i}_bias", (gates,)),
                _normal(f"lstm{i}_w_p", (c.lstm_units, c.lstm_proj), c.lstm_units),
            ]
    specs += [
        _normal("enc_w", (c.d_enc, c.d_h), c.d_enc),
        _normal("pred_w", (c.pn_out_dim, c.d_h), c.pn_out_dim),
        _const("joint_b", (c.d_h,)),
        _normal("out_w", (c.vocab_size, c.d_h), c.d_h, alias="emb" if c.tied else None),
        _normal("blank_w", (c.d_h,), c.d_h),
        _const("out_b", (c.vocab_ext,)),
    ]
    if d_feat is not None:
        specs += [_normal("enc_stub_w", (d_feat, c.d_enc), d_feat), _const("enc_stub_b", (c.d_enc,))]
    return tuple(specs)


def specs_of(weights: ModelWeights) -> tuple[TensorSpec, ...]:
    """The tensor table of ``weights``, its encoder stub included."""
    stub = weights.enc_stub
    return tensor_specs(weights.config, None if stub is None else stub.w.shape[0])


def get_tensor(weights: ModelWeights, name: str) -> np.ndarray:
    """The array a table entry names, e.g. ``lstm1_w_h`` or ``enc_stub_b``."""
    if name.startswith("lstm"):
        layer, attr = name[4:].split("_", 1)
        return getattr(weights.lstm[int(layer)], attr)
    if name.startswith("enc_stub_"):
        return getattr(weights.enc_stub, name[9:])
    return getattr(weights, name)


def weights_from_tensors(config: DecoderConfig, arrays: dict[str, np.ndarray]) -> ModelWeights:
    """ModelWeights holding ``arrays`` (stored tensors by table name), with
    the tying alias installed.  Takes ownership of the arrays."""

    def group(prefix):
        return {n[len(prefix):]: a for n, a in arrays.items() if n.startswith(prefix)}

    lstm: list[LstmLayer] = []
    while group(f"lstm{len(lstm)}_"):
        lstm.append(LstmLayer(**group(f"lstm{len(lstm)}_")))
    stub = group("enc_stub_")
    own = {n: a for n, a in arrays.items() if not n.startswith(("lstm", "enc_stub_"))}
    if config.tied:
        own["out_w"] = own["emb"][: config.vocab_size]
    return ModelWeights(config=config, **own, lstm=lstm, enc_stub=EncoderStub(**stub) if stub else None)


def init_weights(config: DecoderConfig, seed: int, dtype=np.float64) -> ModelWeights:
    """Deterministic init from the tensor table: Gaussian tensors are drawn
    from one ``SeededRng(seed)`` stream.

    Position vectors are drawn once and stay fixed unless
    ``config.position_trainable`` is set.  The pad embedding row is zeroed.
    """
    rng = SeededRng(seed)
    arrays = {}
    # out_w is drawn last, after blank_w: the draw order fixes every seed's
    # weights, so it must not change
    for spec in sorted(tensor_specs(config), key=lambda s: s.name == "out_w"):
        if spec.alias is not None:
            continue
        if spec.init == "normal":
            arrays[spec.name] = rng.normal(spec.shape, std=1.0 / np.sqrt(spec.fan_in), dtype=dtype)
        else:
            arrays[spec.name] = (np.ones if spec.init == "ones" else np.zeros)(spec.shape, dtype=dtype)
    arrays["emb"][config.pad_id] = 0.0
    return weights_from_tensors(config, arrays)


def init_encoder_stub(d_feat: int, d_enc: int, seed: int, dtype=np.float64) -> EncoderStub:
    rng = SeededRng(seed).derive(0xE7C)
    w = rng.normal((d_feat, d_enc), std=1.0 / np.sqrt(d_feat), dtype=dtype)
    return EncoderStub(w=w, b=np.zeros(d_enc, dtype=dtype))


def param_count(config: DecoderConfig) -> dict[str, int]:
    """Exact per-tensor parameter counts plus ``total``.

    The start-pad embedding row is excluded (it is not a trainable
    parameter).  In tied mode the non-blank output rows cost nothing extra,
    which is exactly ``d_h * vocab_size`` fewer parameters than untied.
    """
    counts = {
        s.name: 0 if s.alias else math.prod(s.shape) for s in tensor_specs(config)
    }
    counts = {"embedding": counts.pop("emb") - config.d_e, **counts}
    counts["total"] = sum(counts.values())
    return counts


def tied_savings(config: DecoderConfig) -> int:
    """Parameters saved by tying: d_h * vocab_size."""
    return config.d_h * config.vocab_size


def step_flops(config: DecoderConfig) -> int:
    """Analytic FLOPs for one decode step (prediction + joint forward).

    Convention: a dot product of length n costs 2n (multiply + add), so each
    element of a Gaussian-initialized tensor in ``tensor_specs`` costs 2 per
    use and each element of a bias or gain 1; scalar nonlinearities cost 4
    each.  Embedding lookups are free, and the LSTM's tensors are used once
    per history label.  Only the work without parameters is per variant.
    """
    c = config
    flops = 4 * c.d_h  # joint tanh
    if c.variant == REDUCED:
        flops += 2 * c.history_len * c.d_e + 6 * c.d_e + 4 * c.d_e  # average, LayerNorm, Swish
    elif c.variant == LSTM:
        flops += 24 * c.lstm_units * c.lstm_layers * c.history_len  # gates + state blend
    for s in tensor_specs(c):
        if s.name != "emb":
            uses = c.history_len if s.name.startswith("lstm") else 1
            flops += (2 if s.init == "normal" else 1) * math.prod(s.shape) * uses
    return flops


def trainable_tensors(weights: ModelWeights) -> dict[str, np.ndarray]:
    """Name -> array for every trainable tensor, in archive order.

    Tied models expose no separate ``out_w`` entry (its storage is ``emb``);
    frozen position vectors are excluded unless ``position_trainable``.
    The pad embedding row is included in ``emb`` but its gradient is always
    zero, so updates never move it.
    """
    return {
        s.name: get_tensor(weights, s.name)
        for s in specs_of(weights)
        if s.alias is None and s.trainable
    }


def clone_weights(weights: ModelWeights) -> ModelWeights:
    """Deep copy preserving the tying alias."""
    return weights_from_tensors(weights.config, {
        s.name: get_tensor(weights, s.name).copy() for s in specs_of(weights) if s.alias is None
    })


def check_config(weights: ModelWeights, config: DecoderConfig) -> DecoderConfig:
    """The config ``weights`` were built for, ``weights.config``.

    A model carries its config, so a caller's ``config`` must equal it;
    otherwise raises ConfigError naming each field that differs.
    """
    own = weights.config
    if config is own or config == own:
        return own
    diff = [f"{f.name} (model {getattr(own, f.name)!r}, config {getattr(config, f.name, None)!r})"
            for f in fields(own) if getattr(config, f.name, None) != getattr(own, f.name)]
    raise ConfigError("config disagrees with the model's on " + (", ".join(diff) or "its type"))

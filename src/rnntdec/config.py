"""Decoder hyperparameter configuration and the standard benchmark presets."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields

from .errors import ConfigError

REDUCED = "reduced"
STATELESS_1EMB = "stateless1emb"
CONCAT_2EMB = "concat2emb"
LSTM = "lstm"

VARIANTS = (REDUCED, STATELESS_1EMB, CONCAT_2EMB, LSTM)


# JSON types accepted for each plain field type; a bool is never a number.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


class DictCodec:
    """``to_dict``/``from_dict`` and range checks for flat dataclasses:
    configs and records."""

    def check_min(self, **minimums) -> None:
        """ConfigError unless each named field is >= its minimum."""
        for name, low in minimums.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, path: str | None = None):
        """Build from a JSON object, rejecting unknown keys, plain fields
        (int, float, bool, str) of the wrong JSON type and non-finite
        floats (JSON's NaN and Infinity).  Every error is a
        ConfigError naming ``path`` (default: the class name), as
        ``path.key`` when one key is at fault."""
        path = path or cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
        known = typing.get_type_hints(cls)
        for key, value in d.items():
            if key not in known:
                raise ConfigError(f"{path}.{key}: unknown key")
            expected = _JSON_TYPES.get(known[key])
            if expected is None:
                continue
            if not isinstance(value, expected) or (isinstance(value, bool) and expected != (bool,)):
                raise ConfigError(
                    f"{path}.{key}: expected {known[key].__name__}, got {type(value).__name__}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{path}.{key}: must be finite, got {value}")
        try:
            return cls(**d)
        except (TypeError, ConfigError) as e:
            raise ConfigError(f"{path}: {e}") from None


@dataclass(frozen=True)
class DecoderConfig(DictCodec):
    """Hyperparameters defining one decoder (prediction network + joint).

    ``history_len`` is the number of previous non-blank labels the prediction
    network conditions on; ``num_heads`` only matters for the reduced variant.
    ``tied`` shares the embedding matrix with the joint's output rows for all
    non-blank tokens and requires ``d_e == d_h``.
    """

    variant: str
    vocab_size: int
    d_e: int
    d_h: int
    d_enc: int = 512
    history_len: int = 2
    num_heads: int = 1
    tied: bool = False
    position_trainable: bool = False
    lstm_layers: int = 0
    lstm_units: int = 0
    lstm_proj: int = 0
    max_symbols_per_frame: int = 10

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        self.check_min(
            vocab_size=2, history_len=1, num_heads=1, max_symbols_per_frame=1, d_e=1, d_h=1, d_enc=1
        )
        if self.tied and self.d_e != self.d_h:
            raise ConfigError(f"tied decoders need d_e == d_h, got {self.d_e} != {self.d_h}")
        if self.variant == STATELESS_1EMB and self.history_len != 1:
            raise ConfigError("stateless1emb conditions on exactly one previous label")
        if self.variant == CONCAT_2EMB and self.history_len != 2:
            raise ConfigError("concat2emb conditions on exactly two previous labels")
        if self.variant == LSTM and min(self.lstm_layers, self.lstm_units, self.lstm_proj) < 1:
            raise ConfigError("lstm variant needs lstm_layers/lstm_units/lstm_proj >= 1")

    @property
    def blank_id(self) -> int:
        """Blank occupies the last logit index."""
        return self.vocab_size

    @property
    def pad_id(self) -> int:
        """Start-of-utterance padding id; its embedding row is fixed at zero."""
        return self.vocab_size

    @property
    def vocab_ext(self) -> int:
        """Embedding rows: the vocabulary plus the reserved pad token."""
        return self.vocab_size + 1

    @property
    def pn_out_dim(self) -> int:
        """Prediction-network output width fed to the joint."""
        if self.variant == CONCAT_2EMB:
            return 2 * self.d_e
        if self.variant == LSTM:
            return self.lstm_proj
        return self.d_e


def _preset_lstm() -> DecoderConfig:
    # Production-scale recurrent baseline: 2 x (2048 units, 640 projection).
    # history_len=1 makes one decode step cost one recurrent update, which is
    # the steady-state incremental cost of a stateful LSTM decoder.
    return DecoderConfig(
        variant=LSTM, vocab_size=4096, d_e=128, d_h=640, d_enc=512,
        history_len=1, lstm_layers=2, lstm_units=2048, lstm_proj=640,
    )


def _preset_stateless1emb() -> DecoderConfig:
    return DecoderConfig(
        variant=STATELESS_1EMB, vocab_size=4096, d_e=640, d_h=640, d_enc=512,
        history_len=1,
    )


def _preset_concat2emb() -> DecoderConfig:
    return DecoderConfig(
        variant=CONCAT_2EMB, vocab_size=4096, d_e=640, d_h=640, d_enc=512,
        history_len=2,
    )


def _preset_reduced_large() -> DecoderConfig:
    return DecoderConfig(
        variant=REDUCED, vocab_size=4096, d_e=1280, d_h=1280, d_enc=512,
        history_len=2, num_heads=4, tied=True,
    )


def _preset_reduced_small() -> DecoderConfig:
    return DecoderConfig(
        variant=REDUCED, vocab_size=4096, d_e=320, d_h=320, d_enc=512,
        history_len=5, num_heads=4, tied=True,
    )


_PRESETS = {
    "lstm": _preset_lstm,
    "stateless1emb": _preset_stateless1emb,
    "concat2emb": _preset_concat2emb,
    "reduced_large": _preset_reduced_large,
    "reduced_small": _preset_reduced_small,
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> DecoderConfig:
    """Benchmark-scale decoder presets (4096-token vocabulary)."""
    try:
        return _PRESETS[name]()
    except (KeyError, TypeError):  # TypeError: an unhashable JSON list or object
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}") from None

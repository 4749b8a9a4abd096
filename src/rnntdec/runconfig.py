"""JSON run configuration: strict parsing with path-precise errors.

A run config has up to five sections -- decoder, task, train, embr, bench --
each mapping onto one config dataclass.  Unknown keys anywhere are rejected
with the offending dotted path; a decoder (or bench decoder entry) may name
a ``preset`` and override individual fields.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass

from .config import DecoderConfig, DictCodec, preset
from .errors import ConfigError
from .toy import ToyTaskSpec
from .train import EmbrParams, Hyperparams

_SECTIONS = ("decoder", "task", "train", "embr", "bench")

_TYPE_MAP = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


@dataclass
class BenchConfig(DictCodec):
    runs: int = 10000
    warmup: int = 0  # 0 means 10% of runs
    dtype: str = "f4"
    seed: int = 0
    state_pool: int = 16
    decoders: list = None  # list of (name, DecoderConfig)

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("bench.runs must be >= 1")
        if self.dtype not in ("f4", "f8"):
            raise ConfigError(f"bench.dtype must be 'f4' or 'f8', got {self.dtype!r}")
        if self.decoders is None:
            self.decoders = []


@dataclass
class RunConfig:
    decoder: DecoderConfig | None = None
    task: ToyTaskSpec | None = None
    train: Hyperparams | None = None
    embr: EmbrParams | None = None
    bench: BenchConfig | None = None

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(f"config is missing required section(s): {', '.join(missing)}")


def _check_plain_fields(d: dict, cls, path: str) -> None:
    known = typing.get_type_hints(cls)
    for key, value in d.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
        expected = _TYPE_MAP.get(known[key])
        if expected is None:
            continue
        tname = known[key].__name__
        if isinstance(value, bool) and expected != (bool,):
            raise ConfigError(f"{path}.{key}: expected {tname}, got bool")
        if not isinstance(value, expected):
            raise ConfigError(f"{path}.{key}: expected {tname}, got {type(value).__name__}")


def _parse_decoder(d, path: str) -> DecoderConfig:
    if isinstance(d, str):
        return preset(d)
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object or preset name")
    d = dict(d)
    d.pop("name", None)
    base = d.pop("preset", None)
    if base is not None:
        merged = preset(base).to_dict()
        merged.update(d)
        d = merged
    _check_plain_fields(d, DecoderConfig, path)
    try:
        return DecoderConfig.from_dict(d)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _decoder_name(entry, index: int) -> str:
    if isinstance(entry, str):
        return entry
    if isinstance(entry, dict):
        if "name" in entry:
            return str(entry["name"])
        if "preset" in entry:
            return str(entry["preset"])
        return f"decoder{index}"
    return f"decoder{index}"


def _parse_section(d: dict, cls, path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_plain_fields(d, cls, path)
    try:
        return cls.from_dict(d)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _parse_bench(d: dict, path: str) -> BenchConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    d = dict(d)
    decoder_entries = d.pop("decoders", [])
    if not isinstance(decoder_entries, list):
        raise ConfigError(f"{path}.decoders: expected a list")
    _check_plain_fields(d, BenchConfig, path)
    decoders = []
    for i, entry in enumerate(decoder_entries):
        name = _decoder_name(entry, i)
        decoders.append((name, _parse_decoder(entry, f"{path}.decoders[{i}]")))
    try:
        return BenchConfig.from_dict({**d, "decoders": decoders})
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    cfg = RunConfig()
    if "decoder" in doc:
        cfg.decoder = _parse_decoder(doc["decoder"], "decoder")
    if "task" in doc:
        cfg.task = _parse_section(doc["task"], ToyTaskSpec, "task")
    if "train" in doc:
        cfg.train = _parse_section(doc["train"], Hyperparams, "train")
    if "embr" in doc:
        cfg.embr = _parse_section(doc["embr"], EmbrParams, "embr")
    if "bench" in doc:
        cfg.bench = _parse_bench(doc["bench"], "bench")
    return cfg


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return parse_run_config(doc)

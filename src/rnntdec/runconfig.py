"""JSON run configuration: strict parsing with path-precise errors.

A run config has up to five sections -- decoder, task, train, embr, bench --
each mapping onto one config dataclass.  Unknown keys anywhere are rejected
with the offending dotted path; a decoder (or bench decoder entry) may name
a ``preset`` and override individual fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .config import DecoderConfig, DictCodec, preset
from .embr import EmbrParams
from .errors import ConfigError
from .toy import ToyTaskSpec
from .train import Hyperparams

_SECTIONS = ("decoder", "task", "train", "embr", "bench")


@dataclass
class BenchConfig(DictCodec):
    runs: int = 10000
    warmup: int = 0  # 0 means 10% of runs
    dtype: str = "f4"
    seed: int = 0
    decoders: list = None  # list of (name, DecoderConfig)

    def __post_init__(self):
        self.check_min(runs=1, warmup=0)
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


def _parse_decoder(d, path: str) -> tuple[str | None, DecoderConfig]:
    """A decoder entry's name (its preset's when it has none; None when it
    names neither) and its config."""
    if isinstance(d, str):
        return d, preset(d)
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object or preset name")
    d = dict(d)
    if not isinstance(d.get("name", ""), str):
        raise ConfigError(f"{path}.name: expected str")
    base = d.pop("preset", None)
    name = d.pop("name", base)
    if base is not None:
        merged = preset(base).to_dict()
        merged.update(d)
        d = merged
    return name, DecoderConfig.from_dict(d, path)


def _parse_bench(d: dict, path: str) -> BenchConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    d = dict(d)
    decoder_entries = d.pop("decoders", [])
    if not isinstance(decoder_entries, list):
        raise ConfigError(f"{path}.decoders: expected a list")
    decoders = []
    for i, entry in enumerate(decoder_entries):
        name, dec = _parse_decoder(entry, f"{path}.decoders[{i}]")
        decoders.append((f"decoder{i}" if name is None else name, dec))
    return BenchConfig.from_dict({**d, "decoders": decoders}, path)


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    cfg = RunConfig()
    if "decoder" in doc:
        cfg.decoder = _parse_decoder(doc["decoder"], "decoder")[1]
    if "task" in doc:
        cfg.task = ToyTaskSpec.from_dict(doc["task"], "task")
    if "train" in doc:
        cfg.train = Hyperparams.from_dict(doc["train"], "train")
    if "embr" in doc:
        cfg.embr = EmbrParams.from_dict(doc["embr"], "embr")
    if "bench" in doc:
        cfg.bench = _parse_bench(doc["bench"], "bench")
    return cfg


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return parse_run_config(doc)

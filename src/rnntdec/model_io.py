"""Single-file model archives: length-prefixed JSON manifest + raw blob.

Layout:  ``[u64 LE manifest length][manifest JSON, UTF-8][blob]``.

The manifest lists every stored tensor with its byte offset, shape, and
dtype; the blob is their little-endian raw data back to back, and a reader
rejects entries that overlap or leave blob bytes uncovered.  Tied models
store the embedding matrix once and record the output-layer alias in the
manifest, so a tied archive is exactly ``d_h * vocab_size`` float slots
smaller than its untied twin.  Saving is byte-deterministic: sorted manifest
keys, fixed tensor order.  Saving is also atomic: the archive is written to
a temporary file beside the destination and renamed over it, so a failed
save leaves any earlier archive at that path untouched.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import uuid
from dataclasses import dataclass

import numpy as np

from .config import DecoderConfig
from .decoding import LookupTable
from .errors import (
    ArchiveError,
    ConfigError,
    CorruptArchiveError,
    UnsupportedFormatError,
    ValidationError,
)
from .weights import ModelWeights, check_config, get_tensor, specs_of, tensor_specs, weights_from_tensors

FORMAT_VERSION = 1
_KNOWN_KEYS = {"format_version", "kind", "requires", "config", "tensors", "aliases", "seed"}
_DTYPES = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}


@dataclass
class ModelArchive:
    """Parsed archive: manifest dict plus raw blob bytes."""

    manifest: dict
    blob: bytes

    @property
    def extra(self) -> dict:
        """Unknown optional manifest fields (preserved on re-save)."""
        return {k: v for k, v in self.manifest.items() if k not in _KNOWN_KEYS}


def _archive_shape(shape: tuple[int, ...]) -> tuple[int, int]:
    """Stored (rows, cols): vectors are one row, the 3-D positions are
    (heads * history, d_e)."""
    return math.prod(shape[:-1]), shape[-1]


def _dtype_tag(arr: np.ndarray) -> str:
    tag = {8: "<f8", 4: "<f4"}.get(arr.dtype.itemsize)
    if tag is None or arr.dtype.kind != "f":
        raise ArchiveError(f"unsupported tensor dtype {arr.dtype}")
    return tag


def _manifest(kind: str, config: DecoderConfig, seed: int | None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "requires": [],
        "config": config.to_dict(),
        "seed": seed,
    }


def _write_archive(path: str, manifest: dict, tensors) -> None:
    """Write ``tensors``, (name, array, (rows, cols)) in blob order."""
    directory = {}
    blob = bytearray()
    for name, arr, (rows, cols) in tensors:
        tag = _dtype_tag(arr)
        data = np.ascontiguousarray(arr, dtype=_DTYPES[tag]).tobytes()
        directory[name] = {"offset": len(blob), "rows": rows, "cols": cols, "dtype": tag}
        blob.extend(data)
    manifest = {**manifest, "tensors": directory}
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(struct.pack("<Q", len(raw)) + raw + bytes(blob))
        os.replace(tmp, path)
    except OSError as e:
        raise ArchiveError(f"cannot write archive {path}: {e}") from e
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)  # gone already unless the write or rename failed


def save(
    weights: ModelWeights,
    config: DecoderConfig,
    path: str,
    seed: int | None = None,
    extra: dict | None = None,
) -> None:
    """Write a model archive; byte-identical output for identical inputs.
    ``config`` must be the one ``weights`` were built for (``check_config``)."""
    weights.validate()
    manifest = _manifest("model", check_config(weights, config), seed)
    specs = specs_of(weights)
    aliases = {s.name: s.alias for s in specs if s.alias is not None}
    if aliases:
        manifest["aliases"] = aliases
    if extra:
        overlap = set(extra) & _KNOWN_KEYS
        if overlap:
            raise ArchiveError(f"extra manifest keys clash with reserved ones: {sorted(overlap)}")
        manifest.update(extra)
    tensors = [
        (s.name, get_tensor(weights, s.name), _archive_shape(s.shape))
        for s in specs
        if s.alias is None
    ]
    _write_archive(path, manifest, tensors)


def read_archive(path: str) -> ModelArchive:
    """Read and structurally check an archive without materializing tensors."""
    archive = _parse_archive(path)
    _check_layout(path, archive)
    return archive


def _parse_archive(path: str) -> ModelArchive:
    """``read_archive`` short of the layout check, which the loaders make
    after the table's shape checks, so a tensor stored with a shape other
    than the table's is reported as such rather than as a gap."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ArchiveError(f"cannot read archive {path}: {e}") from e
    if len(raw) < 8:
        raise CorruptArchiveError(f"{path}: shorter than the manifest length prefix")
    (manifest_len,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + manifest_len:
        raise CorruptArchiveError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8 : 8 + manifest_len].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise CorruptArchiveError(f"{path}: manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise CorruptArchiveError(f"{path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedFormatError(
            f"{path}: format_version {version!r} not supported (expected {FORMAT_VERSION})"
        )
    requires = manifest.get("requires", [])
    if not isinstance(requires, list):
        raise CorruptArchiveError(f"{path}: 'requires' is not a list")
    if requires:
        raise UnsupportedFormatError(
            f"{path}: archive requires unsupported capabilities {requires}"
        )
    tensors = manifest.get("tensors")
    if not isinstance(tensors, dict):
        raise CorruptArchiveError(f"{path}: manifest has no tensor directory")
    if not isinstance(manifest.get("aliases", {}), dict):
        raise CorruptArchiveError(f"{path}: 'aliases' is not an object")
    blob = raw[8 + manifest_len :]
    for name, entry in tensors.items():
        _check_entry(path, name, entry)
        end = _entry_end(entry)
        if end > len(blob):
            raise CorruptArchiveError(
                f"{path}: tensor {name!r} extends past the end of the blob "
                f"(needs {end} bytes, blob has {len(blob)})"
            )
    return ModelArchive(manifest, blob)


def _entry_end(entry: dict) -> int:
    return entry["offset"] + entry["rows"] * entry["cols"] * _DTYPES[entry["dtype"]].itemsize


def _check_layout(path: str, archive: ModelArchive) -> None:
    """The tensors must tile the blob exactly: no two share a byte and no
    byte belongs to none."""
    spans = sorted(
        (entry["offset"], _entry_end(entry), name)
        for name, entry in archive.manifest["tensors"].items()
    )
    covered, blob_len = 0, len(archive.blob)
    for offset, end, name in spans:
        if offset < covered:
            raise CorruptArchiveError(f"{path}: tensor {name!r} overlaps the tensor before it")
        if offset > covered:
            raise CorruptArchiveError(
                f"{path}: blob bytes {covered}..{offset} before tensor {name!r} belong to no tensor"
            )
        covered = end
    if covered != blob_len:
        raise CorruptArchiveError(
            f"{path}: blob bytes {covered}..{blob_len} after the last tensor belong to no tensor"
        )


def _check_entry(path: str, name: str, entry) -> None:
    if not isinstance(entry, dict):
        raise CorruptArchiveError(f"{path}: tensor {name!r} entry is not an object")
    for key in ("offset", "rows", "cols"):
        value = entry.get(key)
        if type(value) is not int or value < 0:
            raise CorruptArchiveError(
                f"{path}: tensor {name!r} {key} must be a non-negative integer, got {value!r}"
            )
    if not isinstance(entry.get("dtype"), str) or entry["dtype"] not in _DTYPES:
        raise CorruptArchiveError(f"{path}: tensor {name!r} has unknown dtype {entry.get('dtype')!r}")


def _read_tensor(archive: ModelArchive, path: str, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Tensor ``name``, which must be stored as ``_archive_shape(shape)``."""
    entry = archive.manifest["tensors"].get(name)
    if entry is None:
        raise CorruptArchiveError(f"{path}: archive is missing tensor {name!r}")
    stored, expected = (entry["rows"], entry["cols"]), _archive_shape(shape)
    if stored != expected:
        raise ValidationError(f"{path}: tensor {name} is stored as {stored}, expected {expected}")
    dtype = _DTYPES[entry["dtype"]]
    count = entry["rows"] * entry["cols"]
    arr = np.frombuffer(archive.blob, dtype=dtype, count=count, offset=entry["offset"]).copy()
    return arr.reshape(shape)


def _open_archive(path: str, kind: str) -> tuple[ModelArchive, DecoderConfig]:
    archive = _parse_archive(path)
    if archive.manifest.get("kind") != kind:
        raise UnsupportedFormatError(f"{path}: not a {kind} archive")
    try:
        return archive, DecoderConfig.from_dict(archive.manifest["config"], "config")
    except (ConfigError, KeyError) as e:
        raise ValidationError(f"{path}: invalid stored config: {e}") from None


def load(path: str) -> tuple[ModelWeights, DecoderConfig]:
    """Reconstruct weights (including the tying alias) and their config.

    Every tensor of the config's table (``weights.tensor_specs``) must be
    stored with the table's shape; tensors the table does not name are
    ignored.  Raises UnsupportedFormatError on version mismatch,
    CorruptArchiveError on a malformed manifest, truncation or a blob the
    tensors do not tile exactly,
    ValidationError when a shape or model invariant fails.
    """
    archive, config = _open_archive(path, "model")
    stub = archive.manifest["tensors"].get("enc_stub_w")
    arrays = {}
    for spec in tensor_specs(config, None if stub is None else stub["rows"]):
        if spec.alias is None:
            arrays[spec.name] = _read_tensor(archive, path, spec.name, spec.shape)
        elif archive.manifest.get("aliases", {}).get(spec.name) != spec.alias:
            raise ValidationError(
                f"{path}: tied model must record the {spec.name} -> {spec.alias} alias"
            )
    _check_layout(path, archive)
    weights = weights_from_tensors(config, arrays)
    weights.validate()
    return weights, config


def save_lookup(table: LookupTable, path: str) -> None:
    """Store a precomputed prediction-network table, with the config of the
    model it was computed from, in the same container."""
    manifest = _manifest("lookup", table.config, None)
    _write_archive(path, manifest, [("table", table.table, table.table.shape)])


def load_lookup(path: str) -> tuple[LookupTable, DecoderConfig]:
    archive, config = _open_archive(path, "lookup")
    rows = config.vocab_ext**config.history_len
    table = _read_tensor(archive, path, "table", (rows, config.pn_out_dim))
    _check_layout(path, archive)
    if not np.isfinite(table).all():
        raise ValidationError(f"{path}: non-finite entries in the lookup table")
    return LookupTable(config, table), config

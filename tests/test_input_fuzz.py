"""Fuzzing of the files a run reads besides its config: decode inputs and
model archives.

A mutated ``frames``/``features`` file, valid JSON or not, and UTF-8 or not,
either decodes (exit 0) or fails with exit 2 and one ``error[schema]`` line;
``rnntdec decode`` never raises.  Flipped, truncated or spliced archive
bytes, and manifests with any value put anywhere in them, either load or
raise an ``RnntError``, for model and lookup archives alike.
"""

import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntdec import convert_to_lookup, init_weights, load, load_lookup, save, save_lookup
from rnntdec.cli import main
from rnntdec.errors import RnntError
from rnntdec.weights import init_encoder_stub

from helpers import tiny_config
from test_config_fuzz import DELETE, mutated, value_paths
from test_config_fuzz import values as config_values

CFG = tiny_config(vocab_size=3, d_e=4, d_h=4, d_enc=4, tied=True, max_symbols_per_frame=3)
D_FEAT = 3
BASE_INPUTS = [
    {"frames": np.random.default_rng(0).normal(size=(3, CFG.d_enc)).tolist()},
    {"features": np.random.default_rng(1).normal(size=(3, D_FEAT)).tolist()},
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of an f8 and an f4 model with an encoder stub, and of a scratch
    input file."""
    root = tmp_path_factory.mktemp("fuzz")
    models = []
    for dtype in (np.float64, np.float32):
        w = init_weights(CFG, seed=2, dtype=dtype)
        w.enc_stub = init_encoder_stub(D_FEAT, CFG.d_enc, seed=2, dtype=dtype)
        models.append(str(root / f"{np.dtype(dtype).str[1:]}.rnnt"))
        save(w, CFG, models[-1])
    return models, str(root / "in.json")


@pytest.fixture(scope="module")
def archives(files):
    """(path, loader) of the f4 model archive and of its lookup archive."""
    models, inp = files
    lookup = inp + ".lookup"
    save_lookup(convert_to_lookup(*load(models[1])), lookup)
    return [(models[1], load), (lookup, load_lookup)]


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e39]),
    st.text(max_size=4),
    st.sampled_from(["frames", "features"]),
)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.lists(st.lists(st.floats(), min_size=2, max_size=5), max_size=3),
    st.dictionaries(st.sampled_from(["frames", "features", "x"]), scalars, max_size=2),
    st.just(DELETE),
)


@st.composite
def input_files(draw):
    """Bytes of a mutated decode input: up to two JSON mutations of a valid
    input, then up to two byte splices, any bytes included."""
    base = draw(st.sampled_from(BASE_INPUTS))
    paths = list(value_paths(base))
    doc = mutated(draw(st.lists(st.tuples(st.sampled_from(paths), values), max_size=2)), base)
    data = json.dumps(doc).encode("utf-8")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.binary(max_size=3)) + data[at + cut:]
    return data


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(data=input_files(), f4=st.booleans(), beam=st.sampled_from([[], ["--beam", "2"]]))
def test_mutated_decode_input_decodes_or_exits_schema(files, data, f4, beam):
    models, inp = files
    with open(inp, "wb") as fh:
        fh.write(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["decode", models[f4], inp, "--json", *beam])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[schema]: ")
    else:
        assert json.loads(out.getvalue())


# (kind, offset, bytes, cut): xor the byte at the offset with bytes[0],
# truncate there, or replace ``cut`` bytes there with the bytes; the bytes
# include JSON tokens, so that splices into the manifest keep it JSON
archive_edits = st.lists(st.tuples(
    st.sampled_from(["flip", "truncate", "splice"]),
    st.integers(0, 2047),
    st.one_of(st.binary(min_size=1, max_size=8),
              st.sampled_from([b"null", b"-1", b"0", b"1e999", b"9" * 30, b'"', b"[]", b"{}"])),
    st.integers(0, 8),
), min_size=1, max_size=3)


def edited(raw, edits):
    for kind, at, data, cut in edits:
        at %= len(raw) + 1
        if kind == "truncate":
            raw = raw[:at]
        elif kind == "flip" and at < len(raw):
            raw = raw[:at] + bytes([raw[at] ^ data[0]]) + raw[at + 1:]
        elif kind == "splice":
            raw = raw[:at] + data + raw[at + cut:]
    return raw


def loads_or_raises_rnnt_error(loader, raw, path):
    with open(path, "wb") as fh:
        fh.write(raw)
    try:
        loader(path)
    except RnntError:
        pass


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(edits=archive_edits, lookup=st.booleans())
def test_edited_archive_loads_or_raises_rnnt_error(files, archives, edits, lookup):
    source, loader = archives[lookup]  # the f4 model archive is half manifest
    with open(source, "rb") as fh:
        raw = fh.read()
    loads_or_raises_rnnt_error(loader, edited(raw, edits), files[1] + ".edited")


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data(), lookup=st.booleans())
def test_mutated_manifest_loads_or_raises_rnnt_error(files, archives, data, lookup):
    """Any config-fuzz value anywhere in either archive kind's manifest."""
    source, loader = archives[lookup]
    with open(source, "rb") as fh:
        raw = fh.read()
    (length,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8 : 8 + length])
    paths = st.sampled_from(list(value_paths(manifest)))
    doc = mutated(data.draw(st.lists(st.tuples(paths, config_values), min_size=1, max_size=2)),
                  manifest)
    encoded = json.dumps(doc).encode("utf-8")
    loads_or_raises_rnnt_error(
        loader, struct.pack("<Q", len(encoded)) + encoded + raw[8 + length:], files[1] + ".mutated")

"""Fuzzing of the files a run reads besides its config: decode inputs and
model archives.

A mutated ``frames``/``features`` file, valid JSON or not, and UTF-8 or not,
either decodes (exit 0) or fails with exit 2 and one ``error[schema]`` line;
``rnntdec decode`` never raises.  Flipped, truncated or spliced archive
bytes either load or raise an ``RnntError``.
"""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntdec import init_weights, load, save
from rnntdec.cli import main
from rnntdec.errors import RnntError
from rnntdec.weights import init_encoder_stub

from helpers import tiny_config
from test_config_fuzz import DELETE, value_paths

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
    doc = copy.deepcopy(base)
    paths = list(value_paths(base))
    for path, value in draw(st.lists(st.tuples(st.sampled_from(paths), values), max_size=2)):
        if not path:
            if value is not DELETE:
                doc = copy.deepcopy(value)
            continue
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
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


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(edits=archive_edits)
def test_edited_archive_loads_or_raises_rnnt_error(files, edits):
    models, inp = files
    with open(models[1], "rb") as fh:  # the f4 archive: half of it is manifest
        raw = fh.read()
    path = inp + ".rnnt"
    with open(path, "wb") as fh:
        fh.write(edited(raw, edits))
    try:
        load(path)
    except RnntError:
        pass

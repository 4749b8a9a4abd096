"""Fuzzing of the run-config parser.

Any JSON value, put anywhere in a valid run config, either parses or fails
with a ConfigError (exit 2, ``error[schema]``); and a config holding a NaN or
infinite float never parses.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntdec.config import PRESET_NAMES, VARIANTS
from rnntdec.errors import ConfigError
from rnntdec.runconfig import parse_run_config

BASE = json.loads((Path(__file__).parents[1] / "configs" / "toy_reduced.json").read_text())
BASE["bench"] = {
    "runs": 10, "warmup": 2, "dtype": "f4", "seed": 0,
    "decoders": ["lstm", {"preset": "reduced_small", "name": "small", "d_e": 64, "d_h": 64}],
}
assert parse_run_config(copy.deepcopy(BASE)).bench.decoders[1][0] == "small"


def test_bench_entry_names():
    # an entry's name, else its preset's, else decoder<i>
    doc = {"bench": {"decoders": [
        "lstm",
        {"preset": "reduced_small"},
        {"variant": "reduced", "vocab_size": 4, "d_e": 4, "d_h": 4, "d_enc": 4},
        {"preset": "lstm", "name": ""},
        {"preset": "lstm", "name": "big"},
    ]}}
    names = [name for name, _ in parse_run_config(doc).bench.decoders]
    assert names == ["lstm", "reduced_small", "decoder2", "", "big"]


def value_paths(doc, prefix=()):
    """The key/index path of ``doc`` itself and of every value inside it."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from value_paths(value, prefix + (key,))


PATHS = list(value_paths(BASE))
DELETE = object()

NON_FINITE = [math.nan, math.inf, -math.inf]
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from(NON_FINITE),
    st.text(max_size=6),
    st.sampled_from(PRESET_NAMES + VARIANTS + ("f4", "f8", "preset", "name")),
)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.text(max_size=6), scalars, max_size=3),
    st.just(DELETE),
)
mutation_lists = st.lists(st.tuples(st.sampled_from(PATHS), values), min_size=1, max_size=2)


def mutated(mutations):
    doc = copy.deepcopy(BASE)
    for path, value in mutations:
        if not path:
            if value is not DELETE:
                doc = copy.deepcopy(value)
            continue
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    return doc


def holds_non_finite(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(holds_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(holds_non_finite(v) for v in value)
    return False


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(mutation_lists)
def test_mutated_run_config_parses_or_raises_config_error(mutations):
    doc = mutated(mutations)
    try:
        parse_run_config(doc)
    except ConfigError:
        return
    assert not holds_non_finite(doc)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(PATHS), values), max_size=2),
       st.sampled_from(PATHS[1:]), st.sampled_from(NON_FINITE))
def test_non_finite_float_never_parses(mutations, path, value):
    doc = mutated(mutations + [(path, value)])
    if holds_non_finite(doc):  # the path survived the other mutations
        with pytest.raises(ConfigError):
            parse_run_config(doc)

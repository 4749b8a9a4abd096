"""README's library example runs against the package and shows what its
comments say."""

import re
from pathlib import Path

import numpy as np

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    cfg = ns["cfg"]
    assert ns["g"].shape == (cfg.d_e,)
    assert ns["G"].shape == (2, cfg.d_e)
    np.testing.assert_array_equal(ns["G"][0], ns["g"])
    assert ns["logits"].shape == (cfg.vocab_size + 1,)
    assert ns["batch"].shape == (2, cfg.vocab_size + 1)
    assert ns["nbest"]

"""The names the benchmark's tracer wraps exist in the package.

``benchmark/tracing.py``'s ``Tracer.install`` looks up every
``(module, attribute)`` pair of its ``TRACED`` list on ``rnntdec`` and
crashes on a missing one, so a refactor that drops or renames a traced
function would break every ``--trace 1`` run.  This test only reads the
benchmark's files.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rnntdec  # noqa: F401 (imports every traced module)

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves_to_a_function(module, attr):
    owner = importlib.import_module(f"rnntdec.{module}")
    if "." in attr:  # a method, which the tracer reads from the class dict
        cls_name, method = attr.split(".")
        fn = vars(getattr(owner, cls_name))[method]
    else:
        fn = getattr(owner, attr)
    assert callable(fn)


def test_tracer_installs_and_restores_every_binding():
    tracing = load_tracing()
    before = {(m, a): getattr(importlib.import_module(f"rnntdec.{m}"), a)
              for m, a in tracing.TRACED if "." not in a}
    with tracing.Tracer().installed():
        pass
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(f"rnntdec.{m}"), a) is fn

"""Every package name the benchmark uses exists in the package.

``benchmark/tracing.py``'s ``Tracer.install`` looks up every
``(module, attribute)`` pair of its ``TRACED`` list on ``rnntdec`` and
crashes on a missing one, so a refactor that drops or renames a traced
function would break every ``--trace 1`` run.  The benchmark's other files
import names from the package and look up ``rnntdec.<name>`` attributes,
some only when a workload reaches them, so a missing one would fail partway
through a run; each is read here from the files' syntax trees.  This test
only reads the benchmark's files.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import rnntdec  # noqa: F401 (imports every traced module)

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACING = BENCHMARK / "tracing.py"


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


def _module_of(node):
    """The dotted ``rnntdec`` module an expression names: ``rnntdec``, an
    attribute chain on it, or ``sys.modules["rnntdec..."]``; else None."""
    if isinstance(node, ast.Name):
        return "rnntdec" if node.id == "rnntdec" else None
    if isinstance(node, ast.Attribute):
        owner = _module_of(node.value)
        return owner and f"{owner}.{node.attr}"
    if (isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules"
            and isinstance(node.slice, ast.Constant) and str(node.slice.value).startswith("rnntdec")):
        return node.slice.value
    return None


def package_uses():
    """{(owner module, name): files} for every package name that a
    ``benchmark/*.py`` file imports from ``rnntdec``, reads as an attribute
    of ``rnntdec`` (or of a module under it), or pairs with a module under
    it in a ``(module, "name")`` tuple.  An ``import`` statement's module has
    owner None."""
    uses = {}
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            found = []
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rnntdec"):
                found = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found = [(None, a.name) for a in node.names if a.name.startswith("rnntdec")]
            elif isinstance(node, ast.Attribute) and (owner := _module_of(node.value)):
                found = [(owner, node.attr)]
            elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
                  and (owner := _module_of(node.elts[0]))
                  and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
                found = [(owner, node.elts[1].value)]
            for use in found:
                uses.setdefault(use, set()).add(path.name)
    return uses


USES = package_uses()
PAIRS = sorted(USES, key=str)


def test_package_uses_are_found():
    # the reader sees each kind of use that the benchmark makes today
    assert "workloads.py" in USES[("rnntdec", "embr_phase")]  # looked up at call time
    assert "harness.py" in USES[("rnntdec.embr", "utterance_risk_grads")]  # from-import
    assert "test_checks.py" in USES[("rnntdec.embr", "beam_decode")]  # (module, "name") pair
    assert "run.py" in USES[(None, "rnntdec")]  # import statement


@pytest.mark.parametrize("owner, name", PAIRS, ids=[f"{o}.{n}" if o else n for o, n in PAIRS])
def test_benchmark_package_name_resolves(owner, name):
    if owner is None:
        importlib.import_module(name)
        return
    module = importlib.import_module(owner)
    if not hasattr(module, name):  # a submodule not imported by its package
        importlib.import_module(f"{owner}.{name}")

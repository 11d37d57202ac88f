"""The benchmark's per-layer metrics name package functions by string.

``perfbench/tracer.py`` wraps every public function of the layer modules
and then looks spans up by ``"module.function"`` name. A renamed or
privatized function would not fail the benchmark: its metric would just
read 0. This test reads the tracer's source (it never imports or edits it)
and checks that every span name it looks up is a public function defined in
a package module that ``perfbench/child.py`` hands to the tracer.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
LOOKUPS = {"total_s", "epoch_ms"}


def traced_modules():
    """The module names in child.py's ``LAYERS = (...)`` tuple."""
    for node in ast.walk(ast.parse((PERFBENCH / "child.py").read_text())):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
            return {elt.id for elt in node.value.elts}
    return set()


def span_names():
    """Every string the tracer uses as a span name, with its line number."""
    names = {}

    def add(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.setdefault(node.value, node.lineno)

    for node in ast.walk(ast.parse(TRACER.read_text(), filename=str(TRACER))):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            if node.value.id == "by_name":                          # by_name["m.f"]
                add(node.slice)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in LOOKUPS and node.args:                # total_s("m.f")
                add(node.args[0])
        elif isinstance(node, ast.Compare):                         # spans[c][0] == "m.f"
            left = node.left
            if (isinstance(left, ast.Subscript) and isinstance(left.value, ast.Subscript)
                    and isinstance(left.value.value, ast.Name)
                    and left.value.value.id == "spans"):
                for comp in node.comparators:
                    add(comp)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Set):
            if any(isinstance(t, ast.Name) and t.id.endswith("_CALLS") for t in node.targets):
                for elt in node.value.elts:                         # the epoch-call sets
                    add(elt)
    return names


NAMES = span_names()
LAYERS = traced_modules()


def test_the_parse_finds_the_lookups():
    """Guards against a parse that silently finds nothing."""
    assert {"graph", "cluster", "classic", "train"} <= LAYERS
    assert {"graph.knn_adjacency", "cluster.spectral_cluster", "classic.precompute",
            "classic.step_C", "train.adam_step", "autoenc.ae_loss",
            "unfold.forward", "train.train_joint"} <= set(NAMES)


@pytest.mark.parametrize("name", sorted(NAMES))
def test_span_name_is_a_public_package_function(name):
    module_name, _, func_name = name.partition(".")
    where = f"perfbench/tracer.py:{NAMES[name]}"
    assert func_name and "." not in func_name, f"{where}: {name!r} is not module.function"
    assert not func_name.startswith("_"), f"{where}: {name!r} is private, so never wrapped"
    assert module_name in LAYERS, f"{where}: module {module_name!r} is not traced"
    module = importlib.import_module(f"unfold_ssc.{module_name}")
    obj = getattr(module, func_name, None)
    assert inspect.isfunction(obj), f"{where}: unfold_ssc.{name} is not a function"
    assert obj.__module__ == module.__name__, (
        f"{where}: unfold_ssc.{name} is imported, not defined there, so never wrapped")

"""The benchmark's per-layer metrics name package functions by string.

``perfbench/tracer.py`` wraps every public function of the layer modules
and then looks spans up by ``"module.function"`` name. A renamed or
privatized function would not fail the benchmark: its metric would just
read 0. This test reads the tracer's source (it never imports or edits it)
and checks that every span name it looks up is a public function defined in
a package module that ``perfbench/child.py`` hands to the tracer. The classic
solver's spans are also counted under the tracer's wrapping scheme, since
``classic.iteration_ms`` depends on how often ``solve`` calls its steps, and
a traced run of ``perfbench/child.py`` must report the counters the tracer
turns into metrics.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unfold_ssc import autoenc, classic, cli, unfold

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


def test_classic_spans_count_iterations(monkeypatch):
    """``classic.iteration_ms`` divides the solve span, less its direct
    ``classic.precompute`` children, by its direct ``classic.step_C``
    children. Wrapping each public function of ``classic`` on the module,
    as the tracer does, must see one precompute and one step_C per
    iteration directly under solve."""
    calls = []
    stack = []

    def wrap(name, fn):
        def traced(*args, **kwargs):
            calls.append((name, stack[-1] if stack else None))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return traced

    for name, obj in list(vars(classic).items()):
        if inspect.isfunction(obj) and obj.__module__ == classic.__name__ and not name.startswith("_"):
            monkeypatch.setattr(classic, name, wrap(name, obj))

    iterations = 7
    X = np.random.default_rng(0).standard_normal((4, 12))
    classic.solve(X, 0.1, 1.0, iterations)
    under_solve = [name for name, parent in calls if parent == "solve"]
    assert under_solve.count("step_C") == iterations
    assert under_solve.count("precompute") == 1
    assert [name for name, _ in calls].count("precompute") == 1


def test_traced_child_reports_unfold_shape_and_param_count(tmp_path):
    """A traced ``child.py`` run on a tiny cube (8 x 8 pixels, 3 x 3 patches
    of 4 bands, latent 6, 2 layers) reports the unfolded network's shape and
    the size of every learned array. Nothing is written under perfbench/."""
    data_dir = tmp_path / "cube"
    assert cli.main(["gen", "cube", "--clusters", "2", "--height", "8", "--width", "8",
                     "--bands", "4", "--out", str(data_dir)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "values_path": str(data_dir / "values.sscm"),
        "labels_path": str(data_dir / "labels.sscm"),
        "k_clusters": 2, "patch": 3, "pretrain_epochs": 2, "joint_epochs": 1,
        "knn_init": 5, "knn_struct": 3,
        "latent_dim": 6, "hidden_dims": [16, 8], "admm_layers": 2,
    }))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "--config", str(config),
                    "--out-dir", str(tmp_path / "out"), "--result", str(result), "--trace"],
                   env=env, check=True, timeout=120)
    counters = json.loads(result.read_text())["counters"]

    n, latent, layers = 64, 6, 2
    assert tuple(counters["unfold_shape"]) == (n, latent, layers)
    ae = autoenc.init_weights(36, (16, 8), latent, 0)
    net = unfold.init_params(np.ones((latent, n)), np.zeros((n, n)), 0.5, layers, 0.005)
    expected = sum(a.size for _, a in ae.named_arrays()) + sum(a.size for _, a in net.named_arrays())
    assert counters["param_count"] == expected

"""The names the benchmark under perfbench/ reads from permlift still resolve.

The tracer wraps each (module, attribute path) of its layer table by
``vars(owner)[attr]``, and the workloads import names from permlift; a
rename or deletion in permlift would otherwise only show up when a traced
benchmark run fails.  The tracer module is loaded from its file (it imports
permlift only when asked for the gate layer); the workloads are parsed.
"""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


def _layer_targets():
    """Every (module, attribute path) the tracer installs, gates included."""
    return [entry for entries in TRACING.LAYERS.values() for entry in entries] + \
        TRACING._gate_targets()


def _workload_imports():
    """(module, name) for each name workloads.py imports from permlift, and
    for each attribute it reads of an imported permlift module."""
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("permlift"):
            out += [(node.module, alias.name) for alias in node.names]
    modules = {name: f"{module}.{name}" for module, name in out if module == "permlift"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.append((modules[node.value.id], node.attr))
    return sorted(set(out))


def test_the_tables_are_read():
    targets = _layer_targets()
    assert ("permlift.perms", "reprogram") in targets
    assert any(path.endswith(".apply") for _, path in targets)
    assert ("permlift", "perms") in _workload_imports()


@pytest.mark.parametrize("module,path", _layer_targets())
def test_traced_layer_resolves(module, path):
    owner = importlib.import_module(module)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("module,name", _workload_imports())
def test_workload_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)

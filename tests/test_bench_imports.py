"""What the benchmark scripts under ``bench/`` and the demos under
``demos/`` use of dpsc still exists.

The scripts are parsed, not imported, as the benchmark scripts import one
another by bare module name from ``bench/`` and the demos run their whole
walkthrough on import.  Without these checks, a rename in dpsc that one of
them depends on shows only when ``bench/run.py --trace 1`` or the demo runs.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import dpsc.sampler
from dpsc.sampler import ChainState, SampleRecord

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dpsc_uses(tree):
    """(module, name) for every name a ``from dpsc... import`` takes, and
    for every attribute read off a dpsc module: ``dpsc.dp.x``, or ``x`` of
    a module bound by ``from dpsc import gaussian`` (not a class such as
    ``from dpsc import Partition``)."""
    modules = {}  # local name -> dpsc module path
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dpsc":
            for alias in node.names:
                uses.append((node.module, alias.name))
                if node.module == "dpsc" and importlib.util.find_spec(f"dpsc.{alias.name}"):
                    modules[alias.asname or alias.name] = f"dpsc.{alias.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in modules:
            uses.append((modules[owner.id], node.attr))
        elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
              and owner.value.id == "dpsc"):
            uses.append((f"dpsc.{owner.attr}", node.attr))
    return uses


def test_bench_scripts_are_found():
    assert {p.name for p in SCRIPTS} >= {"run.py", "workloads.py", "micro.py"}
    assert DEMOS


@pytest.mark.parametrize("path", SCRIPTS + DEMOS, ids=lambda p: p.name)
def test_bench_names_from_dpsc_exist(path):
    for module, name in _dpsc_uses(_parse(path)):
        assert hasattr(importlib.import_module(module), name), f"{path.name}: {module}.{name}"


def test_sampler_imports_rebound_by_the_trace_exist():
    tree = _parse(BENCH / "workloads.py")
    (value,) = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SAMPLER_IMPORTS" for t in node.targets)
    ]
    pairs = ast.literal_eval(value)
    assert pairs
    for layer, name in pairs:
        # The trace rebinds dpsc.sampler's own reference to the layer's function.
        layer_module = importlib.import_module(f"dpsc.{layer}")
        assert getattr(dpsc.sampler, name) is getattr(layer_module, name), f"{layer}.{name}"


def test_traced_chain_state_overrides_chain_state_methods():
    # A method renamed in ChainState would silently stop being traced.
    tree = _parse(BENCH / "workloads.py")
    (cls,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "TracedChainState"
    ]
    methods = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
    assert {"sweep", "sample_c", "sample_d"} <= set(methods)
    for name in methods:
        assert callable(getattr(ChainState, name, None)), f"ChainState.{name}"


def test_chain_state_and_record_shape_the_bench_reads():
    # The traced sampler reads these two; the bench builds records positionally.
    assert hasattr(ChainState, "c_members") and hasattr(ChainState, "next_c")
    assert [f.name for f in dataclasses.fields(SampleRecord)] == [
        "iteration", "test_partition", "joint_log_score", "n_publications", "n_types",
    ]

"""What the benchmark scripts under ``bench/`` use of dpsc still exists.

The scripts are parsed, not imported, as they import one another by bare
module name from ``bench/``.  Without these checks, a rename in dpsc that
one of them depends on shows only when ``bench/run.py --trace 1`` runs.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import dpsc.sampler
from dpsc.sampler import ChainState, SampleRecord

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dpsc_uses(tree):
    """(module, name) for every name a ``from dpsc... import`` takes, and
    for every attribute read off a dpsc module: ``dpsc.dp.x``, or ``x`` of
    a module bound by ``from dpsc import gaussian``."""
    modules = {}  # local name -> dpsc module path
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dpsc":
            for alias in node.names:
                uses.append((node.module, alias.name))
                if node.module == "dpsc":
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


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
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


def test_chain_state_and_record_shape_the_bench_reads():
    # The traced sampler reads these two; the bench builds records positionally.
    assert hasattr(ChainState, "c_members") and hasattr(ChainState, "next_c")
    assert [f.name for f in dataclasses.fields(SampleRecord)] == [
        "iteration", "test_partition", "joint_log_score", "n_publications", "n_types",
    ]

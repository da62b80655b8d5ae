"""The benchmark's hooks still resolve in the package.

`bench/spans.py` traces the functions named in its ``TARGETS`` table, and
`bench/workloads.py` swaps functions by name with ``replaced("module.name",
...)``. A function renamed or deleted in ``qpattn`` breaks those runs only
when the benchmark runs, so these tests read both files (without importing
or editing them) and resolve every name.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from qpattn import circuit

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _strings(node):
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def span_targets():
    for node in ast.walk(_module("spans.py")):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return [key.value for key in node.value.keys]
    raise AssertionError("bench/spans.py defines no TARGETS table")


def replaced_targets():
    # The first argument of every `replaced(...)` call: a string literal, or
    # a name whose assignments hold the string literals it can take.
    tree = _module("workloads.py")
    assigned = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).extend(_strings(node.value))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "replaced":
            arg = node.args[0]
            found.update(assigned[arg.id] if isinstance(arg, ast.Name) else _strings(arg))
    return sorted(found)


def _resolve(target):
    module_name, attr = target.split(".")
    return getattr(importlib.import_module(f"qpattn.{module_name}"), attr, None)


@pytest.mark.parametrize("target", span_targets())
def test_span_target_resolves(target):
    assert callable(_resolve(target)), target


def test_replaced_targets_found():
    # A parse that finds nothing would pass the test below vacuously.
    assert {"circuit.score_batch", "circuit.score_noisy_batch", "vit.backward"} <= set(replaced_targets())


@pytest.mark.parametrize("target", replaced_targets())
def test_replaced_target_resolves(target):
    assert callable(_resolve(target)), target


def test_score_batch_takes_exactly_inputs_and_params():
    # `bench/workloads.attention_errors` reads a fourth positional argument
    # of `score_batch` as the statevector path's ``independent`` flag.
    assert list(inspect.signature(circuit.score_batch).parameters) == ["qs", "ks", "params"]

"""The benchmark's layer tracer (perfbench/trace_cli.py) wraps package
functions through their module or class attributes.  Every name it lists
must still resolve, and the arguments its counters read by position must
still sit at those positions, or a traced benchmark run breaks."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACE_CLI = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [f"{module_name}.{path}" for module_name, path, _ in module.WRAPPED]


# (position, name) of the argument each trace counter reads
COUNTED_ARGUMENTS = {
    "model.eval_f": (1, "x_i"),
    "grid.label_cells": (0, "dec"),
    "controller.reference_endpoints": (1, "own_refs"),
    "abstraction.Abstraction.post_many": (2, "configs"),
}


@pytest.mark.parametrize("name", _wrapped())
def test_traced_name_resolves(name):
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"horizon_abs.{module_name}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)
    if name in COUNTED_ARGUMENTS:
        position, arg = COUNTED_ARGUMENTS[name]
        assert list(inspect.signature(owner).parameters)[position] == arg


def test_counted_arguments_are_traced():
    assert set(COUNTED_ARGUMENTS) <= set(_wrapped())

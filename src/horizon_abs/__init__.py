"""Finite-horizon discrete abstractions of coupled multi-agent systems.

The package turns a network of continuous-time agents with bounded
coupling into per-agent finite transition systems on grid cells,
synthesizes plans for timed reachability goals over those systems,
extracts the continuous feedback controllers realizing each planned
transition, and validates the result on the true closed loop.

Only the exceptions are imported with the package.  Every other public
name loads its module on first access (PEP 562), so a command compiles
only the modules it runs.
"""

import importlib

from .errors import (
    ExprError,
    HorizonError,
    InfeasibleError,
    IntegrationError,
    ModelError,
    PlanConsistencyError,
    UnsatisfiableError,
    ValidationError,
)

# public name -> the module defining it
_LAZY = {
    "Abstraction": "abstraction",
    "build_abstraction": "abstraction",
    "NetworkModel": "model",
    "parse_model": "model",
    "validate_bounds": "model",
    "cascade_synthesize": "planner",
    "extract_controls": "planner",
    "product_synthesize": "planner",
    "simulate_closed_loop": "sim",
    "validate_plan": "sim",
    "DiscretizationParams": "wellposed",
    "synthesize": "wellposed",
}

__all__ = [
    "Abstraction",
    "DiscretizationParams",
    "ExprError",
    "HorizonError",
    "InfeasibleError",
    "IntegrationError",
    "ModelError",
    "NetworkModel",
    "PlanConsistencyError",
    "UnsatisfiableError",
    "ValidationError",
    "build_abstraction",
    "cascade_synthesize",
    "extract_controls",
    "parse_model",
    "product_synthesize",
    "simulate_closed_loop",
    "synthesize",
    "validate_bounds",
]

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

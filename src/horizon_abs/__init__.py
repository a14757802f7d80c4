"""Finite-horizon discrete abstractions of coupled multi-agent systems.

The package turns a network of continuous-time agents with bounded
coupling into per-agent finite transition systems on grid cells,
synthesizes plans for timed reachability goals over those systems,
extracts the continuous feedback controllers realizing each planned
transition, and validates the result on the true closed loop.
"""

from .abstraction import Abstraction, build_abstraction
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
from .model import NetworkModel, parse_model, validate_bounds
from .planner import cascade_synthesize, extract_controls, product_synthesize
from .sim import simulate_closed_loop, validate_plan
from .wellposed import DiscretizationParams, synthesize

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

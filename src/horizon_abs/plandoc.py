"""Plans and their ``plan.json`` form.

A plan lists, per agent, the cell at each of its m + 1 steps, the
controller parameter w and the target point of each of its m
transitions, and what the search saw.  ``render`` reads a plan through
this module alone, so it compiles none of the search.
"""

import numpy as np

from .errors import PlanConsistencyError


class Plan:
    def __init__(self, m, dt, steps, cells, w, targets, strategy, explored, reachable,
                 satisfying, model_hash=None):
        self.m = m
        self.dt = dt
        self.steps = steps
        self.cells = cells
        self.w = w
        self.targets = targets
        self.strategy = strategy
        self.explored = explored
        self.reachable = reachable
        self.satisfying = satisfying
        self.model_hash = model_hash


def check_plan_lists(model, plan):
    """Every model agent is in the plan with m + 1 cells, m parameters and
    m targets, and every cell it lists has the model's dimension."""
    for i in model.agent_ids:
        if any(i not in lists for lists in (plan.cells, plan.w, plan.targets)):
            raise PlanConsistencyError(f"agent {i}: missing from the plan")
        if len(plan.cells[i]) != plan.m + 1:
            raise PlanConsistencyError(
                f"agent {i}: plan lists {len(plan.cells[i])} cells for {plan.m} steps"
            )
        for name, lists in (("parameters", plan.w), ("targets", plan.targets)):
            if len(lists[i]) != plan.m:
                raise PlanConsistencyError(
                    f"agent {i}: plan lists {len(lists[i])} {name} for {plan.m} steps"
                )
        for name, lists in (("cells", plan.cells), ("reachable", plan.reachable),
                            ("satisfying", plan.satisfying)):
            for c in lists.get(i, ()):
                if len(c) != model.dim:
                    raise PlanConsistencyError(
                        f"agent {i}: {name} lists {list(c)}, not a cell of dimension {model.dim}"
                    )


def plan_configs(model, cells, m):
    """Per agent, its configuration at each of the first m steps of the
    per-agent cell lists ``cells``: its own cell, then its neighbors' in
    declared order."""
    return {
        i: list(zip(cells[i][:m], *(cells[j][:m] for j in model.agent(i).neighbors)))
        for i in model.agent_ids
    }


def plan_to_doc(plan):
    doc = {
        "m": plan.m,
        "dt": plan.dt,
        "steps": plan.steps,
        "strategy": plan.strategy,
        "model_hash": plan.model_hash,
        "explored": {str(i): n for i, n in sorted(plan.explored.items())},
        "agents": {},
    }
    for i in sorted(plan.cells):
        doc["agents"][str(i)] = {
            "cells": [list(c) for c in plan.cells[i]],
            "w": [[float(v) for v in vec] for vec in plan.w[i]],
            "targets": [[float(v) for v in vec] for vec in plan.targets[i]],
            "reachable": [list(c) for c in plan.reachable[i]],
            "satisfying": [list(c) for c in plan.satisfying[i]],
        }
    return doc


def _cell(c):
    """A lattice cell of a plan document, which lists it as integers."""
    if type(c) is not list or not all(type(v) is int for v in c):
        raise ValueError(f"cell {c!r} is not a list of integers")
    return tuple(c)


def plan_from_doc(doc):
    try:
        agents = doc["agents"]
        cells = {int(i): [_cell(c) for c in entry["cells"]] for i, entry in agents.items()}
        w = {
            int(i): [np.asarray(v, dtype=float) for v in entry["w"]] for i, entry in agents.items()
        }
        targets = {
            int(i): [np.asarray(v, dtype=float) for v in entry["targets"]]
            for i, entry in agents.items()
        }
        reachable = {
            int(i): [_cell(c) for c in entry["reachable"]] for i, entry in agents.items()
        }
        satisfying = {
            int(i): [_cell(c) for c in entry["satisfying"]] for i, entry in agents.items()
        }
        return Plan(
            m=int(doc["m"]),
            dt=float(doc["dt"]),
            steps=int(doc["steps"]),
            cells=cells,
            w=w,
            targets=targets,
            strategy=doc["strategy"],
            explored={int(i): n for i, n in doc["explored"].items()},
            reachable=reachable,
            satisfying=satisfying,
            # a plan without a hash matches no model file
            model_hash=doc.get("model_hash"),
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise PlanConsistencyError(f"malformed plan document: {e}") from None

"""Output checks behind fail_frac, written against the artifacts alone.

Each check returns a list of problems (empty when the output is right).
They re-derive what they check from the model, plan.json and
discretization.json without importing horizon_abs, so a defect in the
program cannot hide itself.
"""

import csv
import io
import math

# label_cells accepts a cell whose box sits inside the goal box up to this
LABEL_TOL = 1e-12


def window_steps(window, dt, steps):
    """Step indices whose sampling instant falls in the window, as the planner counts them."""
    a, b = window
    return max(0, math.ceil(a / dt - 1e-9)), min(steps, math.floor(b / dt + 1e-9))


def _goals(model_doc, agent_id):
    entry = model_doc.get("spec", {}).get(str(agent_id), {"goals": []})
    return entry.get("goals", []) if isinstance(entry, dict) else entry


def _cell_inside(cell, anchor, side, box):
    lo, hi = box
    for c, k in enumerate(cell):
        cell_lo = anchor[c] + side * k
        if cell_lo < lo[c] - LABEL_TOL or cell_lo + side > hi[c] + LABEL_TOL:
            return False
    return True


def goals_claimed(model_doc, plan_doc, disc_doc):
    """Every goal of every agent is claimable along its planned cells, in order."""
    problems = []
    dt, steps, m = plan_doc["dt"], plan_doc["steps"], plan_doc["m"]
    for agent in model_doc["agents"]:
        i = str(agent["id"])
        goals = _goals(model_doc, agent["id"])
        cells = plan_doc["agents"][i]["cells"]
        if len(cells) != m + 1:
            problems.append(f"agent {i}: {len(cells)} planned cells for {m} steps")
            continue
        geo = disc_doc["agents"][i]
        windows = [window_steps(g["window"], dt, steps) for g in goals]
        states = {(0, 0)}
        for k, cell in enumerate(cells):
            pending = list(states)
            while pending:
                g, s = pending.pop()
                if g == len(goals):
                    continue
                base = s if goals[g].get("relative", True) else 0
                a, b = windows[g]
                if a <= k - base <= b and _cell_inside(cell, geo["anchor"], geo["side"], goals[g]["box"]):
                    if (g + 1, k) not in states:
                        states.add((g + 1, k))
                        pending.append((g + 1, k))
        if not any(g == len(goals) for g, _ in states):
            best = max(g for g, _ in states)
            problems.append(f"agent {i}: plan claims {best} of {len(goals)} goals")
    return problems


def validation_passed(validation_doc):
    if validation_doc.get("passed") is not True:
        return ["validation.json reports passed = false"]
    margin = validation_doc.get("min_margin")
    if margin is None or not margin > 0:
        return [f"validation.json min_margin {margin} is not positive"]
    return []


def final_states(csv_text):
    """Last sampled state per agent id from trajectory.csv."""
    rows = csv.reader(io.StringIO(csv_text))
    header = next(rows)
    n = (len(header) - 2) // 2
    finals = {}
    for row in rows:
        if row:
            t, agent = float(row[0]), int(row[1])
            if agent not in finals or t >= finals[agent][0]:
                finals[agent] = (t, [float(v) for v in row[2:2 + n]])
    return {agent: x for agent, (_, x) in finals.items()}


def chain_matches(next_model_doc, csv_text):
    """next_model.json carries each agent's last simulated state as its x0."""
    finals = final_states(csv_text)
    problems = []
    for agent in next_model_doc["agents"]:
        if finals.get(agent["id"]) != agent["x0"]:
            problems.append(
                f"agent {agent['id']}: next_model x0 {agent['x0']} differs from the "
                f"last trajectory row {finals.get(agent['id'])}"
            )
    return problems

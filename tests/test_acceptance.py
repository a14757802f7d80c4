"""Ten end-to-end checks, one per release gate, each reporting a summary line.

The expected closed-form fractions were evaluated by hand from the bound
formulas before the implementation existed; the planner and Post oracles
are independent enumerations living in conftest.
"""

import json
import math
import time

import numpy as np

from conftest import (
    DRAW_SUBSTEPS,
    FIVE_AGENTS,
    brute_force_good_layers,
    lex_least_full_path,
    make_stack,
    pair_doc,
    record_criterion,
    run_cli,
)
import oracles
from horizon_abs import controller, grid, planner, reach, sim, wellposed

DT_BOUNDS = {1: 13 / 37, 2: 3 / 7, 3: 0.5, 4: 3 / 7, 5: 13 / 37}
DMAX_BOUNDS = {1: 41 / 42, 2: 11 / 21, 3: 1 / 3, 4: 11 / 21, 5: 41 / 42}


def test_criterion_01_five_agent_pipeline(tmp_path):
    """The shipped five-agent scenario plans and validates inside a minute."""
    out = tmp_path / "out"
    flags = ["--model", FIVE_AGENTS, "--out", out, "--steps", "12",
             "--lambda", "1=0.35", "--lambda", "5=0.35"]
    t0 = time.perf_counter()
    planned = run_cli(["plan"] + flags)
    validated = run_cli(["validate"] + flags)
    wall = time.perf_counter() - t0
    report = json.loads((out / "validation.json").read_text())
    failures = [e for e in report["entries"] if not e["ok"]]
    ok = (
        planned.returncode == 0
        and validated.returncode == 0
        and report["passed"]
        and not failures
        and wall <= 60.0
    )
    record_criterion(
        1,
        ok,
        f"plan+validate in {wall:.1f}s, min margin {report['min_margin']:.2e}, "
        f"{len(failures)} membership failures",
    )
    assert ok, (planned.stderr, validated.stderr, wall)


def test_criterion_02_closed_form_bounds(five_model, five_params):
    """Step and cell-size bounds match hand-evaluated fractions to 1e-12."""
    worst = 0.0
    for i, expected in DT_BOUNDS.items():
        worst = max(worst, abs(wellposed.dt_bound(five_model, five_params, i) - expected))
    for i, expected in DMAX_BOUNDS.items():
        got = wellposed.dmax_bound(five_model, five_params, i, 1 / 6)
        worst = max(worst, abs(got - expected))
    agent3 = five_model.agent(3)
    worst = max(worst, abs(controller.r_i(five_params.lam[3], 1 / 6, agent3.v_max) - 1 / 6))
    from horizon_abs import model as model_mod

    fam3 = model_mod.reach_family(five_model, 3)
    worst = max(worst, abs(reach.inner_region(fam3, 1 / 6).radius - 55 / 6))
    ok = worst <= 1e-12
    record_criterion(2, ok, f"10 bound values, worst deviation {worst:.2e}")
    assert ok


def test_criterion_03_04_transition_identities(instance_pool):
    """Random transitions: closed-form identity, start independence, no saturation.

    Every random number is drawn first; then the draws sharing an agent
    of one instance are integrated as one batch, two rows per draw.
    """
    draws = oracles.draw_transitions(instance_pool, 100, np.random.default_rng(314))
    dt_gap = x0_gap = 0.0
    saturated = 0
    worst_headroom = math.inf
    for group in oracles.group_draws(draws):
        ctrl, disturbance = oracles.transition_batch(instance_pool, group, DRAW_SUBSTEPS)
        aux = oracles.integrate_auxiliary(ctrl, disturbance, substeps=DRAW_SUBSTEPS)
        closed_form = oracles.closed_form_endpoint(ctrl, ctrl.dt)
        dt_gap = max(dt_gap, float(np.max(np.abs(aux.endpoint - closed_form))))
        x0_gap = max(x0_gap, float(np.max(np.abs(aux.endpoint[0::2] - aux.endpoint[1::2]))))
        saturated += int(np.count_nonzero(aux.kbar_max >= ctrl.agent.v_max))
        worst_headroom = min(worst_headroom, float(np.min(ctrl.agent.v_max - aux.kbar_max)))
    ok3 = dt_gap <= 1e-8 and x0_gap <= 1e-8
    record_criterion(
        3, ok3, f"100 draws: closed-form gap {dt_gap:.2e}, start-state gap {x0_gap:.2e}"
    )
    ok4 = saturated == 0
    record_criterion(
        4, ok4, f"0 saturation activations in 200 integrations, "
        f"min headroom {worst_headroom:.3f}"
    )
    assert ok3 and ok4


def test_criterion_05_post_monte_carlo(pair_stack):
    """Sampled endpoint balls hit exactly the computed successor cells."""
    model, params, ab = pair_stack
    rng = np.random.default_rng(55)
    configs_checked = 0
    stray = unwitnessed = 0
    for agent in model.agents:
        dec = ab.decs[agent.id]
        own = sorted(dec.initiating_set)
        own_picks = rng.choice(len(own), size=50, replace=False)
        parent_lists = [sorted(ab.decs[j].initiating_set) for j in agent.neighbors]
        parent_picks = [
            rng.choice(len(pl), size=50, replace=False) for pl in parent_lists
        ]
        for c in range(50):
            config = (own[own_picks[c]],) + tuple(
                pl[picks[c]] for pl, picks in zip(parent_lists, parent_picks)
            )
            post = set(ab.post(agent.id, config))
            endpoint = ab.endpoint(agent.id, config)
            radius = ab.radius(agent.id)
            ball = reach.Ball(endpoint, radius)
            dirs = rng.standard_normal((10**4, dec.dim))
            dirs /= np.sqrt(np.sum(dirs**2, axis=1, keepdims=True))
            radii = radius * rng.random(10**4) ** (1.0 / dec.dim)
            pts = endpoint + dirs * radii[:, None]
            inside = (
                np.sqrt(np.sum((pts - dec.region.center) ** 2, axis=1))
                < dec.region.radius
            )
            sampled = set(map(tuple, grid.locate_many(dec, pts[inside])))
            stray += len(sampled - post)
            unwitnessed += sum(
                1 for cell in post
                if grid.witness_in_cell_ball(dec, cell, ball) is None
            )
            configs_checked += 1
    ok = stray == 0 and unwitnessed == 0
    record_criterion(
        5,
        ok,
        f"{configs_checked} configs x 10^4 samples: {stray} stray cells, "
        f"{unwitnessed} unwitnessed cells",
    )
    assert ok


def compact_pair_doc():
    """A coupled pair small enough to enumerate every configuration."""
    return {
        "horizon": 1.0,
        "tau": 0.3,
        "agents": [
            {
                "id": 1, "dim": 2, "neighbors": [], "dynamics": {"type": "zero"},
                "v_max": 1.0, "M": 0.5, "L1": 0.0, "L2": 0.0,
                "x0": [0.0, 0.0], "reach_radius": 0.35,
            },
            {
                "id": 2, "dim": 2, "neighbors": [1],
                "dynamics": {"type": "linear-consensus", "weights": {"1": 0.2}},
                "v_max": 2.0, "M": 0.8, "L1": 0.2, "L2": 0.2,
                "x0": [0.6, 0.6], "reach_radius": 0.6,
            },
        ],
        "spec": {},
    }


def test_criterion_06_exhaustive_nonblocking_determinism():
    model, params, ab = make_stack(compact_pair_doc(), lam={1: 0.55, 2: 0.55}, steps=4)
    counts = {i: len(ab.decs[i].index_set) for i in (1, 2)}
    assert max(counts.values()) <= 500, counts
    blocked = multivalued = configs = transitions = 0
    for agent in model.agents:
        dec = ab.decs[agent.id]
        parent_sets = [sorted(ab.decs[j].initiating_set) for j in agent.neighbors]
        all_configs = []
        for own in sorted(dec.initiating_set):
            stems = [(own,)]
            for ps in parent_sets:
                stems = [s + (p,) for s in stems for p in ps]
            all_configs.extend(stems)
        ab.post_many(agent.id, all_configs)
        for config in all_configs:
            post = ab.post(agent.id, config)
            configs += 1
            if not post:
                blocked += 1
            for target in post:
                action = ab.successor_action(agent.id, config, target)
                transitions += 1
                if grid.locate(dec, action.point) != target:
                    multivalued += 1
    assert configs >= 200 and transitions > configs  # branching actually present
    ok = blocked == 0 and multivalued == 0
    record_criterion(
        6,
        ok,
        f"{configs} configs / {transitions} transitions exhaustively checked: "
        f"{blocked} blocked, {multivalued} off-target",
    )
    assert ok


def test_criterion_07_randomized_end_to_end(instance_pool):
    margins = []
    for doc, model, params, ab in instance_pool:
        plan = planner.cascade_synthesize(model, ab)
        schedule = planner.extract_controls(model, ab, plan)
        traj = sim.simulate_closed_loop(model, ab, schedule, plan.m)
        report = sim.validate_plan(model, ab, plan, traj)
        assert report.passed, report.entries
        margins.append(report.min_margin)
    ok = all(m > 0 for m in margins)
    record_criterion(
        7, ok,
        f"{len(margins)}/{len(instance_pool)} instances validated, "
        f"min margin {min(margins):.2e}",
    )
    assert ok


def test_criterion_08_reach_arithmetic_and_containment(instance_pool):
    rng = np.random.default_rng(88)
    worst_ulps = 0.0
    for _ in range(10**3):
        center = rng.uniform(-5, 5, size=2)
        r0 = float(rng.uniform(0.1, 10))
        c = float(rng.uniform(0, 20))
        T = float(rng.uniform(0.5, 3))
        tau = T * float(rng.uniform(0.1, 0.9))
        fam = reach.ReachFamily(
            agent_id=1, base=reach.Ball(center, r0), c_rate=c, tau=tau, T=T
        )
        t = (T - tau) + tau * float(rng.random())
        got = reach.reach_at(fam, t).radius
        expected = r0 + c * (t - (T - tau))
        worst_ulps = max(worst_ulps, abs(got - expected) / math.ulp(expected))
        grow = float(rng.uniform(0, 3))
        assert oracles.minkowski_ball_sum(fam.base, grow).radius == r0 + grow
    radius_ok = worst_ulps <= 1.0

    breaches = runs = 0
    for k in range(100):
        doc, model, params, ab = instance_pool[k % len(instance_pool)]
        T = model.horizon
        v_fns = {}
        for agent in model.agents:
            ts = np.linspace(0.0, T, 6)
            dirs = rng.standard_normal((6, model.dim))
            dirs /= np.sqrt(np.sum(dirs**2, axis=1, keepdims=True))
            mags = agent.v_max * 0.999 * rng.random(6) ** 0.5
            v_fns[agent.id] = oracles.PiecewiseLinearPath(ts, dirs * mags[:, None])
        traj = oracles.simulate_open_loop(model, v_fns, T)
        runs += 1
        for a, i in enumerate(traj.agent_ids):
            fam = ab.families[i]
            x0 = model.agent(i).x0
            drift = np.sqrt(np.sum((traj.states[:, a, :] - x0) ** 2, axis=1))
            if np.any(drift > fam.c_rate * traj.ts + 1e-9):
                breaches += 1
            for idx in np.nonzero(traj.ts >= T - model.tau)[0]:
                if not reach.reach_at(fam, float(traj.ts[idx])).contains(
                    traj.states[idx, a], slack=1e-9
                ):
                    breaches += 1
    ok = radius_ok and breaches == 0
    record_criterion(
        8,
        ok,
        f"1000 radius identities within {worst_ulps:.1f} ulp; "
        f"{runs} open-loop runs, {breaches} containment breaches",
    )
    assert ok


def test_criterion_09_boundary_rejection(five_model, five_params, tmp_path):
    violations_per_agent = {}
    for agent in five_model.agents:
        scaled = oracles.with_scaled_dmax(five_params, agent.id, 1.01 / five_params.margin)
        first = wellposed.check_params(five_model, scaled, five_model.tau)
        second = wellposed.check_params(five_model, scaled, five_model.tau)
        violations_per_agent[agent.id] = first
        assert first == second  # deterministic rejection
    sup_dt = min(wellposed.dt_bound(five_model, five_params, a.id) for a in five_model.agents)
    stretched = oracles.replace(five_params, dt=sup_dt * 1.01)
    dt_violations = wellposed.check_params(five_model, stretched, five_model.tau)

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(pair_doc()))
    margin_runs = [
        run_cli(["plan", "--model", model_path, "--out", tmp_path / f"m{k}",
                 "--margin", "1.01"])
        for k in range(2)
    ]
    steps_run = run_cli(["plan", "--model", model_path, "--out", tmp_path / "s",
                         "--steps", "2"])
    ok = (
        all(violations_per_agent.values())
        and bool(dt_violations)
        and all(r.returncode == 3 for r in margin_runs)
        and margin_runs[0].stderr == margin_runs[1].stderr
        and steps_run.returncode == 3
    )
    record_criterion(
        9,
        ok,
        f"5/5 scaled d_max rejected, stretched dt rejected, "
        f"cli exits {[r.returncode for r in margin_runs + [steps_run]]}",
    )
    assert ok


def tiny_line_doc():
    """A one-dimensional chain coarse enough for exhaustive path enumeration."""
    return {
        "horizon": 1.0,
        "tau": 0.26,
        "agents": [
            {
                "id": 1, "dim": 1, "neighbors": [], "dynamics": {"type": "zero"},
                "v_max": 1.0, "M": 0.0, "L1": 0.0, "L2": 0.0,
                "x0": [0.0], "reach_radius": 0.45,
            },
            {
                "id": 2, "dim": 1, "neighbors": [1],
                "dynamics": {"type": "linear-consensus", "weights": {"1": 0.2}},
                "v_max": 1.2, "M": 0.2, "L1": 0.2, "L2": 0.2,
                "x0": [0.3], "reach_radius": 0.4,
            },
        ],
        "spec": {},
    }


def test_criterion_10_planner_oracle_equivalence():
    model, params, ab = make_stack(tiny_line_doc(), lam={1: 0.55, 2: 0.55}, steps=5)
    m = 4
    mismatched_layers = path_mismatches = cases = 0
    assert all(len(ab.decs[i].index_set) <= 50 for i in (1, 2))

    leader_path = lex_least_full_path(ab, 1, [()] * (m + 1), m)
    assert leader_path is not None
    cases_spec = [
        (1, [()] * (m + 1), leader_path),
        (2, [(leader_path[k],) for k in range(m + 1)], None),
    ]
    for agent_id, parent_cells, known_path in cases_spec:
        if known_path is None:
            known_path = lex_least_full_path(ab, agent_id, parent_cells, m)
            assert known_path is not None
        assert len(ab.post(agent_id, (known_path[0],) + tuple(parent_cells[0]))) > 1
        tables = [
            [],
            [
                planner.StepGoal(frozenset({known_path[2]}), 2, 2, False),
                planner.StepGoal(frozenset({known_path[3]}), 1, 2, True),
            ],
            [
                planner.StepGoal(frozenset({known_path[2]}), 1, 3, False),
                planner.StepGoal(frozenset({known_path[2]}), 0, 1, True),
            ],
        ]
        # the three tables advance in lockstep, one job each
        jobs = [(agent_id, parent_cells, table) for table in tables]
        for table, search in zip(tables, planner.forward_layers(ab, jobs, m)):
            good = planner.backward_prune(search)
            oracle_good, oracle_paths = brute_force_good_layers(
                ab, agent_id, parent_cells, table, m
            )
            kept = oracles.state_sets(search, good)
            mismatched_layers += sum(1 for k in range(m + 1) if kept[k] != oracle_good[k])
            assert oracle_paths  # every table is satisfiable by construction
            found = [tuple(p) for p in planner.iter_satisfying_paths(search, good)]
            if found != oracle_paths:
                path_mismatches += 1
            cases += 1
    ok = mismatched_layers == 0 and path_mismatches == 0
    record_criterion(
        10,
        ok,
        f"{cases} agent/goal cases: {mismatched_layers} layer mismatches, "
        f"{path_mismatches} path-set mismatches",
    )
    assert ok

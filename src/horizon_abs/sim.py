"""Closed-loop simulation of the true coupled system and plan validation.

The full network is integrated monolithically so every controller reads
its neighbors from the same integrator state.  On each transition
interval the feedback of agent i is re-anchored at the realized state
at the interval start, which is exactly the construction under which
the closed loop coincides with the auxiliary disturbance system.
"""

import io
from dataclasses import dataclass

import numpy as np

from . import controller, grid, integrate, model as model_mod
from .errors import ModelError

MEMBERSHIP_SNAP = 1e-9


@dataclass(frozen=True, eq=False)
class Trajectory:
    ts: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    agent_ids: tuple
    dt: float
    substeps: int

    def state_at_step(self, agent_idx, k):
        return self.states[k * self.substeps, agent_idx]

    def final_states(self):
        return {i: self.states[-1, a] for a, i in enumerate(self.agent_ids)}


class NetworkField:
    """Raw fields of many rows at once, one eval_f call per group of rows.

    Row r is ``agents[r]`` evaluated at row r of a stacked state array S,
    with its neighbor block gathered from the rows ``neighbor_rows[r]`` of
    S.  Rows are the second-to-last axis of S, and leading axes are
    batches.  Rows share a group when their agents have equal dynamics
    (same variant, equal parsed parameters) and the same neighbor count;
    the gather indices are built once, here.
    """

    def __init__(self, agents, neighbor_rows):
        groups = {}
        for r, (agent, nbr) in enumerate(zip(agents, neighbor_rows)):
            key = (agent.dynamics.variant, agent.dynamics.key(), len(nbr))
            group = groups.setdefault(key, (agent, [], []))
            group[1].append(r)
            group[2].append(nbr)
        self.rows = len(agents)
        self.groups = [
            (agent, np.array(rows), np.array(nbrs, dtype=int))
            for agent, rows, nbrs in groups.values()
        ]

    def __call__(self, S):
        lead = S.shape[:-2]
        F = np.empty(lead + (self.rows, S.shape[-1]))
        for agent, rows, nbrs in self.groups:
            F[..., rows, :] = model_mod.eval_f(
                agent, S[..., rows, :], S[..., nbrs, :].reshape(lead + (len(rows), -1))
            )
        return F


def _neighbor_rows(model):
    pos = {i: a for a, i in enumerate(model.agent_ids)}
    return [[pos[j] for j in agent.neighbors] for agent in model.agents]


def _schedule_references(abstraction, schedule, m):
    """Every reference the schedule needs: one batched dense run per agent.

    Returns, per agent, the batch and the row of each configuration in it.
    """
    refs = {}
    for i, steps in schedule.items():
        configs = list(dict.fromkeys(step.config for step in steps[:m]))
        if configs:
            rows = {config: r for r, config in enumerate(configs)}
            refs[i] = (abstraction.reference_for(i, configs), rows)
    return refs


def simulate_closed_loop(model, abstraction, schedule, m, substeps=None, integ_tol=None):
    """Integrate the coupled network under the plan's feedback schedule.

    Each right-hand side evaluation stacks the network state, every
    agent's reference state and the frozen neighbor reference points into
    one array S and evaluates the raw field of all of them with one
    eval_f call per group of equal dynamics, one saturation and one
    feedback call.  S may carry leading axes.

    Only the coarse run is sequential: it goes interval by interval and
    stops at the first non-finite endpoint.  The intervals it reached are
    then audited together by one step-halving run with a leading interval
    axis, and an audit error names the lowest failing interval.  One more
    right-hand side call records the inputs at every kept node.
    """
    substeps = abstraction.substeps if substeps is None else substeps
    integ_tol = abstraction.integ_tol if integ_tol is None else integ_tol
    dt = abstraction.params.dt
    ids = model.agent_ids
    N = len(ids)
    n = model.dim
    total = m * substeps + 1
    ts = np.empty(total)
    states = np.empty((total, N, n))
    inputs = np.zeros((total, N, n))
    Y = np.stack([agent.x0 for agent in model.agents])
    states[0] = Y
    ts[0] = 0.0

    # S rows: network state [0, N), reference states [N, 2N), frozen
    # neighbor reference points from 2N on, agent after agent
    ref_nbrs, start = [], 2 * N
    for agent in model.agents:
        ref_nbrs.append(list(range(start, start + len(agent.neighbors))))
        start += len(agent.neighbors)
    field = NetworkField(model.agents * 2, _neighbor_rows(model) + ref_nbrs)
    M = np.array([[agent.M] for agent in model.agents * 2])
    v_max = np.array([[agent.v_max] for agent in model.agents])
    lam = np.array([[abstraction.params.lam[i]] for i in ids])
    refs = _schedule_references(abstraction, schedule, m)

    def field_and_input(Yt, R, nbr_refs, k2, k3):
        F = field(np.concatenate((Yt, R, nbr_refs), axis=-2))
        g = model_mod.saturate(F, M)
        u = controller.feedback(g[..., N:, :] - g[..., :N, :], k2, k3, v_max)[1]
        return F[..., :N, :], u

    def network_rhs(ref, nbr_refs, k2, k3):
        def rhs(t, Yt):
            f, u = field_and_input(Yt, ref.eval(t), nbr_refs, k2, k3)
            return f + u
        return rhs

    # per interval reached: start state, reference run, neighbor
    # reference points, k2, k3 and the coarse endpoint
    reached = []
    for k in range(m):
        picks = []
        for i in ids:
            batch, rows = refs[i]
            picks.append((batch, rows[schedule[i][k].config]))
        ref = integrate.DenseTrajectory(
            picks[0][0].traj.ts,
            np.stack([b.traj.ys[:, r] for b, r in picks], axis=1),
            np.stack([b.traj.ds[:, r] for b, r in picks], axis=1),
        )
        nbr_refs = np.concatenate([b.nbr_refs[r].reshape(-1, n) for b, r in picks])
        k2 = lam * np.stack([schedule[i][k].w for i in ids])
        k3 = (np.stack([b.own_ref[r] for b, r in picks]) - Y) / dt
        dense = integrate.rk4_dense(network_rhs(ref, nbr_refs, k2, k3), Y, dt, substeps)
        base = k * substeps
        ts[base + 1 : base + substeps + 1] = k * dt + dense.ts[1:]
        states[base + 1 : base + substeps + 1] = dense.ys[1:]
        reached.append((Y, ref, nbr_refs, k2, k3, dense.endpoint))
        Y = dense.endpoint
        if not np.all(np.isfinite(Y)):
            break

    if reached:
        # a non-finite coarse endpoint fails its interval's audit, so
        # past this call all m intervals were reached
        Y0s, runs, nbr_refs, k2, k3, coarse = zip(*reached)
        ref = integrate.DenseTrajectory(
            runs[0].ts,
            np.stack([r.ys for r in runs], axis=1),
            np.stack([r.ds for r in runs], axis=1),
        )
        nbr_refs, k2, k3 = np.stack(nbr_refs), np.stack(k2), np.stack(k3)
        integrate.check_audit(
            network_rhs(ref, nbr_refs, k2, k3), np.stack(Y0s), dt, substeps, integ_tol,
            what=lambda k: f"closed-loop interval {k}", coarse=np.stack(coarse),
        )
        # node j's input is that of the interval starting there, and the
        # last node's is the last interval's; every interval's run has
        # the local time grid dense.ts
        interval = np.minimum(np.arange(total) // substeps, m - 1)
        node = np.arange(total) - interval * substeps
        R = np.stack([ref.eval(t) for t in dense.ts])[node, interval]
        inputs = field_and_input(states, R, nbr_refs[interval], k2[interval], k3[interval])[1]

    return Trajectory(
        ts=ts, states=states, inputs=inputs, agent_ids=tuple(ids), dt=dt, substeps=substeps
    )


def simulate_open_loop(model, v_fns, duration, substeps=integrate.DEFAULT_SUBSTEPS):
    """Integrate the coupled network under user-supplied admissible inputs."""
    ids = model.agent_ids
    field = NetworkField(model.agents, _neighbor_rows(model))

    def inputs_at(t):
        return np.stack([np.asarray(v_fns[i](t), dtype=float) for i in ids])

    def rhs(t, Y):
        V = inputs_at(t)
        for agent, v in zip(model.agents, V):
            if np.sqrt(np.sum(v * v)) > agent.v_max * (1 + 1e-9):
                raise ModelError(
                    f"agent {agent.id}: input magnitude exceeds v_max at t={t}"
                )
        return field(Y) + V

    Y0 = np.stack([agent.x0 for agent in model.agents])
    dense = integrate.rk4_dense(rhs, Y0, duration, substeps)
    return Trajectory(
        ts=dense.ts,
        states=dense.ys,
        inputs=np.stack([inputs_at(t) for t in dense.ts]),
        agent_ids=tuple(ids),
        dt=duration,
        substeps=substeps,
    )


@dataclass
class ValidationReport:
    entries: list
    min_margin: float
    passed: bool

    def to_doc(self):
        return {
            "passed": self.passed,
            "min_margin": self.min_margin,
            "entries": self.entries,
        }


def validate_plan(model, abstraction, plan, traj):
    """Check the realized states against the planned cells at every step.

    Step 0 is checked by cell identity (the initial state sits on a grid
    corner, so a distance-to-boundary margin there is 0 by construction);
    steps 1..m, the ones the transition controllers certify, get signed
    membership margins.
    """
    entries = []
    min_margin = None
    passed = True
    for a, i in enumerate(model.agent_ids):
        dec = abstraction.decs[i]
        planned0 = tuple(plan.cells[i][0])
        located0 = grid.locate(dec, traj.state_at_step(a, 0))
        if located0 != planned0:
            passed = False
        entries.append({
            "step": 0,
            "agent": i,
            "planned": list(planned0),
            "ok": located0 == planned0,
        })
        for k in range(1, plan.m + 1):
            x = traj.state_at_step(a, k)
            planned = tuple(plan.cells[i][k])
            lo, hi = dec.box(planned)
            margin = float(min(np.min(x - lo), np.min(hi - x)))
            ok = margin > -MEMBERSHIP_SNAP
            snapped = ok and margin <= 0
            if not ok:
                passed = False
            min_margin = margin if min_margin is None else min(min_margin, margin)
            entry = {
                "step": k,
                "agent": i,
                "planned": list(planned),
                "margin": margin,
                "ok": bool(ok),
            }
            if snapped:
                entry["snapped"] = True
            if not ok:
                entry["located"] = list(int(v) for v in grid.locate_many(dec, x[None])[0])
            entries.append(entry)
    return ValidationReport(entries=entries, min_margin=min_margin, passed=passed)


def trajectory_to_csv(traj):
    n = traj.states.shape[-1]
    buf = io.StringIO()
    cols = ["t", "agent"] + [f"x{k + 1}" for k in range(n)] + [f"v{k + 1}" for k in range(n)]
    buf.write(",".join(cols) + "\n")
    for node in range(len(traj.ts)):
        for a, i in enumerate(traj.agent_ids):
            row = [repr(float(traj.ts[node])), str(i)]
            row += [repr(float(v)) for v in traj.states[node, a]]
            row += [repr(float(v)) for v in traj.inputs[node, a]]
            buf.write(",".join(row) + "\n")
    return buf.getvalue()


def trajectory_from_csv(text):
    """Rebuild a trajectory (states and inputs) from its CSV form."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ModelError("empty trajectory file")
    header = lines[0].split(",")
    if header[:2] != ["t", "agent"] or len(header) < 4 or (len(header) - 2) % 2 != 0:
        raise ModelError("malformed trajectory header")
    n = (len(header) - 2) // 2
    ts = []
    rows = {}
    try:
        for ln in lines[1:]:
            parts = ln.split(",")
            t = float(parts[0])
            agent = int(parts[1])
            vals = [float(v) for v in parts[2:]]
            if len(vals) != 2 * n:
                raise ValueError(f"expected {2 * n} values, got {len(vals)}")
            if not ts or t != ts[-1]:
                ts.append(t)
            rows.setdefault(agent, []).append(vals)
    except (ValueError, IndexError) as e:
        raise ModelError(f"malformed trajectory row: {e}") from None
    ids = sorted(rows)
    count = len(ts)
    if any(len(rows[i]) != count for i in ids):
        raise ModelError("trajectory rows are unbalanced across agents")
    data = np.array([rows[i] for i in ids])
    states = np.transpose(data[:, :, :n], (1, 0, 2))
    inputs = np.transpose(data[:, :, n:], (1, 0, 2))
    return Trajectory(
        ts=np.array(ts),
        states=states,
        inputs=inputs,
        agent_ids=tuple(ids),
        dt=float(ts[-1]) if count > 1 else 0.0,
        substeps=max(count - 1, 1),
    )


def final_states_from_csv(text):
    """Last sampled state per agent from a trajectory CSV."""
    return trajectory_from_csv(text).final_states()

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


def _neighbor_block(model, Y, agent):
    if not agent.neighbors:
        return np.zeros(0)
    idx = {i: a for a, i in enumerate(model.agent_ids)}
    return np.concatenate([Y[idx[j]] for j in agent.neighbors])


def simulate_closed_loop(model, abstraction, schedule, m, substeps=None, integ_tol=None):
    """Integrate the coupled network under the plan's feedback schedule."""
    substeps = substeps or abstraction.substeps
    integ_tol = integ_tol or abstraction.integ_tol
    dt = abstraction.params.dt
    ids = model.agent_ids
    N = len(ids)
    n = model.dim
    total = m * substeps + 1
    ts = np.empty(total)
    states = np.empty((total, N, n))
    inputs = np.zeros((total, N, n))
    Y = np.stack([model.agent(i).x0 for i in ids])
    states[0] = Y
    ts[0] = 0.0

    for k in range(m):
        controls = []
        for a, i in enumerate(ids):
            step = schedule[i][k]
            ref = abstraction.reference_for(i, step.config)
            agent = model.agent(i)
            controls.append(
                controller.TransitionControl(
                    agent=agent,
                    reference=ref,
                    x_G=ref.own_ref,
                    x0=Y[a],
                    w=step.w,
                    lam=abstraction.params.lam[i],
                    dt=dt,
                )
            )

        def rhs(t, flat):
            Yk = flat.reshape(N, n)
            out = np.empty_like(Yk)
            for a, i in enumerate(ids):
                agent = model.agent(i)
                d = _neighbor_block(model, Yk, agent)
                x = Yk[a]
                out[a] = model_mod.eval_f(agent, x, d) + controls[a].k(t, x, d)
            return out.reshape(-1)

        dense = integrate.rk4_dense(rhs, Y.reshape(-1), dt, substeps)
        integrate.check_audit(
            rhs, Y.reshape(-1), dt, substeps, integ_tol,
            what=f"closed-loop interval {k}", coarse=dense.endpoint,
        )
        base = k * substeps
        for node in range(1 if k else 0, substeps + 1):
            Ynode = dense.ys[node].reshape(N, n)
            ts[base + node] = k * dt + dense.ts[node]
            states[base + node] = Ynode
        for node in range(0, substeps + 1):
            Ynode = dense.ys[node].reshape(N, n)
            for a, i in enumerate(ids):
                agent = model.agent(i)
                d = _neighbor_block(model, Ynode, agent)
                inputs[base + node, a] = controls[a].k(dense.ts[node], Ynode[a], d)
        Y = dense.endpoint.reshape(N, n)

    if m == 0:
        for a, i in enumerate(ids):
            inputs[0, a] = 0.0
    return Trajectory(
        ts=ts, states=states, inputs=inputs, agent_ids=tuple(ids), dt=dt, substeps=substeps
    )


def simulate_open_loop(model, v_fns, duration, substeps=integrate.DEFAULT_SUBSTEPS):
    """Integrate the coupled network under user-supplied admissible inputs."""
    ids = model.agent_ids
    N = len(ids)
    n = model.dim

    def rhs(t, flat):
        Yk = flat.reshape(N, n)
        out = np.empty_like(Yk)
        for a, i in enumerate(ids):
            agent = model.agent(i)
            v = np.asarray(v_fns[i](t), dtype=float)
            if np.sqrt(np.sum(v * v)) > agent.v_max * (1 + 1e-9):
                raise ModelError(
                    f"agent {i}: input magnitude exceeds v_max at t={t}"
                )
            out[a] = model_mod.eval_f(agent, Yk[a], _neighbor_block(model, Yk, agent)) + v
        return out.reshape(-1)

    Y0 = np.stack([model.agent(i).x0 for i in ids]).reshape(-1)
    dense = integrate.rk4_dense(rhs, Y0, duration, substeps)
    states = dense.ys.reshape(-1, N, n)
    inputs = np.stack(
        [
            np.stack([np.asarray(v_fns[i](t), dtype=float) for i in ids])
            for t in dense.ts
        ]
    )
    return Trajectory(
        ts=dense.ts,
        states=states,
        inputs=inputs,
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

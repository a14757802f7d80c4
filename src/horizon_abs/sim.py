"""Closed-loop simulation of the true coupled system and plan validation.

The full network is integrated monolithically so every controller reads
its neighbors from the same integrator state.  On each transition
interval the feedback of agent i is re-anchored at the realized state
at the interval start, which is exactly the construction under which
the closed loop coincides with the auxiliary disturbance system.
"""

import io

import numpy as np

from . import grid, integrate, model as model_mod
from .errors import ModelError, PlanConsistencyError

MEMBERSHIP_SNAP = 1e-9
# stage times per array pass of the reference field table; a bounded
# block keeps the pass's temporaries small
TABLE_BLOCK = 64


class Trajectory:
    def __init__(self, ts, states, inputs, agent_ids, substeps):
        self.ts = ts
        self.states = states
        self.inputs = inputs
        self.agent_ids = agent_ids
        self.substeps = substeps

    def state_at_step(self, agent_idx, k):
        return self.states[k * self.substeps, agent_idx]

    def final_states(self):
        return {i: self.states[-1, a] for a, i in enumerate(self.agent_ids)}


def _neighbor_rows(agents):
    pos = {agent.id: a for a, agent in enumerate(agents)}
    return [[pos[j] for j in agent.neighbors] for agent in agents]


def simulate_closed_loop(model, abstraction, schedule, m):
    """Integrate the coupled network under the plan's feedback schedule.

    The schedule's references are one stacked run over every agent's
    configurations (Abstraction.reference_for), audited before the loop.
    They do not depend on the network state, so the reference states and
    their saturated fields are evaluated beforehand in one array pass, at
    every stage time of every run below.  Each stage then evaluates the
    raw field of the N network rows (model.NetworkField, with neighbors
    read from the network state, which may carry leading axes), laid out
    in model.group_order; states, inputs and audit notes are in model order.

    Each run is first made raw (controller.raw_run): f and the feedback
    kbar go unsaturated into the RK4 stage block, and the run is checked
    once, after it, against M and v_max.  A run that passes has the bits
    of the saturated one.  Only the coarse run is sequential: it goes
    interval by interval and stops at the first non-finite endpoint.  An
    interval whose raw run fails its check runs again saturated at every
    stage, and so does every later interval, with no raw run first.  The
    intervals reached are then audited together by one step-halving run
    with a leading interval axis (controller.checked_run, in which only
    failing intervals run again), and an audit error names the lowest
    failing interval.  One more right-hand side call records the inputs
    at every kept node.
    """
    from . import controller

    substeps, integ_tol = abstraction.substeps, abstraction.integ_tol
    dt = abstraction.params.dt
    ids = model.agent_ids
    N = len(ids)
    n = model.dim
    total = m * substeps + 1
    ts = node_times(dt, m, substeps)
    order = model_mod.group_order(model.agents)
    agents = [model.agents[r] for r in order]
    back = np.argsort(order)
    states = np.empty((total, N, n))
    inputs = np.zeros((total, N, n))
    Y = np.stack([agent.x0 for agent in agents])
    states[0] = Y
    if not m:
        return Trajectory(ts=ts, states=states[:, back], inputs=inputs, agent_ids=tuple(ids),
                          substeps=substeps)

    field = model_mod.NetworkField(agents, _neighbor_rows(agents))
    v_max = np.array([[agent.v_max] for agent in agents])
    lam = np.array([[abstraction.params.lam[agent.id]] for agent in agents])
    pairs = list(dict.fromkeys((i, step.config) for i in ids for step in schedule[i][:m]))
    refs = abstraction.reference_for(pairs)
    refs.audit(integ_tol, ids)
    row = {pair: r for r, pair in enumerate(pairs)}
    # picks[k, a]: the reference row of network row a on interval k
    picks = np.array([[row[(a.id, schedule[a.id][k].config)] for a in agents] for k in range(m)])
    x_G = refs.own_ref[picks]
    k2 = lam * np.array([[schedule[a.id][k].w for a in agents] for k in range(m)])
    # g_ref[j, k]: the saturated reference fields on interval k at times[j],
    # for every time the coarse runs, the fine audit run and the input
    # recording evaluate
    # sorted and deduplicated without np.unique, whose no-index path loads numpy.ma
    times = sorted(set(np.concatenate((
        integrate.stage_times(dt, substeps, dense=True),
        integrate.stage_times(dt, 2 * substeps),
    )).tolist()))
    when = {t: j for j, t in enumerate(times)}
    times = np.array(times)
    g_ref = np.empty((len(times), m, N, n))
    for j in range(0, len(times), TABLE_BLOCK):
        block = slice(j, j + TABLE_BLOCK)
        g_ref[block] = model_mod.saturate(
            refs.field(refs.traj.eval_many(times[block])), refs.field.M
        )[:, picks]

    def field_and_input(Yt, g, k2, k3):
        F = field(Yt)
        return F, controller.feedback(g - model_mod.saturate(F, field.M), k2, k3, v_max)[1]

    def network_rhs(g_table, k2, k3):
        def rhs(t, Yt):
            f, u = field_and_input(Yt, g_table[when[t]], k2, k3)
            return f + u
        return rhs

    # the same right-hand side with neither saturation: f + kbar, kbar = (g - f) + k2 + k3
    # as feedback sums it; each stage writes slope, F and kbar, raw_run watches the last two
    def raw_rhs(g_table, k2, k3, field=field):
        def rhs(t, Yt, out):
            F = field(Yt, out[1])
            kbar = np.add(np.add(g_table[when[t]] - F, k2), k3, out=out[2])
            np.add(F, kbar, out=out[0])
        rhs.width = 3
        return rhs

    bounds = (field.M, v_max)
    # per interval reached: start state, k3 and the coarse endpoint.  An
    # interval whose raw run fails its check runs again saturated, and so
    # does every later one, with no raw run first.
    reached = []
    exact = False
    for k in range(m):
        k3 = (x_G[k] - Y) / dt
        if not exact:
            dense, ok = controller.raw_run(
                integrate.rk4_dense, raw_rhs(g_ref[:, k], k2[k], k3), bounds, Y, dt, substeps
            )
            exact = not np.all(ok)
        if exact:
            dense = integrate.rk4_dense(network_rhs(g_ref[:, k], k2[k], k3), Y, dt, substeps)
        base = k * substeps
        states[base + 1 : base + substeps + 1] = dense.ys[1:]
        reached.append((Y, k3, dense.endpoint))
        Y = dense.endpoint
        if not np.all(np.isfinite(Y)):
            break

    # a non-finite coarse endpoint fails its interval's audit, so past
    # this call all m intervals were reached; the intervals are the rows
    # of the fine run
    Y0s, k3, coarse = (np.stack(v) for v in zip(*reached))
    r = len(reached)
    fine = controller.checked_run(
        integrate.rk4_endpoint, raw_rhs(g_ref[:, :r], k2[:r], k3),
        lambda index: network_rhs(g_ref[:, :r][:, index], k2[:r][index], k3[index]),
        bounds, Y0s, dt, 2 * substeps,
    )

    def rerun(k):
        # in model order, where a tie between agents names the first
        in_model = model_mod.NetworkField(model.agents, _neighbor_rows(model.agents))
        rhs = raw_rhs(g_ref[:, k:k + 1, back], k2[k:k + 1, back], k3[k:k + 1, back], in_model)
        return rhs, (in_model.M, v_max[back]), Y0s[k:k + 1, back], dt, 2 * substeps

    integrate.check_audit(coarse, fine, integ_tol, what=controller.audit_names(
        lambda k: f"closed-loop interval {k}", rerun, ("|f_i|/M_i", "|kbar_i|/v_max"), ids,
    ))
    # node j's input is that of the interval starting there, and the last
    # node's is the last interval's; every interval's run has the local
    # time grid dense.ts
    interval = np.minimum(np.arange(total) // substeps, m - 1)
    node = np.arange(total) - interval * substeps
    at = np.array([when[t] for t in dense.ts.tolist()])
    inputs = field_and_input(states, g_ref[at[node], interval], k2[interval], k3[interval])[1]
    return Trajectory(ts=ts, states=states[:, back], inputs=inputs[:, back],
                      agent_ids=tuple(ids), substeps=substeps)


def node_times(dt, m, substeps):
    """The times of simulate_closed_loop's nodes: 0, then the rk4_dense
    nodes of each interval k past its start, k * dt + linspace(0, dt,
    substeps + 1)[1:]."""
    local = np.linspace(0.0, dt, substeps + 1)[1:]
    return np.concatenate([[0.0]] + [k * dt + local for k in range(m)])


def check_node_times(traj, dt, m, substeps):
    """A PlanConsistencyError unless ``traj`` holds exactly the node times
    of a closed loop of m intervals of length dt at ``substeps``."""
    if not np.array_equal(traj.ts, node_times(dt, m, substeps)):
        raise PlanConsistencyError(
            f"trajectory.csv times are not the closed-loop nodes of plan.json "
            f"(dt {float(dt)!r}, m {m}, substeps {substeps})"
        )


class ValidationReport:
    def __init__(self, entries, min_margin, passed):
        self.entries = entries
        self.min_margin = min_margin
        self.passed = passed

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
    # tolist() gives Python floats, whose repr is that of float(numpy scalar);
    # one node at a time keeps few of them alive.  A list's repr holds its
    # floats' reprs, so one repr per row makes every value's.
    for t, states, inputs in zip(traj.ts.tolist(), traj.states, traj.inputs):
        t = repr(t)
        for i, x, v in zip(traj.agent_ids, states.tolist(), inputs.tolist()):
            buf.write(f"{t},{i},{repr(x + v)[1:-1].replace(', ', ',')}\n")
    return buf.getvalue()


def trajectory_from_csv(text, model):
    """Rebuild a trajectory (states and inputs) of ``model`` from its CSV
    form, as trajectory_to_csv lays it out.

    Any other file is a ModelError: a header or row with other than
    2 + 2 * dim columns, a value that is not an ASCII decimal float (such
    as 1_0), a non-finite value, agent ids other than the model's, a time
    without one row per agent, or times that do not start at 0 and
    increase strictly.  The rows are checked as one array.
    """
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ModelError("empty trajectory file")
    n, ids = model.dim, sorted(model.agent_ids)
    header = lines[0].split(",")
    if header[:2] != ["t", "agent"] or len(header) != 2 + 2 * n:
        raise ModelError(f"malformed trajectory header: need t, agent and {2 * n} values")
    if len(lines) == 1:
        raise ModelError("trajectory file has no rows")
    try:
        # one pass in C, which reads no PEP 515 underscores, unlike float()
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != 2 + 2 * n:
            raise ValueError(f"need {2 + 2 * n} values")
    except ValueError as e:
        raise ModelError(f"malformed trajectory row: {e}") from None
    if not np.all(np.isfinite(data)):
        raise ModelError("trajectory holds a non-finite value")
    found = sorted(set(data[:, 1].tolist()))
    if found != ids:
        raise ModelError(f"trajectory agents {found} are not the model's {ids}")
    # one block of rows per time, one row per agent, all at that time
    blocks = data.reshape(-1, len(ids), 2 + 2 * n) if len(data) % len(ids) == 0 else None
    if blocks is None or np.any(np.sort(blocks[:, :, 1], axis=1) != ids) or np.any(
        blocks[:, :, 0] != blocks[:, :1, 0]
    ):
        raise ModelError("trajectory rows are unbalanced: each time needs one row per agent")
    blocks = np.take_along_axis(blocks, np.argsort(blocks[:, :, 1:2], axis=1), axis=1)
    ts = blocks[:, 0, 0]
    if ts[0] != 0 or not np.all(ts[1:] > ts[:-1]):
        raise ModelError("trajectory times must start at 0 and increase strictly")
    return Trajectory(
        ts=ts,
        states=blocks[:, :, 2:2 + n],
        inputs=blocks[:, :, 2 + n:],
        agent_ids=tuple(ids),
        substeps=max(len(ts) - 1, 1),
    )


def final_states_from_csv(text, model, nodes=None):
    """Last sampled state per agent from a trajectory CSV of ``model``, whose
    times must be check_node_times' for ``nodes`` = (dt, m, substeps) if given."""
    traj = trajectory_from_csv(text, model)
    if nodes is not None:
        check_node_times(traj, *nodes)
    return traj.final_states()

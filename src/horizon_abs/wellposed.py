"""Admissible time-step and cell-diameter intervals, and their synthesis.

The bounds implemented here are the sufficient conditions under which
every initiating cell admits a deterministic transition with the
feedback law kept strictly below its saturation level.  Both intervals
are open, so synthesized values back off from the suprema by a margin
factor.
"""

import math

from .errors import InfeasibleError, ModelError

DEFAULT_LAMBDA = 0.4
DEFAULT_MARGIN = 0.999
_AUTO_HEADROOM = 0.9
_STEPS_CAP = 100000  # no step count, requested or derived, is higher


class DiscretizationParams:
    """A discretization's dt, steps, lam, mu, d_max and margin."""

    def __init__(self, dt, steps, lam, mu, d_max, margin):
        self.dt = dt
        self.steps = steps
        self.lam = lam
        self.mu = mu
        self.d_max = d_max
        self.margin = margin


def mu_norm(model, params, agent_id):
    agent = model.agent(agent_id)
    return math.sqrt(sum(params.mu[(j, agent_id)] ** 2 for j in agent.neighbors))


def M_norm(model, agent_id):
    agent = model.agent(agent_id)
    return math.sqrt(
        sum((model.agent(j).M + model.agent(j).v_max) ** 2 for j in agent.neighbors)
    )


def dt_bound(model, params, agent_id):
    """Supremum of admissible time steps for one agent; inf when unconstrained."""
    agent = model.agent(agent_id)
    lam = params.lam[agent_id]
    denom = agent.L1 * M_norm(model, agent_id) + agent.L2 * lam * agent.v_max
    if denom <= 0:
        return math.inf
    return (1 - lam) * agent.v_max / denom


def dmax_bound(model, params, agent_id, dt):
    """Supremum of admissible cell diameters at a given time step."""
    sup_dt = dt_bound(model, params, agent_id)
    if not 0 < dt < sup_dt:
        raise InfeasibleError(
            f"agent {agent_id}: dt={dt} outside the admissible interval (0, {sup_dt})"
        )
    agent = model.agent(agent_id)
    lam = params.lam[agent_id]
    mu_i = mu_norm(model, params, agent_id)
    M_i = M_norm(model, agent_id)
    lead = 2 * (1 - lam) * agent.v_max * dt
    branch_a = lead / (1 + (agent.L1 * mu_i + agent.L2) * dt)
    branch_b = (lead - 2 * (agent.L1 * M_i + agent.L2 * lam * agent.v_max) * dt**2) / (
        1 + agent.L1 * mu_i * dt
    )
    return min(branch_a, branch_b)


def check_params(model, params, tau):
    """Strict re-validation of a parameter choice; returns violation strings."""
    violations = []
    if params.dt <= 0:
        violations.append(f"dt={params.dt} must be positive")
        return violations
    if params.dt >= tau:
        violations.append(f"dt={params.dt} must be strictly below tau={tau}")
    for agent in model.agents:
        i = agent.id
        lam = params.lam[i]
        if not 0 <= lam < 1:
            violations.append(f"agent {i}: lambda={lam} outside [0, 1)")
            continue
        sup_dt = dt_bound(model, params, i)
        if params.dt >= sup_dt:
            violations.append(
                f"agent {i}: dt={params.dt} is not strictly below its bound {sup_dt}"
            )
            continue
        sup_d = dmax_bound(model, params, i, params.dt)
        d = params.d_max[i]
        if not 0 < d < sup_d:
            violations.append(
                f"agent {i}: d_max={d} is not strictly inside (0, {sup_d})"
            )
    for (j, i) in model.edges():
        lhs = params.d_max.get(j)
        rhs = params.mu[(j, i)] * params.d_max.get(i, 0.0)
        if lhs is None or lhs > rhs * (1 + 1e-12):
            violations.append(
                f"edge ({j} -> {i}): d_max({j})={lhs} exceeds mu*d_max({i})={rhs}"
            )
    return violations


def synthesize(model, lam=None, mu=None, steps=None, margin=DEFAULT_MARGIN):
    """Pick (dt, steps, d_max) satisfying every admissibility constraint strictly.

    With an explicit ``steps`` the request is honored or rejected as
    infeasible; otherwise the step count is searched upward until the
    common time step clears every agent's bound and tau.
    """
    if margin <= 0:
        raise ModelError(f"margin must be positive, got {margin}")
    if not math.isfinite(margin):
        raise ModelError(f"margin must be finite, got {margin}")
    default_lam = dict.fromkeys(model.agent_ids, DEFAULT_LAMBDA)
    unit_mu = dict.fromkeys(model.edges(), 1.0)
    lam = default_lam | dict(lam or {})
    mu = unit_mu | dict(mu or {})
    for i, value in lam.items():
        if i not in default_lam:
            raise ModelError(f"lambda names unknown agent {i!r}")
        if not 0 <= value < 1:
            raise InfeasibleError(f"agent {i}: lambda={value} outside [0, 1)")
    for e, value in mu.items():
        if e not in unit_mu:
            raise ModelError(f"mu names {e!r}, which is no coupling edge (j, i)")
        if not 0 <= value < math.inf:
            raise InfeasibleError(f"edge {e}: mu={value} must be finite and nonnegative")

    probe = DiscretizationParams(dt=0.0, steps=0, lam=lam, mu=mu, d_max={}, margin=margin)

    T = model.horizon
    tau = model.tau
    sup_dts = {a.id: dt_bound(model, probe, a.id) for a in model.agents}
    sup_dt = min(sup_dts.values())

    if steps is not None:
        if not 1 <= steps <= _STEPS_CAP:
            raise ModelError(f"steps must be a positive integer at most {_STEPS_CAP}, got {steps}")
        dt = T / steps
        for i, bound in sorted(sup_dts.items()):
            if dt >= bound:
                raise InfeasibleError(
                    f"agent {i}: requested dt={dt} is not strictly below its bound {bound}"
                )
        if dt >= tau:
            raise InfeasibleError(f"requested dt={dt} must be strictly below tau={tau}")
    else:
        target = tau / 2 if math.isinf(sup_dt) else min(sup_dt, tau) * min(margin, _AUTO_HEADROOM)
        steps = max(2, math.ceil(T / target))
        while T / steps >= target and steps <= _STEPS_CAP:
            steps += 1
        if steps > _STEPS_CAP:
            raise InfeasibleError(f"no admissible step count at or below {_STEPS_CAP}")
        dt = T / steps

    d_max = {}
    for agent in model.agents:
        d_max[agent.id] = margin * dmax_bound(model, probe, agent.id, dt)

    # Bellman-Ford relaxation: with no cycle product below 1 every d_max is
    # final after N - 1 passes, so a change in pass N means such a cycle,
    # and N steps back along the edges that last lowered d_max land on it
    n = len(model.agents)
    lowered_by = {}
    for _ in range(n):
        last = None
        for (j, i) in model.edges():
            cap = mu[(j, i)] * d_max[i]
            if d_max[j] > cap:
                d_max[j] = cap
                lowered_by[j] = i
                last = j
        if last is None:
            break
    else:
        for _ in range(n):
            last = lowered_by[last]
        cycle = [last]
        while lowered_by[cycle[-1]] != last:
            cycle.append(lowered_by[cycle[-1]])
        k = cycle.index(min(cycle))
        cycle = tuple(cycle[k:] + cycle[:k])
        product = math.prod((mu[e] for e in zip(cycle, cycle[1:] + cycle[:1])), start=1.0)
        verdict = "< 1" if product < 1 else "yet rounding shrinks d_max around it"
        raise InfeasibleError(f"cycle {cycle}: mu product {product} {verdict}")
    for i, value in sorted(d_max.items()):
        if value <= 0:
            raise InfeasibleError(f"agent {i}: propagated d_max collapsed to {value}")

    params = DiscretizationParams(
        dt=dt, steps=steps, lam=lam, mu=mu, d_max=d_max, margin=margin
    )
    violations = check_params(model, params, tau)
    if violations:
        raise InfeasibleError("; ".join(violations))
    return params

"""Deterministic per-agent transition systems with on-demand Post sets.

A configuration is the tuple (own cell, neighbor cells...) in the
agent's declared neighbor order.  Its Post set is computed by solving
the reference trajectory from the configuration's reference points and
collecting every cell met by the endpoint ball of radius
lambda * dt * v_max.  Actions are identified with their successor cell:
under a well-posed discretization each (configuration, successor) pair
is realizable by exactly one parameter class, so the transition system
is deterministic by construction.

Post sets are memoized per configuration and never enumerated eagerly;
planning only ever touches reachable configurations.
"""

import collections

import numpy as np

from . import controller, grid, integrate, reach
from . import model as model_mod
from .errors import InfeasibleError, IntegrationError, ModelError

ENDPOINT_BALL_SLACK = 1e-9


# A transition: the agent's configuration, the target cell, the point of
# the target the feedback steers to, and its free parameter w.
Action = collections.namedtuple("Action", "agent_id config target point w")


class Abstraction:
    def __init__(
        self,
        model,
        params,
        families,
        decs,
        substeps=integrate.DEFAULT_SUBSTEPS,
        integ_tol=integrate.DEFAULT_INTEG_TOL,
    ):
        self.model = model
        self.params = params
        self.families = families
        self.decs = decs
        self.substeps = substeps
        self.integ_tol = integ_tol
        self._post_cache = {}
        self._endpoint_cache = {}
        self._references = None

    def radius(self, agent_id):
        agent = self.model.agent(agent_id)
        return controller.r_i(self.params.lam[agent_id], self.params.dt, agent.v_max)

    def _by_agent(self, pairs):
        """Per agent of (agent id, configuration) pairs: its id, the rows
        of its pairs, the decompositions of its slots (own cell, then the
        neighbors' in declared order) and its configurations as an int
        array (rows, slots, dim), or None when one is not a tuple of as
        many int lattice cells as the agent has slots."""
        rows = {}
        for r, (agent_id, _) in enumerate(pairs):
            rows.setdefault(agent_id, []).append(r)
        out = []
        for agent_id, idx in rows.items():
            slots = (agent_id,) + self.model.agent(agent_id).neighbors
            try:
                lattice = np.array([pairs[r][1] for r in idx])
            except ValueError:  # ragged
                lattice = np.zeros(0)
            shape = (len(idx), len(slots), self.model.dim)
            if lattice.shape != shape or lattice.dtype.kind != "i":
                lattice = None
            out.append((agent_id, idx, [self.decs[j] for j in slots], lattice))
        return out

    def _refs(self, groups, count):
        """Reference points of the ``count`` pairs of ``_by_agent``'s
        ``groups``, one row each: the own points as one array, and the
        neighbor blocks as one array whose row r starts with row r's
        block, zero past it (as model.NetworkField takes them).  One
        grid.reference_point pass per agent and slot."""
        dim = self.model.dim
        own = np.empty((count, dim))
        nbr = np.zeros((count, max((len(g[2]) - 1 for g in groups), default=0) * dim))
        for agent_id, rows, decs, lattice in groups:
            if lattice is None:
                raise ModelError(
                    f"agent {agent_id}: configuration needs {len(decs)} cells of "
                    f"{dim} integers"
                )
            refs = np.stack([
                grid.reference_point(dec, lattice[:, s]) for s, dec in enumerate(decs)
            ], axis=1)
            own[rows] = refs[:, 0]
            nbr[rows, : (len(decs) - 1) * dim] = refs[:, 1:].reshape(len(rows), -1)
        return own, nbr

    def initiating(self, pairs):
        """Whether each (agent id, configuration) pair is transition-initiating."""
        return self._initiating(self._by_agent(pairs), len(pairs))

    def _initiating(self, groups, count):
        """initiating() of ``_by_agent``'s groups, one CellSet.contains_many
        per agent and slot."""
        out = np.zeros(count, dtype=bool)
        for _, rows, decs, lattice in groups:
            if lattice is not None:
                out[rows] = np.all([
                    dec.initiating_set.contains_many(lattice[:, s]) for s, dec in enumerate(decs)
                ], axis=0)
        return out

    def _initiating_refs(self, pairs):
        """Reference points of pairs that must be transition-initiating;
        the first that is not is a ModelError."""
        groups = self._by_agent(pairs)
        ok = self._initiating(groups, len(pairs))
        if not np.all(ok):
            agent_id, config = pairs[int(np.argmin(ok))]
            raise ModelError(
                f"agent {agent_id}: configuration {config} is not transition-initiating"
            )
        return self._refs(groups, len(pairs))

    def endpoint(self, agent_id, config):
        key = (agent_id, config)
        cached = self._endpoint_cache.get(key)
        if cached is None:
            self.post_many(agent_id, [config])
            cached = self._endpoint_cache[key]
        return cached

    def post(self, agent_id, config):
        key = (agent_id, config)
        cached = self._post_cache.get(key)
        if cached is None:
            cached = self.post_many(agent_id, [config])[0]
        return cached

    def post_many(self, agent_id, configs):
        """Memoized Post sets for many configurations.  The misses are
        integrated through seed_endpoints, unless they are seeded already,
        and intersected with the grid in one batch.  A cached endpoint
        belongs to an initiating configuration, so seed_endpoints rejects
        every other miss, the lowest first."""
        cache = self._post_cache
        keys = [(agent_id, config) for config in configs]
        out = [cache.get(key) for key in keys]
        missing = sorted({key for key, cells in zip(keys, out) if cells is None})
        if missing:
            dec = self.decs[agent_id]
            # endpoints seeded by seed_endpoints or reference_for are not integrated again
            self.seed_endpoints(missing)
            endpoints = np.array([self._endpoint_cache[key] for key in missing])
            finite = np.all(np.isfinite(endpoints), axis=-1)
            if not np.all(finite):
                config = missing[int(np.argmin(finite))][1]
                raise IntegrationError(
                    f"agent {agent_id}: the reference endpoint of configuration {config} "
                    "is not finite"
                )
            radius = self.radius(agent_id)
            center_gap = np.sqrt(
                np.sum((endpoints - dec.region.center) ** 2, axis=-1)
            )
            bad = center_gap + radius > dec.region.radius + ENDPOINT_BALL_SLACK
            if np.any(bad):
                config = missing[int(np.argmax(bad))][1]
                raise InfeasibleError(
                    f"agent {agent_id}: endpoint ball of configuration {config} leaves "
                    "the reachable region; declared bounds and discretization disagree"
                )
            posts = grid.cells_intersecting_ball(dec, endpoints, radius)
            for key, cells in zip(missing, posts):
                if not cells:
                    raise InfeasibleError(
                        f"agent {agent_id}: empty Post for configuration {key[1]} "
                        "contradicts well-posedness"
                    )
                cache[key] = tuple(cells)
            out = [cache[key] if cells is None else cells for key, cells in zip(keys, out)]
        return out

    def seed_endpoints(self, pairs):
        """Reference endpoints of (agent id, configuration) pairs of any
        agents, integrated as one controller.reference_endpoints run.

        Pairs whose endpoint is cached are skipped; the rest are integrated
        in order of first appearance, after a check that each is
        transition-initiating.  The endpoints seed the endpoint cache, so
        the Posts of these configurations integrate nothing more.  Nothing
        is cached when the run raises.
        """
        cache = self._endpoint_cache
        pairs = list({pair: None for pair in pairs if pair not in cache})
        if not pairs:
            return
        own, nbr = self._initiating_refs(pairs)
        endpoints = controller.reference_endpoints(
            [self.model.agent(i) for i, _ in pairs], own, nbr, self.params.dt, self.substeps
        )
        self._endpoint_cache.update(zip(pairs, endpoints))

    def reference_for(self, pairs):
        """Dense reference trajectories of (agent id, configuration) pairs,
        integrated as one controller.ReferenceStack; row r belongs to
        ``pairs[r]``.  The run is not audited here.

        The rows' endpoints seed the endpoint cache, so the Posts of these
        configurations integrate nothing more.  The last stack is kept and
        returned again for the same pairs.  A pair that is not
        transition-initiating is a ModelError, and nothing is integrated.
        """
        pairs = tuple(pairs)
        if self._references is not None and self._references[0] == pairs:
            return self._references[1]
        own, nbr = self._initiating_refs(pairs)
        refs = controller.ReferenceStack(
            [self.model.agent(i) for i, _ in pairs], own, nbr, self.params.dt, self.substeps
        )
        for pair, endpoint in zip(pairs, refs.endpoint.copy()):
            self._endpoint_cache.setdefault(pair, endpoint)
        self._references = (pairs, refs)
        return refs

    def successor_action(self, agent_id, config, target):
        successors = self.post(agent_id, config)
        if target not in successors:
            raise ModelError(
                f"agent {agent_id}: {target} is not a successor of configuration {config}"
            )
        agent = self.model.agent(agent_id)
        dec = self.decs[agent_id]
        endpoint = self.endpoint(agent_id, config)
        radius = self.radius(agent_id)
        ball = reach.Ball(endpoint, radius)
        point = grid.witness_in_cell_ball(dec, target, ball)
        if point is None:
            raise ModelError(
                f"agent {agent_id}: no representative point in cell {target} for "
                f"configuration {config}"
            )
        point = grid.deepen_point(dec, target, ball, point)
        w = controller.select_w(
            endpoint, point, self.params.lam[agent_id], self.params.dt, agent.v_max
        )
        return Action(agent_id=agent_id, config=config, target=target, point=point, w=w)

    def audit_endpoints(self, pairs=None):
        """controller.audit_references over the endpoints the Posts of
        (agent id, configuration) pairs were cut from, default every
        cached endpoint, in one fine run.  An error names the first agent,
        in model order, with a failing row."""
        pairs = list(dict.fromkeys(self._endpoint_cache if pairs is None else pairs))
        if not pairs:
            return
        own, nbr = self._refs(self._by_agent(pairs), len(pairs))
        controller.audit_references(
            model_mod.NetworkField([self.model.agent(i) for i, _ in pairs], nbr_refs=nbr),
            own, np.array([self.endpoint(i, config) for i, config in pairs]),
            self.params.dt, self.substeps, self.integ_tol, self.model.agent_ids,
        )

    def summary(self):
        # per agent: configurations with a Post and their Post cells, in one pass
        totals = {i: [0, 0] for i in self.model.agent_ids}
        for (i, _), cells in self._post_cache.items():
            totals[i][0] += 1
            totals[i][1] += len(cells)
        return {
            i: {
                "cells": len(self.decs[i].index_set),
                "initiating": len(self.decs[i].initiating_set),
                "configurations": count,
                "mean_post": (cells / count) if count else 0.0,
            }
            for i, (count, cells) in totals.items()
        }


def build_abstraction(model, params, substeps=integrate.DEFAULT_SUBSTEPS,
                      integ_tol=integrate.DEFAULT_INTEG_TOL):
    families = {a.id: model_mod.reach_family(model, a.id) for a in model.agents}
    decs = {
        a.id: grid.build_decomposition(families[a.id], params.d_max[a.id], params.dt)
        for a in model.agents
    }
    return Abstraction(model, params, families, decs, substeps=substeps, integ_tol=integ_tol)

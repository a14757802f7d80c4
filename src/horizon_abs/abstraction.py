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

from dataclasses import dataclass

import numpy as np

from . import controller, grid, integrate, reach
from .errors import InfeasibleError, IntegrationError, ModelError

ENDPOINT_BALL_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Action:
    agent_id: int
    config: tuple
    target: tuple
    point: np.ndarray
    w: np.ndarray


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

    def radius(self, agent_id):
        agent = self.model.agent(agent_id)
        return controller.r_i(self.params.lam[agent_id], self.params.dt, agent.v_max)

    def config_refs(self, agent_id, config):
        agent = self.model.agent(agent_id)
        if len(config) != 1 + len(agent.neighbors):
            raise ModelError(
                f"agent {agent_id}: configuration needs {1 + len(agent.neighbors)} cells, "
                f"got {len(config)}"
            )
        own = grid.reference_point(self.decs[agent_id], config[0])
        blocks = [
            grid.reference_point(self.decs[j], cell)
            for j, cell in zip(agent.neighbors, config[1:])
        ]
        nbr = np.concatenate(blocks) if blocks else np.zeros(0)
        return own, nbr

    def _stacked_refs(self, agent_id, configs):
        """Reference points of many configurations, one row each."""
        agent = self.model.agent(agent_id)
        own = np.empty((len(configs), agent.dim))
        nbr = np.empty((len(configs), len(agent.neighbors) * agent.dim))
        for row, config in enumerate(configs):
            own[row], nbr[row] = self.config_refs(agent_id, config)
        return own, nbr

    def is_initiating(self, agent_id, config):
        agent = self.model.agent(agent_id)
        if config[0] not in self.decs[agent_id].initiating_set:
            return False
        return all(
            cell in self.decs[j].initiating_set
            for j, cell in zip(agent.neighbors, config[1:])
        )

    def _require_initiating(self, agent_id, config):
        if not self.is_initiating(agent_id, config):
            raise ModelError(
                f"agent {agent_id}: configuration {config} is not transition-initiating"
            )

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
        """Memoized Post sets for many configurations, integrated and intersected
        with the grid in one batch."""
        agent = self.model.agent(agent_id)
        dec = self.decs[agent_id]
        missing = []
        for config in configs:
            if (agent_id, config) not in self._post_cache:
                self._require_initiating(agent_id, config)
                missing.append(config)
        missing = sorted(set(missing))
        if missing:
            own, nbr = self._stacked_refs(agent_id, missing)
            endpoints = controller.reference_endpoints(
                agent, own, nbr, self.params.dt, self.substeps
            )
            finite = np.all(np.isfinite(endpoints), axis=-1)
            if not np.all(finite):
                config = missing[int(np.argmin(finite))]
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
                config = missing[int(np.argmax(bad))]
                raise InfeasibleError(
                    f"agent {agent_id}: endpoint ball of configuration {config} leaves "
                    "the reachable region; declared bounds and discretization disagree"
                )
            posts = grid.cells_intersecting_ball(dec, endpoints, radius)
            for config, endpoint, cells in zip(missing, endpoints, posts):
                if not cells:
                    raise InfeasibleError(
                        f"agent {agent_id}: empty Post for configuration {config} "
                        "contradicts well-posedness"
                    )
                self._endpoint_cache[(agent_id, config)] = endpoint
                self._post_cache[(agent_id, config)] = tuple(cells)
        return [self._post_cache[(agent_id, config)] for config in configs]

    def reference_for(self, agent_id, configs):
        """Dense, audited reference trajectories, integrated in one batch.

        Row r of the result belongs to ``configs[r]``; nothing is cached.
        """
        agent = self.model.agent(agent_id)
        own, nbr = self._stacked_refs(agent_id, configs)
        return controller.integrate_reference(
            agent, own, nbr, self.params.dt, self.substeps, self.integ_tol, config=configs
        )

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

    def summary(self):
        per_agent = {}
        for i in self.model.agent_ids:
            dec = self.decs[i]
            posts = [
                len(cells)
                for (aid, _), cells in self._post_cache.items()
                if aid == i
            ]
            per_agent[i] = {
                "cells": len(dec.index_set),
                "initiating": len(dec.initiating_set),
                "configurations": len(posts),
                "mean_post": (sum(posts) / len(posts)) if posts else 0.0,
            }
        return per_agent


def build_abstraction(model, params, substeps=integrate.DEFAULT_SUBSTEPS,
                      integ_tol=integrate.DEFAULT_INTEG_TOL):
    from . import model as model_mod

    families = {a.id: model_mod.reach_family(model, a.id) for a in model.agents}
    decs = {
        a.id: grid.build_decomposition(families[a.id], params.d_max[a.id], params.dt)
        for a in model.agents
    }
    return Abstraction(model, params, families, decs, substeps=substeps, integ_tol=integ_tol)

"""Run one horizon-abs command with its layers traced from the outside.

    python3 perfbench/trace_cli.py TRACE.json <horizon-abs arguments>

Before the command runs, the public functions of each layer are replaced,
through their module (or class) attributes, by wrappers that record a
span.  Every call between horizon_abs modules goes through such an
attribute, so no call of a wrapped function escapes.  Nothing under
src/ changes.

Spans are held in memory (name, parent, start, end) and reduced when the
command ends.  A function's inclusive time counts only its outermost
spans, so recursion is not counted twice; its self time is its spans'
durations minus the parts their child spans cover.  Counts are taken from
arguments and return values at the same boundaries.  TRACE.json receives
the reduced numbers, the exit code and the duration of the cli.main span.
"""

import functools
import json
import math
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []
        self.depth = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self):
        """Name of the innermost open span, or None outside every span."""
        idx = self.stack[-1]
        return None if idx < 0 else self.names[self.span_name[idx]]

    def wrap(self, name, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        self.depth.append(0)
        span_name, span_parent, span_outer = self.span_name, self.span_parent, self.span_outer
        span_start, span_end = self.span_start, self.span_end
        stack, depth, clock = self.stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_outer.append(depth[nid] == 0)
            span_end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def reduce(self):
        n = len(self.span_name)
        child = [0.0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        out = {name: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx in range(n):
            entry = out[self.names[self.span_name[idx]]]
            dur = self.span_end[idx] - self.span_start[idx]
            entry["calls"] += 1
            entry["self_s"] += dur - child[idx]
            if self.span_outer[idx]:
                entry["inclusive_s"] += dur
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(x):
    """Leading batch rows of an array argument (1 for a single state)."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return math.prod(shape[:-1])


def _count_cells_built(tr, args, kwargs, dec):
    tr.add("grid.cells_built", len(dec.index_set))


def _count_label_scan(tr, args, kwargs, result):
    tr.add("grid.label_cells_scanned", len(_arg(args, kwargs, 0, "dec").index_set))


def _count_witness(tr, args, kwargs, point):
    if point is not None:
        tr.add("grid.witness_hits", 1)


def _count_eval_f_rows(tr, args, kwargs, result):
    tr.add("model.eval_f_rows", _rows(_arg(args, kwargs, 1, "x_i")))


def _count_endpoint_rows(tr, args, kwargs, result):
    tr.add("controller.endpoint_rows", _rows(_arg(args, kwargs, 1, "own_refs")))


def _count_post(tr, args, kwargs, result):
    tr.add("abstraction.post_requests", 1)


def _count_post_many(tr, args, kwargs, result):
    # post() routes its cache misses through post_many; count those once
    if tr.current() != "abstraction.Abstraction.post":
        tr.add("abstraction.post_requests", len(_arg(args, kwargs, 2, "configs")))


# (module, attribute path, count) for every wrapped layer boundary
WRAPPED = [
    ("model", "parse_model", None),
    ("model", "validate_bounds", None),
    ("model", "eval_f", _count_eval_f_rows),
    ("expr", "eval_ast", None),
    ("wellposed", "synthesize", None),
    ("grid", "build_decomposition", _count_cells_built),
    ("grid", "label_cells", _count_label_scan),
    ("grid", "cells_intersecting_ball", None),
    ("grid", "witness_in_cell_ball", _count_witness),
    ("integrate", "rk4_dense", None),
    ("integrate", "rk4_endpoint", None),
    ("integrate", "check_audit", None),
    ("controller", "reference_endpoints", _count_endpoint_rows),
    ("controller", "integrate_reference", None),
    ("abstraction", "build_abstraction", None),
    ("abstraction", "Abstraction.post", _count_post),
    ("abstraction", "Abstraction.post_many", _count_post_many),
    ("abstraction", "Abstraction.reference_for", None),
    ("planner", "cascade_synthesize", None),
    ("planner", "product_synthesize", None),
    ("planner", "goal_table", None),
    ("planner", "forward_layers", None),
    ("planner", "backward_prune", None),
    ("planner", "extract_controls", None),
    ("sim", "simulate_closed_loop", None),
    ("sim", "validate_plan", None),
    ("sim", "trajectory_to_csv", None),
    ("sim", "trajectory_from_csv", None),
    ("sim", "final_states_from_csv", None),
    ("render", "render_svg", None),
]


def install(tracer):
    import importlib

    for module_name, path, count in WRAPPED:
        owner = importlib.import_module(f"horizon_abs.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(f"{module_name}.{path}", getattr(owner, attr), count))


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from horizon_abs import cli

    traced_main = tracer.wrap("cli.main", cli.main)
    code = 1
    try:
        code = traced_main(cli_args)
    finally:
        doc = {"exit": code, "functions": tracer.reduce(), "counts": tracer.counts}
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

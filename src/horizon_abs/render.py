"""Deterministic SVG rendering of planar runs.

The figure is assembled by hand from fixed-format primitives so the
same inputs always produce the same bytes.  Only two-dimensional agent
state spaces are supported.
"""

import numpy as np

from .errors import ModelError

CANVAS = 900.0
PAD = 0.05
GRID_DRAW_LIMIT = 5000

REGION_STROKE = "#888888"
INNER_STROKE = "#bbbbbb"
REACHABLE_FILL = "#cde8cd"
SATISFYING_FILL = "#7fc97f"
PATH_FILL = "#d84a4a"
GOAL_STROKE = "#1565c0"
TRAJ_STROKE = "#222222"
START_FILL = "#222222"


def _fmt(v):
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _fmt_all(template, values):
    """``template`` % ``values``, each %.3f field as _fmt writes it (only
    a field that starts with a minus sign can read -0.000)."""
    return (template % tuple(values.tolist())).replace("-0.000", "0.000")


class _Frame:
    def __init__(self, lo, hi):
        span = max(hi[0] - lo[0], hi[1] - lo[1])
        pad = PAD * span
        self.lo = np.array([lo[0] - pad, lo[1] - pad])
        self.scale = CANVAS / (span + 2 * pad)
        self.height = (hi[1] - lo[1] + 2 * pad) * self.scale
        self.width = (hi[0] - lo[0] + 2 * pad) * self.scale

    def pt(self, x):
        return (
            (x[0] - self.lo[0]) * self.scale,
            self.height - (x[1] - self.lo[1]) * self.scale,
        )

    def span(self, w):
        return w * self.scale


def _circle(frame, center, radius, stroke, dash=None):
    cx, cy = frame.pt(center)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(frame.span(radius))}" '
        f'fill="none" stroke="{stroke}" stroke-width="1.5"{extra}/>'
    )


def _rects(frame, lo, hi, fill=None, stroke=None, width=1.0, opacity=None):
    """One line per box lo[k]..hi[k], with frame.pt and frame.span per array."""
    x = (lo[:, 0] - frame.lo[0]) * frame.scale
    y = frame.height - (hi[:, 1] - frame.lo[1]) * frame.scale
    values = np.stack([x, y, frame.span(hi[:, 0] - lo[:, 0]), frame.span(hi[:, 1] - lo[:, 1])])
    attrs = ['x="%.3f" y="%.3f" width="%.3f" height="%.3f"']
    attrs.append(f'fill="{fill}"' if fill else 'fill="none"')
    if opacity is not None:
        attrs.append(f'fill-opacity="{opacity}"')
    if stroke:
        attrs.append(f'stroke="{stroke}" stroke-width="{_fmt(width)}"')
    line = "<rect " + " ".join(attrs) + "/>"
    return _fmt_all("\n".join([line] * len(lo)), values.T.ravel())


def _polyline(frame, points, stroke, width=1.5):
    # frame.pt of every point at once: the same operations in the same order
    xs = (points[:, 0] - frame.lo[0]) * frame.scale
    ys = frame.height - (points[:, 1] - frame.lo[1]) * frame.scale
    coords = _fmt_all(" ".join(["%.3f,%.3f"] * len(points)), np.stack([xs, ys], 1).ravel())
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_fmt(width)}"/>'
    )


def _cells(frame, dec, lattices, **kw):
    if not lattices:
        return []
    lo = dec.anchor + dec.side * np.array(sorted(lattices), dtype=float)
    return [_rects(frame, lo, lo + dec.side, **kw)]


def render_svg(model, families, decs, plan=None, traj=None):
    """Figure with regions, cell sets, goal boxes, and realized paths."""
    if model.dim != 2:
        raise ModelError(f"rendering needs planar agents, model has n={model.dim}")
    los, his = [], []
    for i in model.agent_ids:
        fam = families[i]
        r = fam.base.radius + fam.c_rate * fam.tau
        los.append(fam.base.center - r)
        his.append(fam.base.center + r)
    lo = np.min(np.stack(los), axis=0)
    hi = np.max(np.stack(his), axis=0)
    frame = _Frame(lo, hi)

    body = []
    for i in model.agent_ids:
        dec = decs[i]
        if plan is not None:
            reach = set(map(tuple, plan.reachable[i])) if i in plan.reachable else set()
            sat = set(map(tuple, plan.satisfying[i])) if i in plan.satisfying else set()
            chosen = set(map(tuple, plan.cells[i]))
            body += _cells(frame, dec, reach - sat, fill=REACHABLE_FILL)
            body += _cells(frame, dec, sat - chosen, fill=SATISFYING_FILL)
            body += _cells(frame, dec, chosen, fill=PATH_FILL, opacity="0.85")
        elif len(dec.index_set) <= GRID_DRAW_LIMIT:
            body += _cells(frame, dec, dec.index_set, stroke="#dddddd", width=0.5)
    for i in model.agent_ids:
        body.append(_circle(frame, decs[i].region.center, decs[i].region.radius, REGION_STROKE))
        body.append(_circle(frame, decs[i].inner.center, decs[i].inner.radius, INNER_STROKE, dash="6,4"))
    for i in model.agent_ids:
        for goal in model.agent(i).goals:
            body.append(_rects(frame, np.array([goal.lo]), np.array([goal.hi]),
                               stroke=GOAL_STROKE, width=2.0))
    if traj is not None:
        ids = list(traj.agent_ids)
        for a, i in enumerate(ids):
            body.append(_polyline(frame, traj.states[:, a, :], TRAJ_STROKE))
            sx, sy = frame.pt(traj.states[0, a])
            body.append(
                f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3.000" fill="{START_FILL}"/>'
            )

    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">'
    )
    bg = f'<rect x="0" y="0" width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" fill="#ffffff"/>'
    return "\n".join([head, bg] + body + ["</svg>"]) + "\n"

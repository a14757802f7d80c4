"""Fixed reference work that shares no code with horizon_abs.

    python3 perfbench/calibrate.py

A fresh interpreter imports numpy and runs the kinds of work that fill
the program's commands: many numpy calls on tiny arrays inside a Python
loop (integration steps, per-cell tests) and hashing of integer tuples
in sets (cell indices, planner states).  run.py starts it right
before every command and set-up probe and divides the command's wall
time by it.  On a shared 2-core Xeon VM the speed of the same work moved
by up to 1.6x within minutes; the ratio cancels most of that.
"""

import numpy as np

STEPS = 15000
CELLS = 300


def main():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y = np.array([1.0, 0.0])
    h = 1e-4
    for _ in range(STEPS):
        k1 = a @ y
        k2 = a @ (y + h / 2 * k1)
        y = y + h * k2
        y = y * np.where(np.sqrt(np.sum(y * y)) > 2.0, 0.5, 1.0)
    cells = frozenset((i, j) for i in range(CELLS) for j in range(CELLS))
    hits = sum((i + 1, j) in cells for i in range(CELLS) for j in range(CELLS))
    if not np.isfinite(y).all() or hits != CELLS * (CELLS - 1):
        raise SystemExit(1)


if __name__ == "__main__":
    main()

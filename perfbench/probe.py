"""Set-up probe: the work every horizon-abs command repeats before its own.

A fresh interpreter imports horizon_abs, parses the model, runs
wellposed.synthesize and builds the abstraction (every agent's grid).
run.py times this process from spawn to exit.  The probe prints one
JSON line naming the versions it ran with and where the package came
from, so run.py can refuse an installed copy outside the checkout.

    python3 perfbench/probe.py MODEL.json STEPS I=LAMBDA [I=LAMBDA ...]
"""

import json
import sys


def main(argv):
    import numpy
    import horizon_abs
    from horizon_abs import abstraction, model, wellposed

    path, steps, *lams = argv
    lam = {int(k): float(v) for k, v in (item.split("=") for item in lams)}
    with open(path, "rb") as fh:
        net = model.parse_model(fh.read().decode("utf-8"))
    params = wellposed.synthesize(net, lam=lam, steps=int(steps))
    built = abstraction.build_abstraction(net, params)
    print(json.dumps({
        "package": horizon_abs.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cells": sum(len(dec.index_set) for dec in built.decs.values()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

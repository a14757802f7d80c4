"""Seeded fuzzing of the command line: mutated model files, garbled
expressions, scaled-down speed bounds, plan and trajectory files, and
out-of-range flags.

Every case runs ``cli.main`` in-process.  Whatever the input, the run
must end in a documented exit code (0, or the code of the HorizonError
it raised; argparse usage errors exit 1), print an ``error:`` line when
it fails, and raise no warning.  The draws come from
``np.random.default_rng`` with fixed seeds, so a failing case repeats.
"""

import copy
import json
import math
import re
import warnings

import numpy as np
import pytest

from horizon_abs import cli, integrate
from horizon_abs.model import parse_model

from conftest import FIVE_AGENTS, pair_doc

FIVE_FLAGS = ["--steps", "12", "--lambda", "1=0.35", "--lambda", "5=0.35"]
PAIR_FLAGS = ["--steps", "5", "--lambda", "1=0.55", "--lambda", "2=0.55"]

# replacements for a model field: wrong types, wrong lengths, empty
# containers, non-finite and huge numbers, negative and zero bounds.
# Huge means past the int64 lattice: a radius or bound a few hundred times
# too large is valid input whose grid would not fit in memory.
REPLACEMENTS = [
    None, True, "x", [], {}, [1.0], [[1.0, 2.0]], [1.0, 2.0, 3.0],
    0, -1, -0.5, 0.5, 1.5, 1e300, -1e300, math.nan, math.inf, -math.inf,
]
EXPR_ALPHABET = list("x_ij1234[]()+-*/^., ") + ["sqrt", "exp", "norm", "sin", "0.5", "1e308"]


def run(argv, capsys):
    """Exit code of one in-process command, its stderr, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


def check(argv, capsys, allowed, case):
    code, err, caught = run(argv, capsys)
    assert not caught, (case, caught)
    assert code in allowed, (case, code, err)
    if code:
        assert "error:" in err, (case, err)
    return code


def leaves(doc, path=()):
    """Paths of every value in a JSON document, containers included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from leaves(value, path + (k,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return doc


def write(path, doc):
    path.write_text(json.dumps(doc))  # NaN and Infinity as the JSON extensions
    return path


def test_mutated_five_agent_fields(tmp_path, capsys):
    with open(FIVE_AGENTS) as fh:
        doc = json.load(fh)
    rng = np.random.default_rng(13)
    # the goal boxes hold most leaves; draw the agents' fields as often
    agent_paths = [p for p in leaves(doc["agents"], ("agents",))]
    other_paths = [p for p in leaves(doc) if p and p[0] != "agents"]
    for k in range(60):
        paths = agent_paths if k % 2 else other_paths
        path = paths[rng.integers(len(paths))]
        value = REPLACEMENTS[rng.integers(len(REPLACEMENTS))]
        model = write(tmp_path / f"model{k}.json", mutated(doc, path, value))
        argv = ["abstract", "--model", model, "--out", tmp_path / "out", "--samples", "8"]
        check(argv + FIVE_FLAGS, capsys, {0, 1, 3}, (path, value))


def expression_doc(texts):
    doc = pair_doc()
    doc["agents"][1]["dynamics"] = {"type": "expression", "exprs": texts}
    return doc


def garble_text(text, rng):
    chars = list(text)
    for _ in range(rng.integers(1, 4)):
        op = rng.integers(3)
        at = int(rng.integers(len(chars) + 1))
        if op == 0 and chars:
            del chars[min(at, len(chars) - 1)]
        elif op == 1:
            chars.insert(at, EXPR_ALPHABET[rng.integers(len(EXPR_ALPHABET))])
        elif chars:
            chars[min(at, len(chars) - 1)] = EXPR_ALPHABET[rng.integers(len(EXPR_ALPHABET))]
    return "".join(chars)


def test_garbled_expressions(tmp_path, capsys):
    base = ["x_j1[1] - x_i[1]", "sqrt(norm(x_j1) + 1) * (x_j1[2] - x_i[2])"]
    rng = np.random.default_rng(17)
    for k in range(60):
        texts = [garble_text(t, rng) if rng.random() < 0.7 else t for t in base]
        model = write(tmp_path / f"model{k}.json", expression_doc(texts))
        argv = ["abstract", "--model", model, "--out", tmp_path / "out", "--samples", "16"]
        check(argv + PAIR_FLAGS, capsys, {0, 1, 3}, texts)


def names_a_broken_bound(err):
    """An audit error that names an agent and its realized bound ratio past 1."""
    found = re.search(r"agent \d+\b.*? up to ([^)]+)\) audit:", err)
    return found is not None and float(found.group(1)) > 1


def test_scaled_down_speed_bounds(tmp_path, capsys, monkeypatch):
    """Each agent's M scaled by 0.05 to 0.5, so that saturations bind and
    runs fail their raw check: plan, and validate after a plan.  Every
    run that ends in an audit failure names the agent and the bound
    ratio it reached."""
    saturated = []
    for name in ("rk4_dense", "rk4_endpoint"):
        def counted(rhs, *args, run=getattr(integrate, name)):
            if not hasattr(rhs, "__wrapped__"):  # not a raw run
                saturated.append(name)
            return run(rhs, *args)

        monkeypatch.setattr(integrate, name, counted)
    rng = np.random.default_rng(29)
    audits = []
    for k in range(6):
        doc = pair_doc()
        for agent in doc["agents"]:
            agent["M"] *= float(rng.uniform(0.05, 0.5))
        model = write(tmp_path / f"model{k}.json", doc)
        argv = ["--model", model, "--out", tmp_path / f"out{k}"] + PAIR_FLAGS
        for command, allowed in (("plan", {0, 1, 2, 3}), ("validate", {0, 1, 4})):
            code, err, caught = run([command] + argv, capsys)
            assert not caught and code in allowed, (command, doc, code, err)
            if "audit:" in err:
                audits.append(err)
                assert names_a_broken_bound(err), (command, doc, err)
            if code:
                assert "error:" in err, (command, err)
                break
    assert saturated and audits


@pytest.fixture(scope="module")
def pair_run(tmp_path_factory):
    """A planned, validated pair run: its model path and its artifacts."""
    root = tmp_path_factory.mktemp("fuzz")
    model = write(root / "model.json", pair_doc())
    out = root / "out"
    for command in ("plan", "validate"):
        assert cli.main([command, "--model", str(model), "--out", str(out)] + PAIR_FLAGS) == 0
    return model, (out / "plan.json").read_text(), (out / "trajectory.csv").read_text()


def garble_bytes(text, rng):
    """A truncated copy, or one with a few characters replaced."""
    if rng.random() < 0.4:
        return text[: rng.integers(len(text))]
    chars = list(text)
    for _ in range(rng.integers(1, 6)):
        chars[rng.integers(len(chars))] = "0123456789-.,e[]{}\":x \n"[rng.integers(23)]
    return "".join(chars)


def garble_plan_values(text, rng):
    """A plan document with one value replaced, kept valid JSON."""
    doc = json.loads(text)
    paths = [p for p in leaves(doc) if p]
    path = paths[rng.integers(len(paths))]
    return json.dumps(mutated(doc, path, REPLACEMENTS[rng.integers(len(REPLACEMENTS))]))


def test_garbled_plan_files(pair_run, tmp_path, capsys):
    model, plan_text, _ = pair_run
    rng = np.random.default_rng(19)
    for k in range(30):
        garble = garble_plan_values if k % 2 else garble_bytes
        out = tmp_path / f"out{k}"
        out.mkdir()
        text = garble(plan_text, rng)
        (out / "plan.json").write_text(text)
        for command in ("validate", "render"):
            argv = [command, "--model", model, "--out", out] + PAIR_FLAGS
            check(argv, capsys, {0, 1, 4}, (command, text))


def test_garbled_trajectory_files(pair_run, tmp_path, capsys):
    """chain and render on garbled trajectory files end in a documented
    exit code, and on exit 0 write a follow-on model that parses and a
    figure with no NaN.  render also refuses, with exit 4, times off the
    plan's node grid, such as those of a file cut short."""
    model, plan_text, traj_text = pair_run
    rng = np.random.default_rng(23)
    for k in range(30):
        out = tmp_path / f"out{k}"
        out.mkdir()
        (out / "plan.json").write_text(plan_text)
        text = garble_bytes(traj_text, rng)
        (out / "trajectory.csv").write_text(text)
        for command in ("chain", "render"):
            argv = [command, "--model", model, "--out", out]
            argv += PAIR_FLAGS if command == "render" else []
            allowed = {0, 1, 4} if command == "render" else {0, 1}
            if check(argv, capsys, allowed, (command, text)):
                continue
            if command == "chain":
                parse_model((out / "next_model.json").read_text())
            else:
                assert "nan" not in (out / "figure.svg").read_text().lower(), text


def test_reordered_and_non_finite_trajectories_are_refused(pair_run, tmp_path, capsys):
    """Rows in reverse order once made chain write every agent's initial
    state as its final one, and a NaN state once reached figure.svg; both
    commands now exit 1 and write nothing."""
    model, plan_text, traj_text = pair_run
    header, *rows = traj_text.splitlines()
    cells = rows[5].split(",")
    cells[2] = "nan"
    variants = [rows[::-1], rows[:5] + [",".join(cells)] + rows[6:]]
    for k, lines in enumerate(variants):
        out = tmp_path / f"out{k}"
        out.mkdir()
        (out / "plan.json").write_text(plan_text)
        (out / "trajectory.csv").write_text("\n".join([header] + lines) + "\n")
        for command, artifact in (("chain", "next_model.json"), ("render", "figure.svg")):
            argv = [command, "--model", model, "--out", out]
            argv += PAIR_FLAGS if command == "render" else []
            assert check(argv, capsys, {1}, (command, k)) == 1
            assert not (out / artifact).exists()


def underscored(row):
    """``row`` with a PEP 515 underscore between two digits of its first
    state value, which float() reads as the same number."""
    cells = row.split(",")
    value = cells[2]
    k = next(k for k in range(1, len(value)) if (value[k - 1] + value[k]).isdigit())
    cells[2] = value[:k] + "_" + value[k:]
    assert float(cells[2]) == float(value)
    return ",".join(cells)


def lines(header, rows, sep="\n"):
    return sep.join([header] + rows) + sep


# an edit of a trajectory file and the exit code chain and render give it
TRAJECTORY_EDGES = {
    "crlf": (lambda header, rows: lines(header, rows, "\r\n"), 0),
    "blank-lines": (lambda header, rows: "\n\n" + lines(header, rows, "\n\n") + "\n", 0),
    "whitespace-row": (lambda header, rows: lines(header, rows[:3] + ["  \t"] + rows[3:]), 1),
    "hash-row": (lambda header, rows: lines(header, rows[:3] + ["# note"] + rows[3:]), 1),
    "trailing-comma": (lambda header, rows: lines(header, [row + "," for row in rows]), 1),
    "underscore": (lambda header, rows: lines(header, rows[:-1] + [underscored(rows[-1])]), 1),
}


@pytest.mark.parametrize("edge", sorted(TRAJECTORY_EDGES))
def test_trajectory_file_edges(pair_run, tmp_path, capsys, edge):
    """CRLF line ends and blank lines read as the file the writer wrote.
    A row of only whitespace, a # row, a trailing comma and a PEP 515
    underscore in a value (which float() reads) are refused with exit 1,
    and nothing is written."""
    model, plan_text, traj_text = pair_run
    header, *rows = traj_text.splitlines()
    edit, code = TRAJECTORY_EDGES[edge]
    written = []
    for k, text in enumerate([traj_text, edit(header, rows)]):
        out = tmp_path / f"out{k}"
        out.mkdir()
        (out / "plan.json").write_text(plan_text)
        (out / "trajectory.csv").write_bytes(text.encode())
        for command in ("chain", "render"):
            argv = [command, "--model", model, "--out", out]
            argv += PAIR_FLAGS if command == "render" else []
            assert check(argv, capsys, {code if k else 0}, (edge, command)) == (code if k else 0)
        written.append([
            (out / name).read_bytes() if (out / name).exists() else None
            for name in ("next_model.json", "figure.svg")
        ])
    assert written[1] == (written[0] if code == 0 else [None, None])


def test_trajectory_times_off_the_plan_node_grid_are_refused(pair_run, tmp_path, capsys):
    """Times that start at 0 and increase but are not the closed loop's
    nodes for the plan's dt, m and substeps: every time past 0 shifted,
    one time moved by one ulp, and the last interval dropped.  chain, which
    reads no plan, accepts them; render exits 4 and writes nothing."""
    model, plan_text, traj_text = pair_run
    header, *rows = traj_text.splitlines()
    agents = len({row.split(",")[1] for row in rows})

    def retimed(shift):
        out = []
        for row in rows:
            t, rest = row.split(",", 1)
            out.append(f"{shift(float(t))!r},{rest}")
        return out

    last = float(rows[-1].split(",", 1)[0])
    substeps = json.loads(plan_text)["substeps"]
    variants = [
        retimed(lambda t: t + 1e-3 if t else t),
        retimed(lambda t: math.nextafter(t, math.inf) if t == last else t),
        rows[: len(rows) - substeps * agents],
    ]
    for k, lines in enumerate(variants):
        out = tmp_path / f"out{k}"
        out.mkdir()
        (out / "plan.json").write_text(plan_text)
        (out / "trajectory.csv").write_text("\n".join([header] + lines) + "\n")
        assert check(["chain", "--model", model, "--out", out], capsys, {0}, k) == 0
        argv = ["render", "--model", model, "--out", out] + PAIR_FLAGS
        code, err, _ = run(argv, capsys)
        assert code == 4 and "not the closed-loop nodes of plan.json" in err, (k, err)
        assert not (out / "figure.svg").exists()


OUT_OF_RANGE = {
    "--substeps": ["0", "-1", "-100", "x", "1.5", ""],
    "--integ-tol": ["0", "-1e-8", "nan", "inf", "-inf", "x"],
    "--margin": ["nan", "inf", "-inf", "-0.5", "0", "1.5", "x"],
    "--budget": ["0", "-3", "x", "2.5"],
    "--cap": ["0", "-1", "x", "1e6"],
}


@pytest.mark.parametrize("flag", sorted(OUT_OF_RANGE))
def test_out_of_range_flags(flag, pair_run, tmp_path, capsys):
    """An out-of-range value is a usage error (exit 1); a margin past 1
    asks for more than the open bounds allow (exit 3, infeasible)."""
    model, _, _ = pair_run
    for value in OUT_OF_RANGE[flag]:
        out = tmp_path / "out"
        argv = ["plan", "--model", model, "--out", out, f"{flag}={value}"] + PAIR_FLAGS
        allowed = {1, 3} if flag == "--margin" else {1}
        check(argv, capsys, allowed, (flag, value))
        assert not (out / "plan.json").exists(), (flag, value)

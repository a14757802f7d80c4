"""The benchmark's artifacts keep their bytes.

The full pipeline abstract -> plan -> validate -> render -> chain runs
in-process with the arguments perfbench/run.py gives each workload, and
every artifact's sha256 is checked against the hashes recorded in
BENCH_13.json.  A change that moves bits updates the hashes here and
says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from horizon_abs import cli

from conftest import FIVE_AGENTS, ring_workloads

EXPECTED = {
    ("five_agents", 100): {
        "bounds.json": "d0145b8fe5ff26b9c09ec9d53d932d455eb604ac3757bc82c5730a324df46d96",
        "discretization.json": "b4ea9aeeb1ee9849a6dea67ddc385101a511616453dfaf3e68c180a03d754800",
        "figure.svg": "68139c730c656b60ee75653dd50e953a9e8c375aba5f396cc828eeb025102864",
        "next_model.json": "b5a8461ccf4226e23dff8a6139289e391fa0f18d471c542a98b0fed4757b31bd",
        "plan.json": "01555291a7a6c27406f3836e56840cf1e2cf4fabbba0935662950e76a04cfd41",
        "synth_log.json": "2dbd7d0ceb5746a3859d4e80b70622e2cdd040b5377867108f149163cdd2ecef",
        "trajectory.csv": "bd3b80bdbd0921540520f4e461e343ddeb2e4c955ff2881b4a9774dd42d3900e",
        "validation.json": "8f9fe112699fd81240e7d696ed502a5a513e8011004c33d2a36cdd44f3aa350d",
    },
    ("ring_product", 100): {
        "bounds.json": "9a94018f8887ff350f5fb6c5b077e4a6ba1083787ae6071f98e6c238226ad6e4",
        "discretization.json": "ff80aa46bf0cb0ec61b976c2c486b71ed3aabf6c581f625d9c22ae095d7ee800",
        "figure.svg": "05208aa00bfae694e021af1e782cb91548b099e378e05b6539799ac2404b53f7",
        "next_model.json": "fe69fc3eccc307fd4a92d5b720fa4912a0a65eb58da9010279a6b4ce848f08c4",
        "plan.json": "f74fe21069d47621ef5939b316943aa3627e61e82fa667d05a51eee94d6177b7",
        "synth_log.json": "4938011e67b653793a3f3daabf0c7f3358b50baed1a3d9ca6a0d5d941229fb9b",
        "trajectory.csv": "72150990d0542d5dcfa01135537226251ae03f3c82353a9cb5c371502956a116",
        "validation.json": "13669ca4338a20192e176d4597972f56dc31c03909c73b101d70358a332d50b4",
    },
    ("ring_product", 105): {
        "bounds.json": "1718a0607954c40f62ed63cef87ae22bf1bdc5c609b9ff76bae13dc61a5b3952",
        "discretization.json": "ff80aa46bf0cb0ec61b976c2c486b71ed3aabf6c581f625d9c22ae095d7ee800",
        "figure.svg": "c7ded214609587e79fcacc2a470146ada0789f4b0f3a00da2a2b78a15fe90298",
        "next_model.json": "23814572d3fb9bf1ea5b5075b75b3678e392faceb2117fda3c3b112ed3445043",
        "plan.json": "b3e97dbfb55c0b53d41b9a50cc5e9ffd468389ecc6c21bfeab5169887980ab2c",
        "synth_log.json": "0dcebc419a1b1b67dba2b7874d9f57243b72c408d9b945d1152a2528e2f5daa5",
        "trajectory.csv": "b30699d95151b47df250b0aa301bfd12cf2154c2cbe21a14396183cc2a90dbea",
        "validation.json": "d1aac1b0d47a9847703313e9d9be96248ab0ec8a5d42d34a3678b2f67a33a18a",
    },
}


def workload(name, seed, tmp_path):
    """Model path, shared flags and plan strategy of a benchmark workload,
    with the ring model generated as perfbench/run.py generates it."""
    workloads = ring_workloads()
    if name == "five_agents":
        return FIVE_AGENTS, workloads.FIVE_AGENTS_FLAGS, "cascade"
    skeleton = workloads.ring_skeleton()
    skeleton_path = tmp_path / "ring_skeleton.json"
    skeleton_path.write_text(json.dumps(skeleton, indent=2, sort_keys=True) + "\n")
    gen = tmp_path / "gen"
    flags = workloads.RING_FLAGS
    assert cli.main(["abstract", "--model", str(skeleton_path), "--out", str(gen)] + flags) == 0
    disc = json.loads((gen / "discretization.json").read_text())
    doc = workloads.ring_model(skeleton, disc, seed)
    path = tmp_path / "ring_product.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path), flags, "auto"


@pytest.mark.parametrize("name, seed", sorted(EXPECTED))
def test_pipeline_artifacts_keep_their_bytes(name, seed, tmp_path, capsys):
    model, flags, strategy = workload(name, seed, tmp_path)
    out = tmp_path / "out"
    for command in ("abstract", "plan", "validate", "render", "chain"):
        args = [command, "--model", model, "--out", str(out)] + flags
        if command == "abstract":
            args += ["--seed", str(seed)]
        if command == "plan":
            args += ["--strategy", strategy]
        assert cli.main(args) == 0, (command, capsys.readouterr().err)
    hashes = {
        artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        for artifact in EXPECTED[(name, seed)]
    }
    assert hashes == EXPECTED[(name, seed)]

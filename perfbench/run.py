"""mapflow benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {scan,nucleus,embed} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark runs the checkout's own
src/ (put first on PYTHONPATH) and writes only under .perfbench_work/.

--trace 0 (end to end): the median wall time of a fresh process that imports
mapflow.cli and builds the workload's model and site (setup_s), then a closed
loop with one client that alternates --workers 1 and --workers 2 runs of the
real CLI (`python -m mapflow.cli ...`) for S seconds.  Each run is checked:
the CLI must exit 0, its outputs must pass the workload's checks and its CSV
bytes must equal those of the first run at either worker count.

--trace 1 (per layer): untraced --workers 1 runs alternate with runs of the
same commands through mapflow.cli.run under span tracing (probe.py trace),
after untraced micro-benchmarks of the map step and the field X_m.

The last line of stdout is the JSON result; metric names and units come from
BENCHMARK.json.  See perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")

#: fresh processes timed for setup_s; the median is reported
SETUP_REPS = 3
#: every child is killed after this many seconds from the benchmark's start,
#: so that a hung run still ends the benchmark within its 180-second limit
HARD_LIMIT_S = 165.0


class Run:
    """One child process: wall time, CPU time with its children, peak RSS."""

    def __init__(self, argv: list[str], env: dict, deadline: float, log: str):
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=fh,
                                    start_new_session=True)
            lock, reaped = threading.Lock(), [False]

            def kill():
                with lock:
                    if not reaped[0]:
                        os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(1.0, deadline - time.perf_counter()), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                with lock:
                    reaped[0] = True
                timer.cancel()
            self.wall = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(log, errors="replace") as fh:
            self.log = fh.read()[-2000:]


class Bench:
    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.work = work
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
        cfg_dir = os.path.join(work, "configs")
        os.makedirs(cfg_dir)
        self.commands = workloads.write_configs(workload, seed, cfg_dir)
        # the field micro-benchmarks use the embed block on every workload
        self.embed_config = os.path.join(cfg_dir, "embed-micro.json")
        with open(self.embed_config, "w") as fh:
            json.dump(workloads.embed_error_config(seed), fh)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}
        self.nrun = 0

    def _child(self, argv: list[str]) -> Run:
        self.nrun += 1
        return Run([sys.executable] + argv, self.env, self.deadline,
                   os.path.join(self.work, f"log{self.nrun}.txt"))

    def probe(self, mode: str, *args: str) -> tuple[Run, dict]:
        """Run probe.py; a failed probe ends the benchmark without a result."""
        out_json = os.path.join(self.work, f"probe{self.nrun + 1}.json")
        run = self._child([os.path.join(HERE, "probe.py"), mode, out_json, *args])
        if not os.path.exists(out_json):
            raise SystemExit(f"probe {mode} failed (exit {run.code}):\n{run.log}")
        with open(out_json) as fh:
            return run, json.load(fh)

    def _verify(self, command: str, workers: int, code: int, out: str, log: str) -> None:
        """Check one CLI invocation; records and counts a failure."""
        self.attempted += 1
        problems = [f"{command}: exit {code}: {log.strip()[-300:]}"] if code != 0 else []
        if not problems:
            problems = workloads.check_output(command, out)
        for name in sorted(f for f in os.listdir(out) if f.endswith(".csv")):
            with open(os.path.join(out, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            ref = self.reference.setdefault(name, digest)
            if digest != ref:
                problems.append(f"{name} at --workers {workers} differs from the first run")
        shutil.rmtree(out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def cli_op(self, workers: int) -> dict:
        """One untraced run of the workload: each command as a fresh CLI process."""
        wall = cpu = rss = 0.0
        for command, config in self.commands:
            out = os.path.join(self.work, f"out{self.nrun + 1}")
            run = self._child(["-m", "mapflow.cli", command, "--config", config,
                               "--out", out, "--workers", str(workers)])
            os.makedirs(out, exist_ok=True)
            self._verify(command, workers, run.code, out, run.log)
            wall, cpu, rss = wall + run.wall, cpu + run.cpu, max(rss, run.rss_mb)
        print(f"# {self.workload} w{workers}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
              f"peak rss {rss:.1f} MB", flush=True)
        return {"wall": wall, "cpu": cpu, "rss": rss}

    def traced_op(self) -> tuple[float, dict]:
        """One traced run of the workload at --workers 1; returns wall and summary."""
        wall, summaries = 0.0, []
        for command, config in self.commands:
            out = os.path.join(self.work, f"out{self.nrun + 1}")
            run, summ = self.probe("trace", command, config, out)
            os.makedirs(out, exist_ok=True)
            self._verify(command, 1, summ["exit"], out, run.log)
            wall += run.wall
            summaries.append(summ)
        print(f"# {self.workload} traced w1: wall {wall:.3f} s, "
              f"{sum(s['spans'] for s in summaries)} spans", flush=True)
        return wall, tracer.merge(summaries)

    def loop(self, kinds: dict, seconds: float) -> dict:
        """Closed loop, one client: run each kind in turn for `seconds`.

        Every kind runs at least once; after that the loop stops before a
        run whose median duration so far would carry it past the deadline.
        """
        results: dict = {k: [] for k in kinds}
        durations: dict = {k: [] for k in kinds}
        stop = time.perf_counter() + seconds
        while True:
            for kind, fn in kinds.items():
                if all(results.values()) and (
                        time.perf_counter() + statistics.median(durations[kind]) > stop
                        or time.perf_counter() > self.deadline - 20.0):
                    return results
                t0 = time.perf_counter()
                results[kind].append(fn())
                durations[kind].append(time.perf_counter() - t0)


def print_machine(versions: dict) -> None:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    # only the checkout's own repository: git would otherwise search parent directories
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    record = {"nproc": os.cpu_count(), "cpu_model": cpu, **versions, "commit": commit}
    print("# machine " + json.dumps(record), flush=True)


def end_to_end(bench: Bench, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        run, result = bench.probe("setup", *(c for _, c in bench.commands))
        setups.append(run.wall)
    print_machine(result["versions"])
    res = bench.loop({1: lambda: bench.cli_op(1), 2: lambda: bench.cli_op(2)}, seconds)
    med = lambda w, key: statistics.median(r[key] for r in res[w])  # noqa: E731
    return {
        "wall_s": med(1, "wall"),
        "wall_w2_s": med(2, "wall"),
        "cpu_s": med(1, "cpu"),
        "cpu_w2_s": med(2, "cpu"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med(1, "rss"),
        "ok_rate": (bench.attempted - bench.failed) / bench.attempted,
    }


#: per-layer counts with a closed form when the benchmark was added, by workload
def analytic_counts(workload: str) -> dict:
    W = workloads
    if workload == "scan":
        return {"experiments.stability_scan.seed_steps":
                W.SCAN_SEEDS * W.SCAN_HORIZON + W.PILOT_SEEDS * W.PILOT_HORIZON}
    if workload == "nucleus":
        return {"maps.step_arrays.calls": W.NUCLEUS_BUDGET}  # budget x site.n, n = 1
    return {f"interp.map_calls_per_field.m{m}": 2 * m for m in W.EMBED_M} | {
        "hamiltonian.embedding_error.map_calls_per_point": 2}


def per_layer(bench: Bench, seconds: float, units: dict) -> dict:
    t0 = time.perf_counter()
    _, micro = bench.probe("micro", bench.commands[0][1], bench.embed_config)
    print_machine(micro.pop("versions"))
    res = bench.loop({"plain": lambda: bench.cli_op(1), "traced": bench.traced_op},
                     max(0.0, seconds - (time.perf_counter() - t0)))
    reps = [tracer.layer_metrics(merged) for _, merged in res["traced"]]
    by_m = [tracer.map_calls_per_field_by_m(merged) for _, merged in res["traced"]]
    # counts must repeat exactly between traced runs of the same inputs
    count_names = {k for k, unit in units.items() if unit in ("count", "ratio")}
    counts = [{k: v for k, v in r.items() if k in count_names} for r in reps]
    print(f"# counts repeat across {len(counts)} traced runs: "
          f"{all(c == counts[0] for c in counts) and all(b == by_m[0] for b in by_m)}")
    seen = dict(reps[0]) | {f"interp.map_calls_per_field.m{m}": v
                            for m, v in by_m[0].items()}
    for name, want in analytic_counts(bench.workload).items():
        got = seen.get(name)
        print(f"# count {name} = {got} (closed form when the benchmark was added: {want})"
              f"{'' if got == want else '  DIFFERS'}")
    first = res["traced"][0][1]
    print(f"# traced bindings: {', '.join(first['bindings'])}")
    if first["missing"]:
        print(f"# not traced, absent from the program: {', '.join(first['missing'])}")
    # counts from the first traced run, times as medians over all of them
    metrics = {k: v if k in count_names else statistics.median(r[k] for r in reps)
               for k, v in reps[0].items()}
    metrics.update(micro)
    metrics["trace_overhead_s"] = (statistics.median(w for w, _ in res["traced"])
                                   - statistics.median(r["wall"] for r in res["plain"]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "mapflow", "cli.py")):
        print(f"no mapflow sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            values = per_layer(bench, args.seconds, {m["name"]: m["unit"] for m in wanted})
        else:
            values = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems:
        print(f"# FAILED {problem}")
    unmeasured = [m["name"] for m in wanted if m["name"] not in values]
    if unmeasured:
        print(f"# not measured, reported as 0: {', '.join(unmeasured)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    for name, rec in metrics.items():
        print(f"# {name} = {rec['value']:.6g} {rec['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

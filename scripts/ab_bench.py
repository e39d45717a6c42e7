#!/usr/bin/env python3
"""Paired A/B timing of the CLI for two source trees, with an A/A control.

Runs the commands of perfbench's workloads (`scan`, `nucleus`, `embed`; the
configs come from `perfbench/workloads.py` of this checkout, at one seed)
as fresh `python -m mapflow.cli` processes, each tree's `src/` first on
PYTHONPATH.  Every round runs one A/B pair and one A/A' pair, where A' is a
copy of A's `src/` made for the run; the order within the pairs alternates
from round to round (A B, A A'; then B A, A' A; ...), so that a drift of
host speed or a first-run penalty touches both sides alike.  A run is the
workload's commands in turn: wall time and CPU time (user + system of the
child and its children, from `wait4`) are summed over them, peak RSS is
their largest.  Every run must exit 0 and write the same CSV bytes as the
first run of the workload, on either tree.

For each metric it prints the median and quartiles of each side, the median
of the paired ratios B/A with a distribution-free interval (order statistics
of the ratios, sign-test style, at least 95 % coverage), the pairs B won,
and the same median and interval for A'/A.  A change counts as resolved
only when its interval clears the A/A one.

    python scripts/ab_bench.py --a PARENT --b CHANGE [--workload nucleus]
        [--pairs 12] [--seed 1] [--workers 1] [--json out.json]

PARENT and CHANGE are checkouts (or their `src/` directories).  Run it on
an otherwise idle machine; it starts one process at a time.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (perfbench's seeded configs)

METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
#: coverage the order-statistic interval must reach
COVERAGE = 0.95


def source_dir(path: str) -> str:
    """The directory holding the `mapflow` package: path/src or path."""
    for cand in (os.path.join(path, "src"), path):
        if os.path.isfile(os.path.join(cand, "mapflow", "__init__.py")):
            return os.path.abspath(cand)
    raise SystemExit(f"no mapflow package under {path}")


def environment(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def check_import(src: str) -> None:
    """The child processes of a tree must import mapflow from it."""
    got = subprocess.run([sys.executable, "-c", "import mapflow; print(mapflow.__file__)"],
                         env=environment(src), capture_output=True, text=True, check=True)
    if not os.path.abspath(got.stdout.strip()).startswith(src + os.sep):
        raise SystemExit(f"{src}: mapflow imports from {got.stdout.strip()}")


def run_once(src: str, commands, workers: int, work: str) -> tuple[dict, dict]:
    """One run of a workload's commands; returns its metrics and CSV digests."""
    wall = cpu = rss = 0.0
    digests = {}
    for command, config in commands:
        out = tempfile.mkdtemp(dir=work)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mapflow.cli", command, "--config",
                                 config, "--out", out, "--workers", str(workers)],
                                env=environment(src), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall += time.perf_counter() - t0
        proc.stderr.close()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise SystemExit(f"{src}: {command} exited {code}:\n{err.decode()[-2000:]}")
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss / 1024.0)
        for name in sorted(f for f in os.listdir(out) if f.endswith(".csv")):
            with open(os.path.join(out, name), "rb") as fh:
                digests[f"{command}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
        shutil.rmtree(out)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}, digests


def order_interval(values, coverage: float = COVERAGE) -> tuple[float, float, float]:
    """Order statistics (v_(k), v_(n+1-k)) around the median of n values,
    with the largest k whose sign-test coverage 1 - 2 P(Bin(n, 1/2) < k) is
    at least ``coverage``; returns (low, high, coverage reached).  With too
    few values for that coverage, the interval is the whole range (k = 1)."""
    v, n = sorted(map(float, values)), len(values)

    def reached(k):
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(k)) / 2.0**n

    k = 1
    while k < (n + 1) // 2 and reached(k + 1) >= coverage:
        k += 1
    return v[k - 1], v[n - k], reached(k)


def summary(a, b, a2, aa) -> dict:
    """Per-side median and quartiles, the paired ratios b/a and aa/a2 with
    their intervals, the wins of b (lower is better for every metric here),
    and whether b's median gain exceeds a's interquartile range."""
    a, b, a2, aa = (np.asarray(x, dtype=float) for x in (a, b, a2, aa))
    ratio, control = b / a, aa / a2
    lo, hi, cov = order_interval(ratio)
    clo, chi, _ = order_interval(control)
    verdict = "lower" if hi < clo else "higher" if lo > chi else "unresolved"
    qa, qb = (np.percentile(x, [25, 50, 75]).tolist() for x in (a, b))
    return {"a": list(map(float, a)), "b": list(map(float, b)),
            "a_control": list(map(float, a2)), "aa": list(map(float, aa)),
            "a_q1_med_q3": qa, "b_q1_med_q3": qb,
            "gain_exceeds_a_iqr": qa[1] - qb[1] > qa[2] - qa[0],
            "ratio_median": float(np.median(ratio)), "ratio_interval": [lo, hi],
            "coverage": cov, "b_wins": int(np.sum(b < a)), "pairs": len(a),
            "aa_ratio_median": float(np.median(control)), "aa_ratio_interval": [clo, chi],
            "verdict": verdict}


def bench(workload: str, trees: dict, pairs: int, seed: int, workers: int, work: str) -> dict:
    cfg_dir = tempfile.mkdtemp(dir=work)
    commands = workloads.write_configs(workload, seed, cfg_dir)
    runs = {side: [] for side in trees}
    reference = None
    for r in range(pairs):
        order = ["a", "b", "a", "aa"] if r % 2 == 0 else ["b", "a", "aa", "a"]
        for side in order:
            metrics, digests = run_once(trees[side], commands, workers, work)
            reference = reference or digests
            if digests != reference:
                raise SystemExit(f"{workload}: CSV bytes of tree {side} differ from the first run")
            runs[side].append(metrics)
        print(f"# {workload} round {r + 1}/{pairs}: "
              + ", ".join(f"{s} {runs[s][-1]['wall_s']:.3f} s" for s in ("a", "b", "aa")),
              flush=True)
    # the two A runs of a round: the first pairs with B, the second with A'
    a_b, a_aa = runs["a"][0::2], runs["a"][1::2]
    result = {"commands": [c for c, _ in commands], "seed": seed, "workers": workers}
    for m in METRICS:
        result[m] = summary(*([x[m] for x in side] for side in (a_b, runs["b"], a_aa, runs["aa"])))
    return result


def report(workload: str, res: dict) -> None:
    print(f"\n{workload} ({' + '.join(res['commands'])}, seed {res['seed']}, "
          f"--workers {res['workers']}); CSV bytes identical on both trees")
    print(f"{'metric':<12} {'A median [q1, q3]':>26} {'B median [q1, q3]':>26} "
          f"{'B/A [interval]':>24} {'wins':>6} {'A/A [interval]':>24}  verdict, gain > A IQR")
    for m in METRICS:
        s = res[m]
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"  # noqa: E731
        lo, hi = s["ratio_interval"]
        clo, chi = s["aa_ratio_interval"]
        print(f"{m:<12} {fmt(s['a_q1_med_q3']):>26} {fmt(s['b_q1_med_q3']):>26} "
              f"{s['ratio_median']:>7.3f} [{lo:.3f}, {hi:.3f}] {s['b_wins']:>3}/{s['pairs']:<2} "
              f"{s['aa_ratio_median']:>7.3f} [{clo:.3f}, {chi:.3f}]  {s['verdict']}, "
              f"{'yes' if s['gain_exceeds_a_iqr'] else 'no'}")
    print(f"(intervals: order statistics of the paired ratios, coverage "
          f"{res['wall_s']['coverage']:.3f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", required=True, help="baseline checkout or src/ directory")
    parser.add_argument("--b", required=True, help="changed checkout or src/ directory")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="repeat for several; default: all three")
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--json", help="write every run and summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.workers < 1:
        parser.error("--pairs and --workers must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as work:
        trees = {"a": source_dir(args.a), "b": source_dir(args.b)}
        trees["aa"] = os.path.join(work, "a_copy")
        shutil.copytree(trees["a"], trees["aa"],
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for src in trees.values():
            check_import(src)
        out = {"host": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count()},
               "a": trees["a"], "b": trees["b"], "pairs": args.pairs, "workloads": {}}
        for workload in args.workload or list(workloads.WORKLOADS):
            res = bench(workload, trees, args.pairs, args.seed, args.workers, work)
            out["workloads"][workload] = res
            report(workload, res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

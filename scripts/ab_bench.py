#!/usr/bin/env python3
"""Paired A/B timing of the CLI for two source trees, with an A/A control.

Runs the commands of perfbench's workloads (`scan`, `nucleus`, `embed`; the
configs come from `perfbench/workloads.py` of this checkout, at one seed)
as fresh `python -m mapflow.cli` processes, each tree's `src/` first on
PYTHONPATH.  Every round runs one A/B pair and one A/A' pair.  The three
sides run from copies made for the run in its temp dir, under paths of one
length: A's `src/` twice (A and A') and B's `src/` once.  A tree's
location is then the same for all three: the same `src/` read a peak RSS
up to 0.45 MB apart when run in place from three directories.  The order
within the pairs alternates from round to round (A B, A A'; then B A,
A' A; ...), so that a drift of host speed or a first-run penalty touches
both sides alike.  A run is the
workload's commands in turn: wall time and CPU time (user + system of the
child and its children, from `wait4`) are summed over them, peak RSS is
their largest.  Every run must exit 0 and write the same CSV bytes as the
first run of the workload, on either tree.  Each run of a workload is
followed by its setup row (`setup_s`): the wall time of a fresh interpreter
that imports `mapflow.cli`, validates the workload's configs and builds
their model and site, which is what perfbench's setup probe times, without
the probe's scipy import.  The harness itself loads no
numpy: Linux carries the RSS high-water mark of the forking process into
its child's `ru_maxrss`, so a larger harness would floor every peak RSS.

With --tier1 it also times the Tier-1 suite in the same ABBA rounds: each
side runs its own checkout's Tier-1 command (`python -m pytest -q
--continue-on-collection-errors` in the checkout itself, its `src/` first
on PYTHONPATH), A' is a second run of A, and every run must pass.

For each metric it prints the median and quartiles of each side, the median
of the paired ratios B/A with a distribution-free interval (order statistics
of the ratios, sign-test style, at least 95 % coverage), the pairs B won,
and the same median and interval for A'/A.  A change counts as resolved
only when its interval clears the A/A one.  A peak-RSS verdict within
about 1 % is not evidence by itself: two trees that differ only by a
comment have read 0.2-0.3 MB apart on `nucleus`, in either direction from
one invocation to the next, while A/A' read equal (see ROADMAP.md,
Housekeeping); repeat such a verdict with --a and --b swapped.

    python scripts/ab_bench.py --a PARENT --b CHANGE [--workload nucleus]
        [--tier1] [--pairs 12] [--seed 1] [--workers 1] [--json out.json]

PARENT and CHANGE are checkouts (or their `src/` directories; --tier1 needs
checkouts).  With --tier1 and no --workload only the suite runs.  Run it on
an otherwise idle machine; it starts one process at a time.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (perfbench's seeded configs)

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
#: the setup row's child: argv[1:] are COMMAND=CONFIG pairs
SETUP = """import json, sys
import mapflow.cli as cli
for arg in sys.argv[1:]:
    command, path = arg.split("=", 1)
    with open(path) as fh:
        cfg = json.load(fh)
    model = cli.build_model(cfg)
    cli.validate(command, cfg, model)
    if "site" in cfg[command]:
        cli.build_site(model, cfg[command]["site"])
"""
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


def timed(argv: list, src: str, cwd=None) -> tuple[dict, bytes]:
    """Run argv to exit 0 with the tree's `src/` first on PYTHONPATH; returns
    its wall, CPU and peak RSS and what it printed (stdout and stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=environment(src), cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{src}: {' '.join(argv[1:4])} exited {code}:\n{out.decode()[-2000:]}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}, out


def run_once(src: str, commands, workers: int, work: str) -> tuple[dict, dict]:
    """One run of a workload's commands; returns its metrics and CSV digests."""
    wall = cpu = rss = 0.0
    digests = {}
    for command, config in commands:
        out = tempfile.mkdtemp(dir=work)
        m, _ = timed([sys.executable, "-m", "mapflow.cli", command, "--config", config,
                      "--out", out, "--workers", str(workers)], src)
        wall, cpu, rss = wall + m["wall_s"], cpu + m["cpu_s"], max(rss, m["peak_rss_mb"])
        for name in sorted(f for f in os.listdir(out) if f.endswith(".csv")):
            with open(os.path.join(out, name), "rb") as fh:
                digests[f"{command}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
        shutil.rmtree(out)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}, digests


def setup_once(src: str, commands) -> float:
    """Wall time of one setup row: a fresh interpreter running SETUP on the
    workload's (command, config) pairs."""
    m, _ = timed([sys.executable, "-c", SETUP, *(f"{c}={p}" for c, p in commands)], src)
    return m["wall_s"]


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
    ratio, control = [y / x for x, y in zip(a, b)], [y / x for x, y in zip(a2, aa)]
    lo, hi, cov = order_interval(ratio)
    clo, chi, _ = order_interval(control)
    verdict = "lower" if hi < clo else "higher" if lo > chi else "unresolved"
    qa, qb = (statistics.quantiles(x, n=4, method="inclusive") if len(x) > 1 else 3 * x
              for x in (a, b))
    return {"a": a, "b": b, "a_control": a2, "aa": aa, "a_q1_med_q3": qa, "b_q1_med_q3": qb,
            "gain_exceeds_a_iqr": qa[1] - qb[1] > qa[2] - qa[0],
            "ratio_median": statistics.median(ratio), "ratio_interval": [lo, hi],
            "coverage": cov, "b_wins": sum(y < x for x, y in zip(a, b)), "pairs": len(a),
            "aa_ratio_median": statistics.median(control), "aa_ratio_interval": [clo, chi],
            "verdict": verdict}


def rounds(label: str, run, pairs: int) -> dict:
    """``pairs`` ABBA rounds of run(side), side in a, b and aa; the summary of each metric."""
    runs = {side: [] for side in ("a", "b", "aa")}
    for r in range(pairs):
        for side in ["a", "b", "a", "aa"] if r % 2 == 0 else ["b", "a", "aa", "a"]:
            runs[side].append(run(side))
        print(f"# {label} round {r + 1}/{pairs}: "
              + ", ".join(f"{s} {runs[s][-1]['wall_s']:.3f} s" for s in ("a", "b", "aa")),
              flush=True)
    # the two A runs of a round: the first pairs with B, the second with A'
    a_b, a_aa = runs["a"][0::2], runs["a"][1::2]
    return {m: summary(*([x[m] for x in side] for side in (a_b, runs["b"], a_aa, runs["aa"])))
            for m in METRICS if m in runs["a"][0]}


def bench(workload: str, trees: dict, pairs: int, seed: int, workers: int, work: str) -> dict:
    cfg_dir = tempfile.mkdtemp(dir=work)
    commands = workloads.write_configs(workload, seed, cfg_dir)
    reference = None

    def run(side):
        nonlocal reference
        metrics, digests = run_once(trees[side], commands, workers, work)
        reference = reference or digests
        if digests != reference:
            raise SystemExit(f"{workload}: CSV bytes of tree {side} differ from the first run")
        return {**metrics, "setup_s": setup_once(trees[side], commands)}

    return {"commands": [c for c, _ in commands], "seed": seed, "workers": workers,
            **rounds(workload, run, pairs)}


def bench_tier1(sources: dict, pairs: int) -> dict:
    """The Tier-1 suite of each side's checkout; A' runs A's again."""
    srcs = {"a": sources["a"], "b": sources["b"], "aa": sources["a"]}
    for src in srcs.values():
        if not os.path.isdir(os.path.join(src, os.pardir, "tests")):
            raise SystemExit(f"--tier1: no tests/ next to {src}")
    summaries = {}

    def run(side):
        metrics, out = timed([sys.executable, "-m", "pytest", "-q",
                              "--continue-on-collection-errors"], srcs[side],
                             cwd=os.path.dirname(srcs[side]))
        summaries.setdefault(side, out.decode().strip().splitlines()[-1])
        return metrics

    return {**rounds("tier1", run, pairs), "suites": summaries}


def report(title: str, res: dict) -> None:
    print(f"\n{title}")
    print(f"{'metric':<12} {'A median [q1, q3]':>26} {'B median [q1, q3]':>26} "
          f"{'B/A [interval]':>24} {'wins':>6} {'A/A [interval]':>24}  verdict, gain > A IQR")
    for m in (m for m in METRICS if m in res):
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
                        help="repeat for several; default: all three, or none with --tier1")
    parser.add_argument("--tier1", action="store_true",
                        help="also time each checkout's Tier-1 suite")
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--json", help="write every run and summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.workers < 1:
        parser.error("--pairs and --workers must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as work:
        sources = {"a": source_dir(args.a), "b": source_dir(args.b)}
        trees = {}
        for side, name in (("a", "src_a"), ("b", "src_b"), ("aa", "src_c")):
            trees[side] = os.path.join(work, name)
            shutil.copytree(sources[side[0]], trees[side],
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            check_import(trees[side])
        out = {"host": {"python": platform.python_version(), "numpy": version("numpy"),
                        "machine": platform.machine(), "cpus": os.cpu_count()},
               "a": sources["a"], "b": sources["b"], "pairs": args.pairs, "workloads": {}}
        for workload in args.workload or ([] if args.tier1 else list(workloads.WORKLOADS)):
            res = bench(workload, trees, args.pairs, args.seed, args.workers, work)
            out["workloads"][workload] = res
            report(f"{workload} ({' + '.join(res['commands'])}, seed {res['seed']}, "
                   f"--workers {res['workers']}); CSV bytes identical on both trees", res)
        if args.tier1:
            out["tier1"] = res = bench_tier1(sources, args.pairs)
            report("tier1 (each checkout's suite; every run passed): "
                   + "; ".join(f"{s} {res['suites'][s]}" for s in ("a", "b")), res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

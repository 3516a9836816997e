"""Benchmark of the threshmem command-line chain: dataset, build, eval.

    python3 bench/run.py --workload distance-2048 --seed 1 --seconds 35 --trace 0

Run from the repository root. A run first times the set-up, a fresh
process (bench/chain.py) that imports the program from ./src and runs the
workload's chain at toy size, SETUP_SAMPLES times. Then one more such
process sets up and runs the workload's full chain in rounds: the dataset
command, `build` and `eval`, each through threshmem.cli.main. Rounds repeat
on the same inputs, all derived from --seed, until the next one would end
more than --seconds after the run began. Then the outputs are checked and
one JSON line is printed:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; timed metrics are medians over the rounds, and setup_s is
the median over the SETUP_SAMPLES + 1 set-ups. One CLI command is one
operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from chain import COUNTS, SRC, TIMED, ChainFailed, Files, Workload, seeds, spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "distance-2048": Workload("generate", "distance", 2048, 64, 0.1),
    # lowerbound takes ~8 ms, too short for one timing to be steady
    "clustered-256": Workload("lowerbound", "distance", 256, 16, 0.03,
                              dataset_repeats=5, replay=True),
    "angular-4096": Workload("generate", "angular", 4096, 32, 0.25),
}

#: Set-up-only processes per run, besides the set-up of the measuring one.
SETUP_SAMPLES = 4

#: Points the independent evaluator checks.
EVAL_SUBSET = 256

#: A child process (set-up, rounds or replayed build) that takes longer has
#: hung.
CHILD_TIMEOUT = 170

#: One BLAS/OpenMP thread: the machine is small and shared.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child(argv, **env) -> subprocess.CompletedProcess:
    full_env = dict(os.environ, **{v: "1" for v in THREAD_VARS}, **env)
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, env=full_env)


def run_chain(*argv) -> dict:
    proc = child([HERE / "chain.py", *argv])
    if proc.returncode != 0:
        raise ChainFailed(f"chain.py {argv[0]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[list[float], list[dict]]:
    """The set-up samples, then whole rounds in one process until the next
    one would end more than `seconds` after the start."""
    deadline = time.monotonic() + seconds
    setups = [run_chain("setup", spec(w), seed, workdir)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    measured = run_chain("rounds", spec(w), seed, int(trace), workdir, repr(deadline))
    return setups + [measured["setup_s"]], measured["rounds"]


def check_replay(files: Files) -> None:
    """build --from-manifest reproduces the network JSON byte for byte."""
    again = files.net.with_name("replay.json")
    proc = child(["-m", "threshmem.cli", "build",
                  "--from-manifest", files.net.with_name("net.manifest.json"),
                  "--out", again, "--report", files.report.with_name("replay_report.json")],
                 PYTHONPATH=str(SRC))
    checks.require(proc.returncode == 0,
                   f"build --from-manifest exited {proc.returncode}: {proc.stdout}{proc.stderr}")
    checks.require(again.read_bytes() == files.net.read_bytes(),
                   "build --from-manifest wrote a different network JSON")


def verify(w: Workload, seed: int, files: Files):
    """Every output check on the last round's files; returns (failures,
    network document)."""
    failures = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            failures.append(str(exc))

    ds = checks.read_dataset(files.data)
    attempt(checks.check_dataset, ds, w.angular, w.delta, w.command == "lowerbound")
    preds = attempt(checks.check_recall, ds, files.preds, files.summary)
    doc = checks.read_network(files.net)
    report = json.loads(files.report.read_text())
    attempt(checks.check_structure, doc, report, ds.n, w.angular, w.delta)
    if preds is not None:
        rng = np.random.default_rng(seeds(seed)[2])
        subset = np.sort(rng.choice(ds.n, size=min(EVAL_SUBSET, ds.n), replace=False))
        attempt(checks.check_independent_eval, doc, ds, preds, subset)
    if w.replay:
        attempt(check_replay, files)
    return failures, doc


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(setups, rounds, peak_mb: float, doc: dict, files: Files) -> dict:
    m = {f"{k}_s": (median(r["times"][k] for r in rounds), "s") for k in TIMED}
    m["total_s"] = (median(sum(r["times"].values()) for r in rounds), "s")
    m["setup_s"] = (median(setups), "s")
    m["peak_rss_mb"] = (peak_mb, "MB")
    m["artifact_bytes"] = (files.net.stat().st_size, "bytes")
    counts = checks.count_network(doc)
    m["neurons"] = (counts.neurons, "count")
    m["weights"] = (counts.weights, "count")
    m["depth"] = (counts.depth, "count")
    return m


def per_layer(rounds) -> dict:
    def unit(name):
        return "count" if name in COUNTS else "MB" if name.endswith("_mb") else "s"

    return {k: (median(r["layers"][k] for r in rounds), unit(k)) for k in rounds[0]["layers"]}


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run in `workdir`; returns the result object."""
    setups, rounds = measure(w, seed, seconds, trace, workdir)
    # the largest child process, which is the measuring one; read before the
    # replayed build runs
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    files = Files.under(workdir)
    t0 = time.perf_counter()
    failures, doc = verify(w, seed, files)
    check_s = time.perf_counter() - t0
    failures += [f for r in rounds for f in r.get("failures", [])]
    metrics = per_layer(rounds) if trace else end_to_end(setups, rounds, peak_mb, doc, files)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{len(rounds)} rounds, set-up {[round(s, 3) for s in setups]}, " + ", ".join(
        f"{k} {[round(r['times'][k], 3) for r in rounds]}" for k in TIMED)
        + f"; checks {check_s:.2f} s", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    except (ChainFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

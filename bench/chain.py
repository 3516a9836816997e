"""A workload's command chain, repeated in one process.

    python3 bench/chain.py setup SPEC_JSON SEED WORKDIR
    python3 bench/chain.py rounds SPEC_JSON SEED TRACE WORKDIR DEADLINE

Run by bench/run.py. Both forms import the program from ./src and run the
workload's chain once at toy size, which is the set-up; `setup` then prints
its set-up seconds. `rounds` goes on to run the full-size chain (the
dataset command, `build`, `eval`, each through threshmem.cli.main) again
and again in the same process, until the next round would end after
DEADLINE, a time.monotonic() value; it runs at least one round. It prints
one JSON line: its set-up seconds and, for every round, the command
seconds, the operations attempted and failed and, with TRACE=1, the
round's per-layer metrics.
"""

from __future__ import annotations

import os
import time

#: set-up is timed from here, so it includes importing numpy and scipy
STARTED = time.perf_counter()

if __name__ == "__main__":
    # One BLAS/OpenMP thread: the machine is small and shared, and the
    # pools are sized when numpy loads, so this precedes every import.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib
import gc
import io
import json
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What build prints today for the CSV that lowerbound writes.
KNOWN_CSV_FAULT = "expected header label,f1,...,fd"

TIMED = ("generate", "build", "eval")

#: Toy size of the warm-up chain; delta is widened so the toy build is small.
TOY_N, TOY_D, TOY_DELTA = 64, 8, 0.3
TOY_CLUSTER_DELTA = 0.1


@dataclass(frozen=True)
class Workload:
    command: str  # dataset command: "generate" or "lowerbound"
    mode: str
    n: int
    d: int
    delta: float
    #: times the dataset command runs per round; generate_s is their median
    dataset_repeats: int = 1
    #: also replay the build from its manifest and compare bytes
    replay: bool = False

    @property
    def angular(self) -> bool:
        return self.mode == "angular"

    def toy(self) -> "Workload":
        delta = TOY_CLUSTER_DELTA if self.command == "lowerbound" else TOY_DELTA
        return replace(self, n=TOY_N, d=TOY_D, delta=delta, dataset_repeats=1)


def spec(w: Workload) -> str:
    """The workload as the JSON argument of this script."""
    return json.dumps(asdict(w))


class ChainFailed(RuntimeError):
    pass


def seeds(seed: int) -> tuple[int, int, int]:
    """(dataset seed, build seed, seed of the independently checked subset)."""
    return tuple(int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=3))


@dataclass(frozen=True)
class Files:
    data: Path
    plain: Path  # the lowerbound CSV without its cluster column
    net: Path
    report: Path
    preds: Path
    summary: Path

    @classmethod
    def under(cls, d: Path) -> "Files":
        return cls(d / "data.csv", d / "plain.csv", d / "net.json", d / "report.json",
                   d / "preds.csv", d / "summary.json")


def import_cli():
    """threshmem.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "threshmem" / "__init__.py").is_file():
        raise ChainFailed(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import threshmem.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "threshmem":
        raise ChainFailed(f"threshmem imported from {cli.__file__}, not {SRC}")
    return cli


class Chain:
    """One workload's commands against one directory of artifacts."""

    def __init__(self, cli, w: Workload, seed: int, workdir: Path, tracer=None):
        self.cli = cli
        self.w = w
        self.tracer = tracer
        self.files = Files.under(workdir)
        self.data_seed, self.build_seed, _ = seeds(seed)

    def call(self, label: str, argv, may_fail: bool = False) -> tuple[int, float, str]:
        """Run one command in-process; returns (exit code, seconds, stdout)."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{label}") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            t0 = time.perf_counter()
            code = self.cli.main([str(a) for a in argv])
            seconds = time.perf_counter() - t0
        if code != 0 and not may_fail:
            raise ChainFailed(f"{argv[0]} exited {code}: {out.getvalue()}{err.getvalue()}")
        return code, seconds, out.getvalue()

    def dataset_argv(self):
        w, f = self.w, self.files
        argv = [w.command, "--n", w.n, "--d", w.d, "--delta", w.delta,
                "--seed", self.data_seed, "--out", f.data]
        if w.command == "generate":
            argv += ["--mode", w.mode]
        return argv

    def build_argv(self, dataset):
        w, f = self.w, self.files
        return ["build", "--dataset", dataset, "--mode", w.mode, "--delta", w.delta,
                "--seed", self.build_seed, "--out", f.net, "--report", f.report]

    def round(self) -> dict:
        """The chain once: command times, operations attempted and failed,
        and the dataset CSV that build and eval read."""
        f = self.files
        times = {}
        attempted = failed = 0
        times["generate"] = statistics.median(self.call("generate", self.dataset_argv())[1]
                                              for _ in range(self.w.dataset_repeats))
        attempted += self.w.dataset_repeats
        build_csv = f.data
        if self.w.command == "lowerbound":
            # build is tried on lowerbound's own CSV first; while it rejects
            # the trailing cluster column, the same points are rewritten
            # without it and that build is the timed one
            code, seconds, out = self.call("build_direct", self.build_argv(f.data), may_fail=True)
            attempted += 1
            if code == 0:
                times["build"] = seconds
            elif code == 2 and KNOWN_CSV_FAULT in out:
                failed += 1
                checks.write_plain_dataset(checks.read_dataset(f.data), f.plain)
                build_csv = f.plain
            else:
                raise ChainFailed(f"build on the lowerbound CSV exited {code}: {out}")
        if "build" not in times:
            _, times["build"], _ = self.call("build", self.build_argv(build_csv))
            attempted += 1
        _, times["eval"], _ = self.call(
            "eval", ["eval", "--network", f.net, "--dataset", build_csv,
                     "--out", f.preds, "--summary", f.summary])
        attempted += 1
        return {"times": times, "attempted": attempted, "failed": failed,
                "build_csv": str(build_csv)}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced round

#: Per-layer time metrics: metric name -> span names whose self times add up.
SELF_TIMES = {
    "geometry.generate_separated_dataset_s": ["geometry.generate_separated_dataset"],
    "geometry.save_dataset_csv_s": ["geometry.save_dataset_csv"],
    "geometry.load_dataset_csv_s": ["geometry.load_dataset_csv"],
    "geometry.check_separation_s": ["geometry.check_separation"],
    "lowerbound.build_cluster_dataset_s": ["lowerbound.build_cluster_dataset"],
    "lowerbound.save_clustered_csv_s": ["lowerbound.save_clustered_csv"],
    "construct.build_first_layer_s": ["construct.build_first_layer"],
    "construct.plan_compression_s": ["construct.plan_compression"],
    "construct.build_xor_subnetwork_s": ["construct.build_xor_subnetwork"],
    "construct.prefix_partition_s": ["construct.prefix_partition"],
    "construct.bank_layers_s": ["construct.build_selector_layer", "construct.build_expansion_layer",
                                "construct.build_memorization_layer", "construct.build_output_layer"],
    "construct.self_check_s": ["construct.self_check"],
    "construct.construct_memorizer_self_s": ["construct.construct_memorizer"],
    "netcore.serialize_s": ["netcore.serialize"],
    "netcore.deserialize_s": ["netcore.deserialize"],
    "netcore.forward_batch_s": ["netcore.forward_batch"],
    "cli.generate_self_s": ["cli.generate"],
    "cli.build_self_s": ["cli.build"],
    "cli.eval_self_s": ["cli.eval"],
}

PEAKS = ("geometry.check_separation", "construct.construct_memorizer",
         "netcore.serialize", "netcore.deserialize", "netcore.forward_batch")

#: Layer groups of the forward pass, keyed by report.json step names.
LAYER_GROUPS = (("first_layer", "first"), ("xor_compression", "xor"), ("selector", "selector"),
                ("expansion", "expansion"), ("memorization", "memorization"), ("output", "output"))

COUNTS = ("construct.first_layer_retries", "construct.compression_retries", "construct.d1",
          "construct.d2", "construct.K", "construct.max_subset_size",
          "construct.first_layer_neurons", "construct.xor_neurons",
          "construct.xor_padding_neurons", "construct.bank_neurons")


def timed_roots(tracer: Tracer) -> list[int]:
    """The timed command spans; of a repeated command, the run of median
    duration."""
    chosen = []
    for k in TIMED:
        runs = sorted((i for i in tracer.roots() if tracer.spans[i].name == f"cli.{k}"),
                      key=lambda i: tracer.spans[i].duration)
        chosen.append(runs[len(runs) // 2])
    return chosen


def span_metrics(tracer: Tracer) -> dict:
    """Self times and peaks under the timed command spans."""
    roots = timed_roots(tracer)
    spans = [i for r in roots for i in tracer.subtree(r)]
    m = {}
    for metric, names in SELF_TIMES.items():
        m[metric] = sum(tracer.self_time(i) for i in spans if tracer.spans[i].name in names)
    for name in PEAKS:
        m[f"{name}_peak_mb"] = max((tracer.spans[i].peak_mb for i in spans
                                    if tracer.spans[i].name == name), default=0.0)
    for r in roots:
        m[f"{tracer.spans[r].name}_s"] = tracer.spans[r].duration
    m["construct.construct_memorizer_s"] = sum(
        tracer.spans[i].duration for i in spans
        if tracer.spans[i].name == "construct.construct_memorizer")
    return m


def layer_forward(cli, tracer: Tracer, files: Files, build_csv: str, report: dict) -> dict:
    """evaluate_layers on each layer group in turn, one span per group.

    Chaining the groups must give eval's predictions, which are
    forward_batch's, bit for bit.
    """
    net = cli.netcore.load_network(files.net)
    Z = cli.geometry.load_dataset_csv(build_csv).features
    steps = {s["step"]: s["layer_span"] for s in report["steps"]}
    m = {}
    for step, group in LAYER_GROUPS:
        lo, hi = steps[step]
        with tracer.span(f"netcore.layer.{group}") as s:
            Z = cli.netcore.evaluate_layers(net.layers[lo:hi], Z)
        m[f"netcore.layer.{group}_s"] = s.duration
    preds = np.loadtxt(files.preds, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)[:, 2]
    checks.require(np.array_equal(Z[:, 0], preds),
                   "per-slice evaluate_layers disagrees with forward_batch")
    return m


def report_counts(report: dict) -> dict:
    steps = {s["step"]: s["neurons"] for s in report["steps"]}
    dims = report["dims"]
    values = (report["retries"]["first_layer"], report["retries"]["compression"],
              dims["d1"], dims["d2"], dims["K"], dims["max_subset_size"],
              steps["first_layer"], steps["xor_compression"], report["xor_padding_neurons"],
              sum(steps[k] for k in ("selector", "expansion", "memorization", "output")))
    return dict(zip(COUNTS, values))


def traced_metrics(cli, tracer: Tracer, files: Files, build_csv: str) -> tuple[dict, list[str]]:
    """The round's per-layer metrics, and the failures of the traced checks."""
    failures = []
    report = json.loads(files.report.read_text())
    m = span_metrics(tracer)
    try:
        m.update(layer_forward(cli, tracer, files, build_csv, report))
    except checks.CheckFailed as exc:
        failures.append(str(exc))
    m.update(report_counts(report))
    traced = sum(tracer.spans[r].duration for r in tracer.roots())
    covered = sum(tracer.self_time(i) for i in range(len(tracer.spans)))
    if abs(traced - covered) > 1e-6 * max(traced, 1.0):
        failures.append(f"self times add up to {covered}, not the traced {traced} s")
    return m, failures


def set_up(w: Workload, seed: int, workdir: Path, started: float):
    """Import the program and run the workload's chain at toy size; returns
    (threshmem.cli, set-up seconds)."""
    cli = import_cli()
    warm = workdir / "warmup"
    shutil.rmtree(warm, ignore_errors=True)
    warm.mkdir(parents=True)
    Chain(cli, w.toy(), seed, warm).round()
    gc.collect()
    return cli, time.perf_counter() - started


def one_round(cli, w: Workload, seed: int, trace: bool, workdir: Path) -> dict:
    tracer = Tracer() if trace else None
    chain = Chain(cli, w, seed, workdir, tracer)
    with tracer.installed() if trace else contextlib.nullcontext():
        result = chain.round()
    if trace:
        result["layers"], result["failures"] = traced_metrics(
            cli, tracer, chain.files, result["build_csv"])
    return result


def rounds_until(cli, w: Workload, seed: int, trace: bool, workdir: Path,
                 deadline: float) -> list[dict]:
    """Whole rounds until the next one would end after `deadline`."""
    done = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        done.append(one_round(cli, w, seed, trace, workdir))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() + longest > deadline:
            return done


def main(argv) -> int:
    try:
        if argv[0] == "setup":
            spec, seed, workdir = argv[1:]
            _, setup_s = set_up(Workload(**json.loads(spec)), int(seed), Path(workdir), STARTED)
            result = {"setup_s": setup_s}
        else:
            spec, seed, trace, workdir, deadline = argv[1:]
            w, seed, workdir = Workload(**json.loads(spec)), int(seed), Path(workdir)
            cli, setup_s = set_up(w, seed, workdir, STARTED)
            result = {"setup_s": setup_s,
                      "rounds": rounds_until(cli, w, seed, trace == "1", workdir, float(deadline))}
    except ChainFailed as exc:
        print(f"chain failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

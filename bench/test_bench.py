"""Toy-size tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import chain
import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy_chain(tmp_path, name="distance-2048"):
    c = chain.Chain(chain.import_cli(), run.WORKLOADS[name].toy(), 3, tmp_path)
    c.round()
    return c


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_toy_run_passes_every_check(tmp_path, name, trace):
    w = run.WORKLOADS[name].toy()
    result = run.run(w, seed=3, seconds=0, trace=trace, workdir=tmp_path)
    assert result["correct"]
    ops = w.dataset_repeats + 2
    if w.command == "lowerbound":
        # the build on lowerbound's own CSV fails while its cluster column
        # is rejected, and is then the one operation that fails
        assert (result["attempted"], result["failed"]) in ((ops + 1, 1), (ops, 0))
    else:
        assert (result["attempted"], result["failed"]) == (ops, 0)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_independent_evaluator_rejects_flipped_output_weight(tmp_path):
    c = toy_chain(tmp_path)
    ds = checks.read_dataset(c.files.data)
    preds = checks.check_recall(ds, c.files.preds, c.files.summary)
    doc = checks.read_network(c.files.net)
    everyone = np.arange(ds.n)
    checks.check_independent_eval(doc, ds, preds, everyone)
    doc["layers"][-1]["entries"][0][2] *= -1
    with pytest.raises(checks.CheckFailed, match="mislabels"):
        checks.check_independent_eval(doc, ds, preds, everyone)


def test_separation_check_rejects_one_close_pair(tmp_path):
    c = toy_chain(tmp_path)
    ds = checks.read_dataset(c.files.data)
    delta = c.w.delta
    checks.check_dataset(ds, angular=False, delta=delta, clustered=False)
    X = ds.features.copy()
    # move point 5 towards the origin until it is delta/2 from where it was,
    # then put point 9 there: one pair at delta/2, the norm still <= 1
    X[9] = X[5] * (1 - delta / 2 / np.linalg.norm(X[5]))
    bad = checks.CsvDataset(ds.labels, X, None)
    assert checks.closest_pair(X, angular=False, delta=delta)[1:] == (5, 9)
    with pytest.raises(checks.CheckFailed, match="not separated"):
        checks.check_dataset(bad, angular=False, delta=delta, clustered=False)


def test_exits_without_result_when_program_source_is_missing(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "distance-2048", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

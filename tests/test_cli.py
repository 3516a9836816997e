import csv
import hashlib
import json
import math

import numpy as np
import pytest

from threshmem import construct
from threshmem.cli import main
from threshmem.geometry import Dataset, save_dataset_csv
from threshmem.netcore import load_network


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture()
def small_dataset(tmp_path):
    path = tmp_path / "ds.csv"
    assert run(["generate", "--n", 32, "--d", 8, "--mode", "distance",
                "--delta", 0.3, "--seed", 5, "--out", path]) == 0
    return path


def test_generate_build_eval_round_trip(tmp_path, small_dataset, capsys):
    net_path = tmp_path / "net.json"
    report_path = tmp_path / "report.json"
    code = run(["build", "--dataset", small_dataset, "--mode", "distance",
                "--delta", 0.3, "--seed", 9, "--out", net_path,
                "--report", report_path])
    assert code == 0
    assert net_path.exists() and report_path.exists()
    assert (tmp_path / "net.manifest.json").exists()

    report = read_json(report_path)
    assert report["n"] == 32
    assert report["totals"]["neurons"] <= report["neuron_bound"]

    preds_path = tmp_path / "preds.csv"
    summary_path = tmp_path / "summary.json"
    assert run(["eval", "--network", net_path, "--dataset", small_dataset,
                "--out", preds_path, "--summary", summary_path]) == 0
    summary = read_json(summary_path)
    assert summary == {"n": 32, "correct": 32, "accuracy": 1.0}
    with open(preds_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 32
    assert all(r["label"] == r["prediction"] for r in rows)


def test_build_rejects_unseparated_dataset(tmp_path, capsys):
    ds = Dataset([[0.1, 0.0], [0.100001, 0.0]], [0, 1])
    path = tmp_path / "bad.csv"
    save_dataset_csv(ds, path)
    code = run(["build", "--dataset", path, "--mode", "distance", "--delta", 0.5,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["code"] == 2
    assert payload["error"]["worst_pair"] == [0, 1]


def test_missing_dataset_file(tmp_path, capsys):
    code = run(["build", "--dataset", tmp_path / "nope.csv", "--delta", 0.3,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["code"] == 1


def test_audit_command(tmp_path, small_dataset):
    net_path = tmp_path / "net.json"
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--seed", 2,
                "--out", net_path, "--report", tmp_path / "r.json"]) == 0
    audit_path = tmp_path / "audit.json"
    assert run(["audit", "--network", net_path, "--out", audit_path]) == 0
    payload = read_json(audit_path)
    report = read_json(tmp_path / "r.json")
    assert payload["neurons"] == report["totals"]["neurons"]
    assert payload["weights"] == report["totals"]["weights"]


@pytest.mark.parametrize("layer", [
    # a row whose sum |w| + |b| passes int64 used to evaluate to wrong bits
    {"domain": "integer", "rows": 1, "cols": 3, "bias": [-1],
     "entries": [[0, 0, 2**62], [0, 1, 2**62], [0, 2, 1]]},
    # a dense real layer far larger than its document
    {"domain": "real", "rows": 1, "cols": 3 * 10**8, "bias": [0.0], "entries": []},
])
def test_audit_refuses_unsafe_layer(tmp_path, capsys, layer):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"input_dim": layer["cols"], "layers": [layer]}))
    assert run(["audit", "--network", net_path, "--out", tmp_path / "a.json"]) == 2
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert error["type"] == "SerializationError"
    assert error["message"].startswith("$.layers[0]: ")


def test_bits_command(capsys):
    assert run(["bits", "--n", 1000, "--d", 32, "--delta", 0.05]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bits"] >= 1000
    assert payload["upper_bits"] >= payload["lower_bits"]
    assert set(payload["flags"]) == {"lower_degenerate", "packing_lower_clamped"}


def test_bits_rejects_bad_query(capsys):
    assert run(["bits", "--n", 0, "--d", 32, "--delta", 0.05]) == 2


def test_lowerbound_and_separate_commands(tmp_path, capsys):
    cds_path = tmp_path / "cds.csv"
    assert run(["lowerbound", "--n", 16, "--d", 5, "--delta", 0.05,
                "--seed", 1, "--out", cds_path]) == 0
    with open(cds_path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["label"] + [f"f{j}" for j in range(1, 6)] + ["cluster"]

    planes = {"planes": [
        {"normal": [1.0, 0.0, 0.0, 0.0, 0.0], "offset": 0.0},
        {"normal": [0.0, 1.0, 0.0, 0.0, 0.0], "offset": 0.1},
    ]}
    planes_path = tmp_path / "planes.json"
    planes_path.write_text(json.dumps(planes))
    out_path = tmp_path / "sep.json"
    assert run(["separate", "--points", cds_path, "--planes", planes_path,
                "--mode", "opposite", "--out", out_path]) == 0
    payload = read_json(out_path)
    assert payload["total"] > 0
    assert 0 <= payload["separated"] <= payload["total"]


@pytest.mark.parametrize("mode, digest", [
    ("distance", "7b199fb94e1b7348612d5e443d8275c779fecebc3377c2c9aeaa4f9ea4157ef8"),
    ("angular", "c0a72c427d2b7c63534776e0a3c201b24e86af81aa97335c0762b54d59b652d1"),
])
def test_generate_output_is_pinned(tmp_path, mode, digest):
    # pinned from the allocate-per-candidate sampler: its scratch buffers
    # must not change a bit of the output for a seed
    path = tmp_path / "ds.csv"
    assert run(["generate", "--n", 256, "--d", 16, "--delta", 0.1, "--seed", 5,
                "--mode", mode, "--out", path]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("n, d, delta, digest", [
    (64, 8, 0.05, "a3e3b257cadb101d53153b4146d1d897df5bfc336a86f2f2240a824a0c4c18f5"),
    (256, 16, 0.03, "ff97c2a9fbd9187dfe420f4ef68e6950ec09080aae6c4246eef472e47fd5eeaa"),
])
def test_lowerbound_output_is_pinned(tmp_path, n, d, delta, digest):
    # pinned from lowerbound's own rejection loop and CSV writer, before
    # both moved into geometry
    path = tmp_path / "cds.csv"
    assert run(["lowerbound", "--n", n, "--d", d, "--delta", delta, "--seed", 1,
                "--out", path]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_separate_rejects_non_bit_label(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("label,f1,f2,cluster\n0,0.1,0.2,0\n2,0.3,-0.1,0\n")
    planes = tmp_path / "planes.json"
    planes.write_text(json.dumps({"planes": [{"normal": [1.0, 0.0], "offset": 0.0}]}))
    assert run(["separate", "--points", points, "--planes", planes,
                "--out", tmp_path / "sep.json"]) == 2
    assert "label must be 0 or 1" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_separate_rejects_bad_planes(tmp_path, capsys):
    cds_path = tmp_path / "cds.csv"
    assert run(["lowerbound", "--n", 16, "--d", 5, "--delta", 0.05,
                "--seed", 1, "--out", cds_path]) == 0
    planes_path = tmp_path / "planes.json"
    planes_path.write_text(json.dumps({"planes": [{"normal": [0, 0, 0, 0, 0], "offset": 0}]}))
    assert run(["separate", "--points", cds_path, "--planes", planes_path,
                "--out", tmp_path / "x.json"]) == 2


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "sweep.json"
    assert run(["sweep", "--n", 24, "--d", 6, "--deltas", "0.4,0.2", "--seeds", 2,
                "--seed", 3, "--out", out, "--summary", summary]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["error"] == "" for r in rows)
    payload = read_json(summary)
    assert payload["loglog_slope_first_layer_vs_inv_delta"] is not None


def test_sweep_single_delta_has_null_slope(tmp_path):
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "sweep.json"
    assert run(["sweep", "--n", 16, "--d", 5, "--deltas", "0.3", "--seeds", 1,
                "--seed", 3, "--out", out, "--summary", summary]) == 0
    assert read_json(summary)["loglog_slope_first_layer_vs_inv_delta"] is None


def test_sweep_empty_delta_list_is_usage_error(tmp_path, capsys):
    code = run(["sweep", "--n", 16, "--d", 5, "--deltas", ",", "--seeds", 1,
                "--out", tmp_path / "s.csv", "--summary", tmp_path / "s.json"])
    assert code == 2


def test_build_rerun_from_manifest_bit_exact(tmp_path, small_dataset):
    net_path = tmp_path / "net.json"
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--seed", 4,
                "--out", net_path, "--report", tmp_path / "r.json"]) == 0
    first = net_path.read_bytes()
    manifest = tmp_path / "net.manifest.json"
    assert manifest.exists()
    net_path.unlink()
    assert run(["build", "--from-manifest", manifest]) == 0
    assert net_path.read_bytes() == first


def test_build_angular_mode_end_to_end(tmp_path):
    ds_path = tmp_path / "ang.csv"
    assert run(["generate", "--n", 16, "--d", 5, "--mode", "angular",
                "--delta", 0.3, "--seed", 2, "--out", ds_path]) == 0
    net_path = tmp_path / "net.json"
    assert run(["build", "--dataset", ds_path, "--mode", "angular", "--delta", 0.3,
                "--seed", 3, "--out", net_path, "--report", tmp_path / "r.json"]) == 0
    summary = tmp_path / "acc.json"
    assert run(["eval", "--network", net_path, "--dataset", ds_path,
                "--out", tmp_path / "p.csv", "--summary", summary]) == 0
    assert read_json(summary)["accuracy"] == 1.0


def test_eval_dimension_mismatch(tmp_path, small_dataset, capsys):
    net_path = tmp_path / "net.json"
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--seed", 1,
                "--out", net_path, "--report", tmp_path / "r.json"]) == 0
    other = tmp_path / "other.csv"
    assert run(["generate", "--n", 4, "--d", 3, "--delta", 0.2, "--seed", 0,
                "--out", other]) == 0
    assert run(["eval", "--network", net_path, "--dataset", other,
                "--out", tmp_path / "p.csv", "--summary", tmp_path / "s.json"]) == 2


def test_seed_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("THRESHMEM_SEED", "77")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["generate", "--n", 8, "--d", 3, "--delta", 0.2, "--out", a]) == 0
    assert run(["generate", "--n", 8, "--d", 3, "--delta", 0.2, "--seed", 77, "--out", b]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("missing", ["params", "artifacts"])
def test_build_from_incomplete_manifest_is_contract_error(tmp_path, small_dataset, missing):
    net_path = tmp_path / "net.json"
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--seed", 4,
                "--out", net_path, "--report", tmp_path / "r.json"]) == 0
    manifest = tmp_path / "net.manifest.json"
    doc = read_json(manifest)
    del doc[missing]
    manifest.write_text(json.dumps(doc))
    assert run(["build", "--from-manifest", manifest]) == 2


@pytest.mark.parametrize("flag, value", [("--eps1", 2), ("--max-retries", 0)])
def test_build_rejects_bad_config(tmp_path, small_dataset, capsys, flag, value):
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, flag, value,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == 2


def test_sweep_does_not_swallow_invariant_breach(tmp_path, monkeypatch, capsys):
    def breach(ds, cfg):
        raise construct.MemorizationCheckError("constructed network mislabels sample 0")

    monkeypatch.setattr(construct, "construct_memorizer", breach)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--n", 16, "--d", 5, "--deltas", "0.3", "--seeds", 1,
                "--seed", 3, "--out", out, "--summary", tmp_path / "s.json"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["code"] == 4
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("eps1", "abc"), ("seed", "x"), ("max_retries", 2.5),
                                        ("delta", True), ("dataset", None)])
def test_build_from_manifest_rejects_wrongly_typed_param(tmp_path, small_dataset, capsys,
                                                          key, value):
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--seed", 4,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"]) == 0
    manifest = tmp_path / "net.manifest.json"
    doc = read_json(manifest)
    doc["params"][key] = value
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["build", "--from-manifest", manifest]) == 2
    assert f"params.{key} must be" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_build_from_manifest_rejects_unknown_param(tmp_path, small_dataset, capsys):
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--seed", 4,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"]) == 0
    manifest = tmp_path / "net.manifest.json"
    doc = read_json(manifest)
    doc["params"]["func"] = "cmd_audit"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["build", "--from-manifest", manifest]) == 2
    assert "unknown build parameter 'func'" in json.loads(capsys.readouterr().out)["error"]["message"]

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshmem import construct
from threshmem.cli import BUILD_PARAMS, build_parser, main
from threshmem.geometry import Dataset, save_dataset_csv
from threshmem.netcore import load_network


#: a child Python process imports the package from this checkout's src
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))


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
    audit_path = tmp_path / "audit.json"
    assert run(["audit", "--network", net_path, "--out", audit_path]) == 0
    sizes = read_json(audit_path)
    assert report["totals"] == {"neurons": sizes["neurons"], "weights": sizes["weights"],
                                "weight_entries": sizes["weight_entries"],
                                "biases": sizes["bias_count"]}
    spans = [s["layer_span"] for s in report["steps"]]
    assert spans[0][0] == 0 and spans[-1][1] == len(sizes["layers"])
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

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


def test_manifest_flag_sets_the_manifest_path(tmp_path):
    out = tmp_path / "ds.csv"
    manifest = tmp_path / "elsewhere.json"
    assert run(["generate", "--n", 8, "--d", 2, "--delta", 0.1, "--seed", 1,
                "--out", out, "--manifest", manifest]) == 0
    assert read_json(manifest)["artifacts"] == {"out": str(out)}
    assert not (tmp_path / "ds.manifest.json").exists()


#: The output flags, which a manifest records as artifacts, not params
OUTPUT_FLAGS = ("out", "report", "summary")
NOT_PARAMS = {"command", "func", "manifest", "from_manifest", *OUTPUT_FLAGS}


def test_every_manifest_records_the_parsed_flags(tmp_path):
    ds, net, cds, planes = (tmp_path / name for name in ("ds.csv", "net.json", "cds.csv",
                                                         "planes.json"))
    planes.write_text(json.dumps({"planes": [{"normal": [1.0, 0.0, 0.0], "offset": 0.0}]}))
    commands = [
        ["generate", "--n", 16, "--d", 3, "--delta", 0.3, "--seed", 5, "--out", ds],
        ["build", "--dataset", ds, "--delta", 0.3, "--seed", 4, "--c-dist", 12.5, "--out", net,
         "--report", tmp_path / "r.json"],
        ["eval", "--network", net, "--dataset", ds, "--out", tmp_path / "p.csv",
         "--summary", tmp_path / "s.json"],
        ["audit", "--network", net, "--out", tmp_path / "a.json"],
        ["lowerbound", "--n", 16, "--d", 3, "--delta", 0.05, "--seed", 1, "--out", cds],
        ["separate", "--points", cds, "--planes", planes, "--mode", "all",
         "--out", tmp_path / "sep.json"],
        ["bits", "--n", 100, "--d", 4, "--delta", 0.1, "--out", tmp_path / "b.json"],
        ["bits", "--n", 100, "--d", 4, "--delta", 0.1, "--manifest", tmp_path / "bits.json"],
        ["sweep", "--n", 16, "--d", 4, "--deltas", "0.4,0.3", "--seeds", 2, "--seed", 3,
         "--out", tmp_path / "sw.csv", "--summary", tmp_path / "sw.json"],
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            argv = [str(a) for a in argv]
            assert main(argv) == 0, argv
            flags = vars(build_parser().parse_args(argv))
            artifacts = {k: flags[k] for k in OUTPUT_FLAGS if flags.get(k) is not None}
            path = flags["manifest"] or Path(artifacts["out"]).with_suffix(".manifest.json")
            manifest = read_json(Path(path))
            params = {k: v for k, v in flags.items() if k not in NOT_PARAMS}
            params.setdefault("seed", None)  # a command without --seed
            assert manifest["command"] == argv[0]
            assert manifest["params"] == params, argv
            assert manifest["seed"] == params["seed"]
            assert manifest["artifacts"] == artifacts, argv
            if argv[0] == "build":
                assert set(BUILD_PARAMS) == set(manifest["params"])


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


@pytest.mark.parametrize("mode, d, delta, digest", [
    ("distance", 4, 0.2, "ad1bd165c5ca85efb4c75f5024f39843199e8d11068b920f7a784ad12731a558"),
    ("angular", 3, 0.07, "d7c468a416c2ed1b12646ee20ae833f119c511aeea89a08091ecdd28a1500ab0"),
])
def test_multi_batch_generate_output_is_pinned(tmp_path, mode, d, delta, digest):
    # pinned from the one-candidate-at-a-time sampler; these draws span
    # several batches with many rejections (1,680 distance, 1,943 angular)
    path = tmp_path / "ds.csv"
    assert run(["generate", "--n", 1024, "--d", d, "--delta", delta, "--seed", 5,
                "--mode", mode, "--out", path]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


#: sha256 of the report.json beside each pinned network below
REPORT_DIGESTS = {
    "distance": "2b0ec7d413a16aac6f76c139ba3a5813e0287fa0fcd972a0a845d4d3ef8ac031",
    "angular": "531ad6e6422bf9f7c168004f0a8ad6b502afdedfaf5f3effff5f4ecaad8fbd1f",
}


@pytest.mark.parametrize("mode, digest", [
    ("distance", "e2d317a3d37210e93add023d7c79eae26411f7000eb9763546857b529154918b"),
    ("angular", "5e8739a97d80e585c08471b4e64b4e543bde0f6870f690330cf85f5a2b79a75e"),
])
def test_build_output_is_pinned(tmp_path, mode, digest):
    # the network pinned from the json.dumps writer; five-digit rows and
    # columns and negative weights, in some 25 layers. The report pinned
    # from the hand-written step spans and per-step counts
    data, net, report = tmp_path / "ds.csv", tmp_path / "net.json", tmp_path / "r.json"
    assert run(["generate", "--n", 256, "--d", 16, "--delta", 0.1, "--seed", 5,
                "--mode", mode, "--out", data]) == 0
    assert run(["build", "--dataset", data, "--mode", mode, "--delta", 0.1, "--seed", 1,
                "--out", net, "--report", report]) == 0
    assert hashlib.sha256(net.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_DIGESTS[mode]


@pytest.mark.parametrize("cell, message", [
    ("abc", "could not convert string to float: 'abc'"),
    ("nan", "features must be finite"),
    ("1e400", "features must be finite"),
])
def test_build_names_file_and_row_of_bad_feature_cell(tmp_path, small_dataset, capsys,
                                                      cell, message):
    lines = small_dataset.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3] = cell
    lines[2] = ",".join(fields)
    small_dataset.write_text("\n".join(lines) + "\n")
    code = run(["build", "--dataset", small_dataset, "--delta", 0.3,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"])
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["message"] == f"{small_dataset}:3: {message}"


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A small dataset CSV and the network built from it."""
    root = tmp_path_factory.mktemp("fuzz")
    data, net = root / "ds.csv", root / "net.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(["generate", "--n", 8, "--d", 3, "--mode", "distance", "--delta", 0.3,
                    "--seed", 5, "--out", data]) == 0
        assert run(["build", "--dataset", data, "--delta", 0.3, "--seed", 1,
                    "--out", net, "--report", root / "r.json"]) == 0
    return root, data.read_text().splitlines(), net


@st.composite
def faulty_csv(draw, lines):
    """The dataset CSV `lines` with one fault; each fault makes it invalid."""
    fault = draw(st.sampled_from(["truncated", "fields", "label", "text", "nonfinite"]))
    if fault == "truncated":
        # cut a line before its last comma, so it keeps too few fields (or,
        # in the header, no data rows follow)
        row = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0 if row == 0 else 1, lines[row].rindex(",")))
        return "\n".join(lines[:row] + [lines[row][:cut]])
    lines = list(lines)
    row = draw(st.integers(1, len(lines) - 1))
    fields = lines[row].split(",")
    if fault == "fields":
        fields = fields[:-1] if draw(st.booleans()) else fields + ["0.5"]
    elif fault == "label":
        fields[0] = draw(st.sampled_from(["2", "-1", "", "x", "0.0", " 1", "true"]))
    else:
        column = draw(st.integers(1, len(fields) - 1))
        bad = (["abc", "", "--1", "1e", "0..5", "1 2", "0x1"] if fault == "text"
               else ["nan", "NaN", "inf", "-inf", "1e400", "-1e999"])
        fields[column] = draw(st.sampled_from(bad))
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def assert_one_error_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (1, 2)
    [line] = out.getvalue().splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == code
    return error


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_faulty_dataset_csv_gives_one_error_line(fuzz_base, data):
    root, lines, net = fuzz_base
    path = root / "faulty.csv"
    path.write_text(data.draw(faulty_csv(lines)))
    assert_one_error_line(["build", "--dataset", path, "--delta", 0.3, "--seed", 1,
                           "--out", root / "net2.json", "--report", root / "r2.json"])
    assert_one_error_line(["eval", "--network", net, "--dataset", path,
                           "--out", root / "preds.csv", "--summary", root / "summary.json"])


NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?")


@st.composite
def faulty_network(draw, blob):
    """The compact network JSON `blob` with one fault; each fault makes it
    invalid, as JSON or as a network."""
    fault = draw(st.sampled_from(["truncated", "flip", "letter", "space", "bracket",
                                  "duplicate", "token", "zero"]))
    if fault == "truncated":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if fault == "flip":
        # flipping the low bit of a non-digit byte breaks the punctuation,
        # key or string it is part of; flipping the top bit leaves no UTF-8
        k = draw(st.integers(0, len(blob) - 1))
        bit = 0x80 if blob[k:k + 1].isdigit() else draw(st.sampled_from([0x01, 0x80]))
        return blob[:k] + bytes([blob[k] ^ bit]) + blob[k + 1:]
    if fault in ("letter", "space"):
        digits = [k for k in range(1, len(blob)) if blob[k - 1:k + 1].isdigit()]
        k = draw(st.sampled_from(digits))
        return blob[:k] + (b" " if fault == "space" else b"x") + blob[k + (fault == "letter"):]
    if fault == "bracket":
        k = draw(st.sampled_from([k for k, c in enumerate(blob) if c in b"[]"]))
        return blob[:k] + blob[k + 1:]
    if fault == "duplicate":
        i, j = draw(st.sampled_from([m.span() for m in re.finditer(rb"\[[^\[\]]*\]", blob)]))
        return blob[:j] + b"," + blob[i:j] + blob[j:]
    if fault == "token":  # json reads none of these as a number
        i, j = draw(st.sampled_from([m.span() for m in NUMBER.finditer(blob)]))
        return blob[:i] + draw(st.sampled_from([b"01", b"+1", b"00"])) + blob[j:]
    # an integer-layer weight of -0, which json reads as a structural zero
    weights = [m.span(1) for m in re.finditer(rb"(?:\[|\],)\[[0-9]+,[0-9]+,(-?[0-9]+)\]", blob)
               if blob.rfind(b'"integer"', 0, m.start()) > blob.rfind(b'"real"', 0, m.start())]
    i, j = draw(st.sampled_from(weights))
    return blob[:i] + b"-0" + blob[j:]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_faulty_network_json_gives_one_error_line(fuzz_base, data):
    root, _, net = fuzz_base
    path = root / "faulty.json"
    path.write_bytes(data.draw(faulty_network(net.read_bytes())))
    assert_one_error_line(["eval", "--network", path, "--dataset", root / "ds.csv",
                           "--out", root / "preds.csv", "--summary", root / "summary.json"])
    assert_one_error_line(["audit", "--network", path, "--out", root / "audit.json"])


def assert_contract_error(argv, message):
    error = assert_one_error_line(argv)
    assert error["code"] == 2 and error["message"].endswith(message)


#: past Python's recursion limit, where json raises RecursionError
DEEP = b"[" * 100_000


@pytest.mark.parametrize("where", ["document", "real bias"])
def test_deeply_nested_network_json_is_contract_error(fuzz_base, where):
    root, _, net = fuzz_base
    blob = net.read_bytes()
    if where == "real bias":  # the canonical reader parses this text itself
        i = blob.index(b'"bias":[', blob.index(b'"real"')) + len(b'"bias":[')
        blob = blob[:i] + DEEP + blob[blob.index(b"]}", i):]
    else:
        blob = DEEP
    path = root / "deep.json"
    path.write_bytes(blob)
    message = "invalid JSON: nested too deeply"
    assert_contract_error(["eval", "--network", path, "--dataset", root / "ds.csv",
                           "--out", root / "preds.csv", "--summary", root / "summary.json"],
                          message)
    assert_contract_error(["audit", "--network", path, "--out", root / "audit.json"], message)


def test_deeply_nested_planes_or_manifest_json_is_contract_error(fuzz_base):
    root = fuzz_base[0]
    path = root / "deep_input.json"
    path.write_bytes(DEEP)
    message = f"{path}: invalid JSON: nested too deeply"
    assert_contract_error(["separate", "--points", root / "ds.csv", "--planes", path,
                           "--out", root / "sep.json"], message)
    assert_contract_error(["build", "--from-manifest", path], message)


def test_cli_import_leaves_scipy_spatial_unloaded():
    # the separation scans need no scipy.spatial, whose import costs every
    # fresh process about 0.2 s and 17 MB
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, threshmem.cli; print('scipy.spatial' in sys.modules)"],
        env=CHILD_ENV, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]


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


def test_sweep_records_a_cells_contract_violation(tmp_path):
    # distance delta cannot exceed 2, so the delta-3 cell fails with a
    # ValueError (exit code 2), which the sweep records and goes past
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--n", 24, "--d", 6, "--deltas", "0.4,3", "--seeds", 1,
                "--out", out, "--summary", tmp_path / "s.json"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == [
        "", "distance delta cannot exceed the unit-ball diameter 2"]


def test_build_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["build"])
    defaults = {f.name: f.default for f in dataclasses.fields(construct.ConstructionConfig)}
    for name in ("eps1", "eps2", "c_dist", "max_retries"):
        assert getattr(args, name) == defaults[name], name


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


@pytest.mark.parametrize("key", ["out", "report"])
@pytest.mark.parametrize("value", [True, 1, ["net.json"]])
def test_build_from_manifest_refuses_non_string_artifact(tmp_path, small_dataset, key, value):
    # open() takes an int or a bool as a file descriptor, so a reader
    # without this check would write into this process's stdout: the
    # replay runs in a child process
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--seed", 4,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"]) == 0
    manifest = tmp_path / "net.manifest.json"
    doc = read_json(manifest)
    doc["artifacts"][key] = value
    manifest.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "threshmem.cli", "build",
                           "--from-manifest", str(manifest)],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stdout.splitlines()
    assert json.loads(line)["error"]["message"] == (
        f"{manifest}: artifacts.{key} must be str, got {value!r}")


@pytest.mark.parametrize("c_dist, message", [
    ("inf", "c_dist must be positive and finite, got inf"),
    ("nan", "c_dist must be positive and finite, got nan"),
    # finite, but the first-layer width it gives is not
    ("1e308", "first-layer width inf is not finite"),
])
def test_build_refuses_non_finite_c_dist_or_width(tmp_path, small_dataset, capsys,
                                                  c_dist, message):
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--c-dist", c_dist,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["message"] == message


def test_build_from_manifest_refuses_infinite_c_dist(tmp_path, small_dataset, capsys):
    assert run(["build", "--dataset", small_dataset, "--delta", 0.3, "--seed", 4,
                "--out", tmp_path / "net.json", "--report", tmp_path / "r.json"]) == 0
    manifest = tmp_path / "net.manifest.json"
    doc = read_json(manifest)
    doc["params"]["c_dist"] = math.inf
    manifest.write_text(json.dumps(doc))  # json writes the token Infinity
    capsys.readouterr()
    assert run(["build", "--from-manifest", manifest]) == 2
    assert "c_dist must be positive and finite" in json.loads(capsys.readouterr().out)["error"]["message"]


@pytest.mark.parametrize("plane, message", [
    ({"normal": [math.nan, 1.0, 0.0, 0.0, 0.0], "offset": 0.0}, "must be finite"),
    ({"normal": [math.inf, 1.0, 0.0, 0.0, 0.0], "offset": 0.0}, "must be finite"),
    ({"normal": [1.0, 0.0, 0.0, 0.0, 0.0], "offset": math.nan}, "must be finite"),
    ({"normal": [1.0, 0.0, 0.0, 0.0, 0.0], "offset": -math.inf}, "must be finite"),
    ({"normal": [1.0, 0.0, 0.0, 0.0], "offset": 0.0}, "normal has 4 entries, the points have 5"),
])
def test_separate_refuses_non_finite_or_misshapen_plane(tmp_path, capsys, plane, message):
    cds_path = tmp_path / "cds.csv"
    assert run(["lowerbound", "--n", 16, "--d", 5, "--delta", 0.05,
                "--seed", 1, "--out", cds_path]) == 0
    planes_path = tmp_path / "planes.json"
    good = {"normal": [0.0, 1.0, 0.0, 0.0, 0.0], "offset": 0.1}
    planes_path.write_text(json.dumps({"planes": [good, plane]}))
    capsys.readouterr()
    assert run(["separate", "--points", cds_path, "--planes", planes_path,
                "--out", tmp_path / "x.json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]["message"]
    assert error.startswith(f"{planes_path}: plane 1: ") and message in error


@st.composite
def faulty_planes(draw, dim):
    """A planes JSON for points of dimension `dim` with one fault; each
    fault makes it invalid."""
    planes = [{"normal": [float(j == k % dim) for j in range(dim)], "offset": 0.1 * k}
              for k in range(3)]
    doc = {"planes": planes}
    fault = draw(st.sampled_from(["truncated", "top", "missing", "normal", "element",
                                  "nonfinite", "length", "zero"]))
    if fault == "truncated":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if fault == "top":
        doc = draw(st.sampled_from([[doc], "planes", 1, None, {"planes": {}},
                                    {"planes": "x"}, {"planes": None}]))
        return json.dumps(doc)
    plane = draw(st.sampled_from(planes))
    if fault == "missing":
        if draw(st.booleans()):
            doc = {"plane": planes}
        else:
            del plane[draw(st.sampled_from(["normal", "offset"]))]
    elif fault == "normal":
        plane["normal"] = draw(st.sampled_from(["1,0,0", 1.0, None, {"0": 1.0}]))
    elif fault == "element":
        k = draw(st.integers(0, dim - 1))
        plane["normal"][k] = draw(st.sampled_from(["1", None, [1.0], {}]))
    elif fault == "nonfinite":  # json writes NaN and Infinity; 10**400 passes float64
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
        if draw(st.booleans()):
            plane["offset"] = bad
        else:
            plane["normal"][draw(st.integers(0, dim - 1))] = bad
    elif fault == "length":
        plane["normal"] = plane["normal"][:-1] if draw(st.booleans()) else plane["normal"] + [0.5]
    else:
        plane["normal"] = [0.0] * dim
    return json.dumps(doc)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_faulty_planes_json_gives_one_error_line(fuzz_base, data):
    root, _, _ = fuzz_base
    path = root / "faulty_planes.json"
    path.write_text(data.draw(faulty_planes(3)))
    assert_one_error_line(["separate", "--points", root / "ds.csv", "--planes", path,
                           "--out", root / "sep.json"])


@pytest.fixture(scope="module")
def base_manifest(fuzz_base):
    """The manifest of fuzz_base's build, writing its replay elsewhere."""
    root = fuzz_base[0]
    doc = read_json(root / "net.manifest.json")
    doc["artifacts"] = {"out": str(root / "replay.json"), "report": str(root / "replay_r.json")}
    return doc


@st.composite
def faulty_manifest(draw, doc):
    """The build manifest `doc` with one fault; each fault makes it invalid.
    No artifact becomes an int or a bool: open() would take it as a file
    descriptor of this process if the type check were missing."""
    doc = json.loads(json.dumps(doc))
    fault = draw(st.sampled_from(["truncated", "object", "param", "nonfinite", "artifact"]))
    if fault == "truncated":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if fault == "object":
        doc[draw(st.sampled_from(["params", "artifacts"]))] = draw(
            st.sampled_from([[], "x", 1, None, True]))
    elif fault == "param":
        key = draw(st.sampled_from(sorted(BUILD_PARAMS)))
        doc["params"][key] = draw(st.sampled_from(
            [v for v in [None, True, "0.3", 2.5, 3, [], {}]
             if isinstance(v, bool) or not isinstance(v, BUILD_PARAMS[key])]))
    elif fault == "nonfinite":  # json writes NaN, Infinity and -Infinity; 10**400 passes float64
        key = draw(st.sampled_from(["delta", "eps1", "eps2", "c_dist"]))
        doc["params"][key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
    else:
        doc["artifacts"][draw(st.sampled_from(["out", "report"]))] = draw(
            st.sampled_from([None, 2.5, [], ["net.json"], {}]))
    return json.dumps(doc)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_faulty_manifest_gives_one_error_line(fuzz_base, base_manifest, data):
    path = fuzz_base[0] / "faulty.manifest.json"
    path.write_text(data.draw(faulty_manifest(base_manifest)))
    assert_one_error_line(["build", "--from-manifest", path])

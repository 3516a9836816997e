"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavyweight construction runs are shared
between criteria through module-scoped fixtures.
"""

import functools
import itertools
import json
import math

import numpy as np
import pytest

from threshmem.capacity import CapacityQuery, bits_lower_bound, bits_upper_bound
from threshmem.cli import main as cli_main
from threshmem.construct import (
    CompressionPlan,
    ConstructionConfig,
    apply_compression,
    build_xor_subnetwork,
    ceil_sqrt,
    construct_memorizer,
    gf2_inner_product,
    prefix_partition,
)
from threshmem.geometry import SeparationMode, generate_separated_dataset
from threshmem.lowerbound import (
    ALL_PAIRS,
    OPPOSITE_LABEL_PAIRS,
    Hyperplane,
    _candidate_bisectors,
    build_cluster_dataset,
    count_separated_pairs,
    min_hyperplanes_bruteforce,
)
from threshmem.netcore import audit, evaluate_layers, forward_batch


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:>2}: {description}: FAIL")
                raise
            print(f"[acceptance] criterion {number:>2}: {description}: PASS")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Shared construction runs

MEMORIZATION_CONFIGS = [(256, 16, 0.2), (1024, 32, 0.1), (4096, 64, 0.05)]
LABELINGS_PER_CONFIG = 10

SWEEP_DELTAS = [0.4, 0.2, 0.1, 0.05]
SWEEP_N, SWEEP_D, SWEEP_SEEDS = 1024, 32, 3


@pytest.fixture(scope="module")
def memorization_runs():
    """Criterion-1 grid: per run records recall errors, report, and the
    largest integer weight found in layers past the first."""
    runs = []
    for cfg_idx, (n, d, delta) in enumerate(MEMORIZATION_CONFIGS):
        mode = SeparationMode.distance(delta)
        ds = generate_separated_dataset(n, d, mode, seed=1000 + cfg_idx)
        label_rng = np.random.default_rng(2000 + cfg_idx)
        for t in range(LABELINGS_PER_CONFIG):
            labeled = ds.relabeled(label_rng.integers(0, 2, n))
            cfg = ConstructionConfig(mode=mode, seed=3000 + 100 * cfg_idx + t)
            net, report = construct_memorizer(labeled, cfg)
            errors = int((forward_batch(net, labeled.features) != labeled.labels).sum())
            max_int = max(layer.max_abs_weight() for layer in net.layers[1:])
            assert all(layer.is_integer for layer in net.layers[1:])
            # report totals must equal an independent structural recount
            totals = audit(net)
            assert totals.neurons == report.total_neurons
            assert totals.weight_entries == report.total_weight_entries
            assert totals.bias_count == report.total_biases
            runs.append({"n": n, "d": d, "delta": delta, "errors": errors,
                         "report": report, "max_int_weight": max_int})
    return runs


@pytest.fixture(scope="module")
def sweep_runs():
    """Criterion-6 grid over deltas and seeds at fixed (n, d)."""
    runs = []
    for delta_idx, delta in enumerate(SWEEP_DELTAS):
        mode = SeparationMode.distance(delta)
        for seed in range(SWEEP_SEEDS):
            ds = generate_separated_dataset(
                SWEEP_N, SWEEP_D, mode, seed=4000 + 10 * delta_idx + seed
            )
            cfg = ConstructionConfig(mode=mode, seed=5000 + 10 * delta_idx + seed)
            net, report = construct_memorizer(ds, cfg)
            max_int = max(layer.max_abs_weight() for layer in net.layers[1:])
            runs.append({"delta": delta, "report": report, "max_int_weight": max_int})
    return runs


# ---------------------------------------------------------------------------


@criterion(1, "memorization contract, zero recall errors")
def test_memorization_contract(memorization_runs):
    assert len(memorization_runs) == len(MEMORIZATION_CONFIGS) * LABELINGS_PER_CONFIG
    total_errors = sum(run["errors"] for run in memorization_runs)
    assert total_errors == 0


@criterion(2, "XOR compiler equals the parity oracle within budget")
def test_xor_compiler_equivalence():
    rng = np.random.default_rng(42)
    for d1 in range(1, 11):
        inputs = np.array(list(itertools.product((0, 1), repeat=d1)), dtype=np.uint8)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            masks = rng.integers(0, 2, (m, d1), dtype=np.uint8)
            sub = build_xor_subnetwork(CompressionPlan(masks), d1)
            got = evaluate_layers(sub.layers, inputs)
            want = apply_compression(inputs, masks)
            assert np.array_equal(got, want)  # zero mismatches over all 2^d1
            # the gadget neurons are exactly the fan-in-2 rows, 3 weights
            # each with the bias; copies and constants have fan-in <= 1
            fan_in = np.concatenate([np.diff(layer.weights.indptr) for layer in sub.layers])
            gadgets = fan_in == 2
            assert np.count_nonzero(gadgets) == sub.gadget_neurons
            assert sub.gadget_neurons <= 3 * max(d1 - 1, 0) * m
            assert np.all(fan_in[~gadgets] <= 1)
            gadget_weights = int(fan_in[gadgets].sum()) + np.count_nonzero(gadgets)
            assert gadget_weights == 3 * sub.gadget_neurons <= 9 * max(d1 - 1, 0) * m
            total_neurons = sum(layer.out_dim for layer in sub.layers)
            assert total_neurons == sub.gadget_neurons + sub.padding_neurons


def _random_distinct_codes(rng, n, length):
    for _ in range(50):
        codes = rng.integers(0, 2, (n, length), dtype=np.uint8)
        if len({c.tobytes() for c in codes}) == n:
            return codes
    raise AssertionError("could not draw distinct codes")


@criterion(3, "prefix partitions satisfy every invariant")
def test_prefix_partition_invariants():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(np.round(10 ** rng.uniform(0, math.log10(4096))))
        n = max(1, min(n, 4096))
        length = math.ceil(3 * math.log2(10 * n))
        codes = _random_distinct_codes(rng, n, length)
        part = prefix_partition(codes)
        cap = ceil_sqrt(n)

        prefixes = [s.prefix for s in part.subsets]
        assert len(set(prefixes)) == len(prefixes)
        for a in prefixes:
            for b in prefixes:
                if a != b:
                    assert not b.startswith(a) and not a.startswith(b)

        by_prefix = {s.prefix: set(int(i) for i in s.member_indices) for s in part.subsets}
        lengths = sorted({len(p) for p in prefixes})
        strings = ["".join(map(str, c)) for c in codes]
        for i, s in enumerate(strings):
            hits = [s[:l] for l in lengths if s[:l] in by_prefix]
            assert len(hits) == 1  # covered exactly once, by prefix match
            assert i in by_prefix[hits[0]]

        assert part.max_subset_size <= cap
        assert all(len(v) <= cap for v in by_prefix.values())
        assert part.K <= math.sqrt(n) * length


@criterion(4, "Gaussian hyperplane separation frequency = delta / 2pi")
def test_gaussian_separation_frequency():
    delta = 0.5
    u = np.zeros(8)
    u[0] = 1.0
    v = np.zeros(8)
    v[0], v[1] = math.cos(delta), math.sin(delta)
    rng = np.random.default_rng(424242)
    W = rng.standard_normal((100_000, 8))
    pu, pv = W @ u, W @ v
    freq = float(((pu > 0) & (pv < 0)).mean())
    assert abs(freq - 0.0796) <= 0.005


@criterion(5, "random mask separates a one-bit difference half the time")
def test_mask_separation_frequency():
    rng = np.random.default_rng(31337)
    length = 30
    z1 = np.zeros(length, dtype=np.uint8)
    z2 = z1.copy()
    z2[7] = 1
    masks = rng.integers(0, 2, (10_000, length), dtype=np.uint8)
    bits = apply_compression(np.stack([z1, z2]), masks)
    freq = float((bits[0] != bits[1]).mean())
    assert abs(freq - 0.5) <= 0.02


@criterion(6, "first-layer width scales near-linearly with 1/delta")
def test_delta_scaling(sweep_runs):
    xs, ys = [], []
    for run in sweep_runs:
        report = run["report"]
        xs.append(math.log(1.0 / run["delta"]))
        ys.append(math.log(report.d1))
        # totals no larger than the recorded closed-form budget, recomputed here
        bound = (report.d1 + 3 * (report.d1 - 1) * report.d2
                 + report.xor_padding_neurons + (report.K + report.d2)
                 + report.K * (report.d2 + 1) + ceil_sqrt(report.n) + 1)
        assert bound == report.neuron_bound
        assert report.total_neurons <= bound
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert 0.8 <= slope <= 1.2


@criterion(7, "integer weights bounded by d2 + 1 in every constructed net")
def test_integer_weight_bound(memorization_runs, sweep_runs):
    for run in memorization_runs + sweep_runs:
        assert run["max_int_weight"] <= run["report"].d2 + 1


@criterion(8, "clustered lower-bound datasets are valid across 20 seeds")
def test_cluster_dataset_validity():
    from scipy.spatial.distance import pdist

    for seed in range(20):
        cds = build_cluster_dataset(64, 8, 0.05, seed=seed)
        assert np.allclose(np.linalg.norm(cds.points, axis=1), 1.0, atol=1e-9)
        assert float(pdist(cds.points).min()) >= 0.05
        for ci in range(8):
            block = cds.labels[cds.cluster_ids == ci]
            assert len(block) == 8 and int(block.sum()) == 4


def _loop_separated(points, labels, planes, mode):
    n = len(points)
    separated = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mode == OPPOSITE_LABEL_PAIRS and labels[i] == labels[j]:
                continue
            total += 1
            if any(
                np.sign(p.normal @ points[i] + p.offset)
                * np.sign(p.normal @ points[j] + p.offset)
                < 0
                for p in planes
            ):
                separated += 1
    return separated, total


def _exhaustive_min_cover(points, labels, mode):
    n = len(points)
    if mode == ALL_PAIRS:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] != labels[j]]
    if not pairs:
        return 0
    masks = []
    for plane in _candidate_bisectors(np.asarray(points, dtype=float)):
        signs = np.sign(plane.signed_distances(points))
        mask = 0
        for b, (i, j) in enumerate(pairs):
            if signs[i] * signs[j] < 0:
                mask |= 1 << b
        masks.append(mask)
    full = (1 << len(pairs)) - 1
    for k in range(0, len(masks) + 1):
        for combo in itertools.combinations(masks, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return k
    raise AssertionError("bisectors cannot cover the required pairs")


@criterion(9, "separation counters agree with definitional brute force")
def test_bruteforce_oracles():
    rng = np.random.default_rng(90)
    for trial in range(50):
        n = int(rng.integers(2, 11))
        points = rng.standard_normal((n, 2))
        labels = rng.integers(0, 2, n)
        planes = [
            Hyperplane.from_general(rng.standard_normal(2), 0.3 * rng.standard_normal())
            for _ in range(int(rng.integers(1, 5)))
        ]
        for mode in (ALL_PAIRS, OPPOSITE_LABEL_PAIRS):
            got = count_separated_pairs(points, labels, planes, mode)
            assert (got.separated, got.total) == _loop_separated(points, labels, planes, mode)
        k_all = min_hyperplanes_bruteforce(points, labels, ALL_PAIRS)
        assert k_all >= math.ceil(math.log2(n))
        assert k_all == _exhaustive_min_cover(points, labels, ALL_PAIRS)


@criterion(10, "capacity calculator agrees with its second path")
def test_capacity_two_paths():
    log10_2 = math.log10(2.0)
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 1001))
        d = int(rng.integers(2, 65))
        delta = float(10 ** rng.uniform(-3, math.log10(0.4)))
        q = CapacityQuery(n, d, delta)
        lo = bits_lower_bound(q).bits
        hi = bits_upper_bound(q).bits

        # second evaluation path: base-10 logarithms throughout
        log2_p = (d - 1) * (-math.log10(4.0 * delta)) / log10_2
        lo2 = float(n) if log2_p <= 1.0 else max(float(n), math.log10(log2_p) / log10_2)
        ln_2c = (log10_2 + d * (math.log10(4.0) - math.log10(delta))) * math.log(10.0)
        hi2 = n + math.log10(n) / log10_2 + math.log10(ln_2c) / log10_2

        assert lo == pytest.approx(lo2, rel=1e-9, abs=1e-9)
        assert hi == pytest.approx(hi2, rel=1e-9)
        assert hi >= lo
        scale = (math.log2(max(n, 2)) + math.log2(d)
                 + math.log2(max(math.log2(1.0 / delta), 1.01)))
        assert (hi - lo) <= 10 * scale


@criterion(11, "manifest reruns reproduce the network exactly")
def test_manifest_rerun_determinism(tmp_path):
    ds_path = tmp_path / "ds.csv"
    net_path = tmp_path / "net.json"
    args = ["generate", "--n", "256", "--d", "16", "--delta", "0.2",
            "--seed", "6", "--out", str(ds_path)]
    assert cli_main(args) == 0
    assert cli_main(["build", "--dataset", str(ds_path), "--mode", "distance",
                     "--delta", "0.2", "--seed", "11", "--out", str(net_path),
                     "--report", str(tmp_path / "report.json")]) == 0
    first = json.loads(net_path.read_text())
    first_bytes = net_path.read_bytes()
    net_path.unlink()
    assert cli_main(["build", "--from-manifest", str(tmp_path / "net.manifest.json")]) == 0
    second = json.loads(net_path.read_text())

    assert net_path.read_bytes() == first_bytes
    for la, lb in zip(first["layers"], second["layers"]):
        assert la["domain"] == lb["domain"]
        if la["domain"] == "integer":
            assert la == lb  # bit-exact integer layers
        else:
            # identical shortest round-trip decimal serializations
            assert json.dumps(la) == json.dumps(lb)

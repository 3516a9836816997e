import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshmem import construct
from threshmem.construct import (
    ConstructionConfig,
    ConstructionRetryError,
    DatasetNotSeparatedError,
    build_expansion_layer,
    build_first_layer,
    build_memorization_layer,
    build_output_layer,
    build_selector_layer,
    build_xor_subnetwork,
    ceil_sqrt,
    construct_memorizer,
    gf2_inner_product,
    plan_compression,
    prefix_partition,
)
from threshmem.construct import CompressionPlan
from threshmem.geometry import Dataset, SeparationMode
from threshmem.netcore import (
    ThresholdLayer,
    audit,
    evaluate_layers,
    forward,
    forward_batch,
    serialize,
)


def distance_cfg(delta, seed=0, **kw):
    return ConstructionConfig(mode=SeparationMode.distance(delta), seed=seed, **kw)


def angular_cfg(delta, seed=0, **kw):
    return ConstructionConfig(mode=SeparationMode.angular(delta), seed=seed, **kw)


def random_distinct_codes(rng, n, length):
    codes = rng.integers(0, 2, (n, length), dtype=np.uint8)
    while len({c.tobytes() for c in codes}) < n:
        codes = rng.integers(0, 2, (n, length), dtype=np.uint8)
    return codes


def verify_partition(part, codes):
    """Independent re-check of every partition invariant from raw codes."""
    n, length = codes.shape
    cap = ceil_sqrt(n)
    prefixes = [s.prefix for s in part.subsets]
    # prefix-free: no prefix extends another
    for a in prefixes:
        for b in prefixes:
            if a is not b:
                assert not b.startswith(a) or a == b
    assert len(set(prefixes)) == len(prefixes)
    strings = ["".join(str(bit) for bit in code) for code in codes]
    seen = np.zeros(n, dtype=int)
    for sub in part.subsets:
        assert 1 <= len(sub.member_indices) <= cap
        for idx in sub.member_indices:
            assert strings[idx].startswith(sub.prefix)
            seen[idx] += 1
    assert np.all(seen == 1)
    # membership is exact prefix match: nothing outside a subset matches it
    for sub in part.subsets:
        matching = {i for i, s in enumerate(strings) if s.startswith(sub.prefix)}
        assert matching == set(int(i) for i in sub.member_indices)
    assert part.K <= math.sqrt(n) * length


# ---------------------------------------------------------------------------
# Step 1


def reference_duplicate_groups(codes):
    seen = {}
    for i in range(codes.shape[0]):
        seen.setdefault(codes[i].tobytes(), []).append(i)
    return [g for g in seen.values() if len(g) > 1]


@given(st.integers(1, 20), st.integers(1, 70), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_duplicate_groups_equal_reference(length, n, seed):
    # the groups' order decides which pair a first-layer failure names
    codes = np.random.default_rng(seed).integers(0, 2, (n, length), dtype=np.uint8)
    assert construct._duplicate_groups(codes) == reference_duplicate_groups(codes)


def test_first_layer_antipodal_pair_angular():
    # every non-degenerate homogeneous hyperplane separates antipodal
    # points, so every code bit differs and no retry can occur
    ds = Dataset([[1.0, 0.0], [-1.0, 0.0]], [0, 1])
    cfg = angular_cfg(math.pi)
    result = build_first_layer(ds, cfg)
    assert result.retries == 0
    assert result.m_used == cfg.first_layer_width(2)
    assert np.all(result.codes[0] != result.codes[1])


def test_first_layer_single_point_no_retry():
    ds = Dataset([[0.2, 0.1, 0.0]], [1])
    cfg = distance_cfg(0.3)
    result = build_first_layer(ds, cfg)
    assert result.retries == 0
    assert result.m_used == cfg.first_layer_width(1)
    assert result.codes.shape == (1, result.m_used)


def test_first_layer_codes_match_layer_evaluation():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((12, 5)) * 0.2
    ds = Dataset(X, rng.integers(0, 2, 12))
    result = build_first_layer(ds, distance_cfg(0.01, seed=5))
    again = evaluate_layers([result.layer], ds.features)
    assert np.array_equal(result.codes, again)


@pytest.mark.parametrize("mode", ["distance", "angular"])
def test_first_layer_retry_exhaustion_names_worst_pair(mode):
    # two points closer than delta claims: collisions never resolve at
    # realistic widths, so the builder must fail loudly and name the pair;
    # in angular mode the pair is eps radians apart, an angle whose cosine
    # rounds to 1
    eps = 1e-12
    if mode == "distance":
        ds = Dataset([[0.5, 0.0], [0.5 + eps, 0.0], [-0.5, 0.0]], [0, 1, 0])
        cfg = distance_cfg(0.4, seed=1, max_retries=3)
    else:
        ds = Dataset([[1.0, 0.0], [math.cos(eps), math.sin(eps)], [-1.0, 0.0]], [0, 1, 0])
        cfg = angular_cfg(0.4, seed=1, max_retries=3)
    with pytest.raises(ConstructionRetryError) as exc_info:
        build_first_layer(ds, cfg)
    assert exc_info.value.worst_pair == (0, 1)
    # abs=0: approx's default absolute tolerance of 1e-12 would accept 0
    assert exc_info.value.worst_value == pytest.approx(eps, rel=1e-3, abs=0)


def test_first_layer_separation_frequency_monte_carlo():
    # the oriented event {w.u > 0 > w.v} happens iff w falls inside a cone
    # of angle delta, so its probability is exactly delta / (2 pi); the
    # unoriented split is twice that
    delta = 0.5
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([math.cos(delta), math.sin(delta), 0.0, 0.0])
    rng = np.random.default_rng(123)
    W = rng.standard_normal((20_000, 4))
    pu, pv = W @ u, W @ v
    oriented = float(((pu > 0) & (pv < 0)).mean())
    split = float(((pu * pv) < 0).mean())
    assert oriented == pytest.approx(delta / (2 * math.pi), abs=0.01)
    assert split == pytest.approx(delta / math.pi, abs=0.015)


# ---------------------------------------------------------------------------
# Step 2: parities and masks


def test_gf2_inner_product_examples():
    assert gf2_inner_product([1, 0, 1], [1, 1, 1]) == 0
    assert gf2_inner_product([0, 0, 0, 0], [1, 0, 1, 1]) == 0
    assert gf2_inner_product([1, 1, 0, 1], [0, 1, 1, 1]) == 0
    assert gf2_inner_product([1, 0], [1, 0]) == 1
    with pytest.raises(ValueError):
        gf2_inner_product([1, 0], [1, 0, 1])


@given(st.integers(min_value=1, max_value=32), st.data())
@settings(max_examples=60, deadline=None)
def test_gf2_inner_product_is_linear(length, data):
    bits = st.lists(st.integers(0, 1), min_size=length, max_size=length)
    z1 = np.array(data.draw(bits), dtype=np.uint8)
    z2 = np.array(data.draw(bits), dtype=np.uint8)
    mask = np.array(data.draw(bits), dtype=np.uint8)
    lhs = gf2_inner_product(np.bitwise_xor(z1, z2), mask)
    rhs = gf2_inner_product(z1, mask) ^ gf2_inner_product(z2, mask)
    assert lhs == rhs


def test_plan_compression_width_and_distinctness():
    rng = np.random.default_rng(0)
    codes = random_distinct_codes(rng, 16, 20)
    cfg = distance_cfg(0.1, seed=3, eps2=0.1)
    result = plan_compression(codes, cfg)
    # ceil(3 log2(16 / 0.1)) = ceil(21.97) = 22
    assert result.plan.m == 22
    assert result.compressed.shape == (16, 22)
    assert len({c.tobytes() for c in result.compressed}) == 16
    # compressed bits agree with the scalar parity oracle
    for i in (0, 7, 15):
        for k in (0, 11, 21):
            assert result.compressed[i, k] == gf2_inner_product(codes[i], result.plan.masks[k])


def test_plan_compression_rejects_duplicates():
    codes = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="distinct"):
        plan_compression(codes, distance_cfg(0.1))


def test_plan_compression_retry_schedule(monkeypatch):
    # three attempts per width, then the width doubles, for exactly
    # max_retries attempts
    widths = []

    def always_collide(codes, masks):
        widths.append(masks.shape[0])
        return np.zeros((codes.shape[0], masks.shape[0]), dtype=np.uint8)

    monkeypatch.setattr(construct, "apply_compression", always_collide)
    codes = random_distinct_codes(np.random.default_rng(0), 16, 20)
    cfg = distance_cfg(0.1, max_retries=8)
    w = cfg.compression_width(16)
    with pytest.raises(ConstructionRetryError) as exc_info:
        plan_compression(codes, cfg)
    assert widths == [w, w, w, 2 * w, 2 * w, 2 * w, 4 * w, 4 * w]
    assert str(exc_info.value) == (
        f"mask compression failed to stay injective after 8 retries "
        f"(width reached {4 * w}); this signals a configuration error"
    )


def test_mask_separation_frequency_monte_carlo():
    # codes differing in exactly one bit are split by a mask iff the mask
    # is 1 there: frequency 0.5
    rng = np.random.default_rng(7)
    z1 = np.zeros(24, dtype=np.uint8)
    z2 = z1.copy()
    z2[0] = 1
    masks = rng.integers(0, 2, (4000, 24), dtype=np.uint8)
    freq = np.mean([
        gf2_inner_product(z1, m) != gf2_inner_product(z2, m) for m in masks
    ])
    assert freq == pytest.approx(0.5, abs=0.03)


# ---------------------------------------------------------------------------
# Step 2: XOR compiler


def subnetwork_outputs(sub, zs):
    return evaluate_layers(sub.layers, np.asarray(zs))


def test_xor_gadget_truth_table_via_builder():
    plan = CompressionPlan(np.array([[1, 1]], dtype=np.uint8))
    sub = build_xor_subnetwork(plan, 2)
    for a, b in itertools.product((0, 1), repeat=2):
        assert subnetwork_outputs(sub, [[a, b]])[0, 0] == a ^ b


def test_xor_single_full_mask_parity():
    plan = CompressionPlan(np.array([[1, 1, 1, 1]], dtype=np.uint8))
    sub = build_xor_subnetwork(plan, 4)
    assert subnetwork_outputs(sub, [[1, 1, 0, 1]])[0, 0] == 1
    assert subnetwork_outputs(sub, [[1, 1, 0, 0]])[0, 0] == 0


def test_xor_subnetwork_matches_oracle_exhaustively():
    rng = np.random.default_rng(11)
    for trial in range(20):
        d1 = int(rng.integers(1, 11))
        m = int(rng.integers(1, 5))
        masks = rng.integers(0, 2, (m, d1), dtype=np.uint8)
        sub = build_xor_subnetwork(CompressionPlan(masks), d1)
        zs = np.array(list(itertools.product((0, 1), repeat=d1)), dtype=np.uint8)
        got = subnetwork_outputs(sub, zs)
        want = np.array([[gf2_inner_product(z, mk) for mk in masks] for z in zs])
        assert np.array_equal(got, want)


def test_xor_subnetwork_budget():
    rng = np.random.default_rng(13)
    for trial in range(10):
        d1 = int(rng.integers(2, 16))
        m = int(rng.integers(1, 6))
        masks = rng.integers(0, 2, (m, d1), dtype=np.uint8)
        sub = build_xor_subnetwork(CompressionPlan(masks), d1)
        # gadget neurons are exactly the fan-in-2 rows; copies and constants
        # have fan-in 1 and 0
        fan_in = np.concatenate([np.diff(layer.weights.indptr) for layer in sub.layers])
        gadgets = fan_in == 2
        assert np.count_nonzero(gadgets) == sub.gadget_neurons <= 3 * (d1 - 1) * m
        assert np.all(fan_in[~gadgets] <= 1)
        gadget_weights = int(fan_in[gadgets].sum()) + np.count_nonzero(gadgets)
        assert gadget_weights == 3 * sub.gadget_neurons <= 9 * (d1 - 1) * m
        totals = sum(layer.out_dim for layer in sub.layers)
        assert totals == sub.gadget_neurons + sub.padding_neurons


def test_xor_subnetwork_all_zero_mask():
    plan = CompressionPlan(np.array([[0, 0, 0], [1, 0, 1]], dtype=np.uint8))
    sub = build_xor_subnetwork(plan, 3)
    zs = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.uint8)
    got = subnetwork_outputs(sub, zs)
    assert np.all(got[:, 0] == 0)
    want = np.array([gf2_inner_product(z, plan.masks[1]) for z in zs])
    assert np.array_equal(got[:, 1], want)


# ---------------------------------------------------------------------------
# Step 3: partition and selector


def test_prefix_partition_four_codes():
    codes = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    part = prefix_partition(codes)
    assert part.K == 2
    by_prefix = {s.prefix: sorted(s.member_indices) for s in part.subsets}
    assert by_prefix == {"0": [0, 1], "1": [2, 3]}


def test_prefix_partition_single_code():
    part = prefix_partition(np.array([[1, 0, 1]], dtype=np.uint8))
    assert part.K == 1
    assert part.subsets[0].prefix == ""
    assert list(part.subsets[0].member_indices) == [0]


def test_prefix_partition_rejects_duplicates():
    codes = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="distinct"):
        prefix_partition(codes)


def test_prefix_partition_invariants_random():
    rng = np.random.default_rng(19)
    codes = random_distinct_codes(rng, 100, 12)
    part = prefix_partition(codes)
    verify_partition(part, codes)
    assert part.max_subset_size <= 10


def test_selector_layer_indicator_arithmetic():
    # prefix "10": sigma(z1 - z2 - 1) fires on 10xx, not on 11xx / 0xxx
    codes = np.array([[1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)
    part = prefix_partition(codes)  # cap 2: root splits once
    layer = build_selector_layer(part, 4)
    assert layer.out_dim == part.K + 4
    out = evaluate_layers([layer], codes)
    for i, code in enumerate(codes):
        s = out[i, : part.K]
        text = "".join(map(str, code))
        want = [1 if text.startswith(sub.prefix) else 0 for sub in part.subsets]
        assert list(s) == want
        assert np.array_equal(out[i, part.K :], code)  # copy neurons


def test_selector_copy_neurons():
    part = prefix_partition(np.array([[0], [1]], dtype=np.uint8))
    layer = build_selector_layer(part, 1)
    out = evaluate_layers([layer], np.array([[0], [1]], dtype=np.uint8))
    assert out[0, part.K] == 0 and out[1, part.K] == 1


def test_selector_hand_example_prefix_10():
    # indicator for prefix "10" is sigma(z1 - z2 - 1): fires on 10xx via
    # sigma(1 - 0 - 1) = sigma(0) = 1, rejects 11xx via sigma(1 - 1 - 1) = 0
    from threshmem.construct import PrefixPartition, PrefixSubset

    part = PrefixPartition([PrefixSubset("10", np.array([0]))])
    layer = build_selector_layer(part, 4)
    fires = evaluate_layers([layer], np.array([[1, 0, 1, 1]], dtype=np.uint8))
    rejects = evaluate_layers([layer], np.array([[1, 1, 0, 0]], dtype=np.uint8))
    assert fires[0, 0] == 1
    assert rejects[0, 0] == 0


# ---------------------------------------------------------------------------
# Step 4


def test_expansion_layer_one_hot_placement():
    codes = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    part = prefix_partition(codes)
    d2 = 2
    layer = build_expansion_layer(part, d2)
    assert layer.out_dim == part.K * (d2 + 1)
    # s one-hot at subset 0, z = (1, 0) -> chunk 0 reads (1, 1, 0)
    inp = np.zeros(part.K + d2, dtype=np.uint8)
    inp[0] = 1
    inp[part.K] = 1
    out = evaluate_layers([layer], inp[None, :])[0]
    assert list(out) == [1, 1, 0] + [0] * (d2 + 1) * (part.K - 1)


def test_expansion_layer_all_zero_selector():
    part = prefix_partition(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8))
    layer = build_expansion_layer(part, 2)
    out = evaluate_layers([layer], np.zeros((1, part.K + 2), dtype=np.uint8))[0]
    assert not out.any()


def test_expansion_layer_random_inputs_single_chunk():
    rng = np.random.default_rng(3)
    codes = random_distinct_codes(rng, 50, 9)
    part = prefix_partition(codes)
    d2 = 9
    sel = build_selector_layer(part, d2)
    exp = build_expansion_layer(part, d2)
    out = evaluate_layers([sel, exp], codes)
    for i in range(50):
        chunks = out[i].reshape(part.K, d2 + 1)
        active = np.flatnonzero(chunks[:, 0])
        assert len(active) == 1
        assert np.array_equal(chunks[active[0], 1:], codes[i])
        others = np.delete(chunks, active[0], axis=0)
        assert not others.any()


def test_memorization_neuron_arithmetic_single_subset():
    # one subset, one code z = (1, 1) labeled 1: chunk (-1, 1, 1) and bias
    # -1 score 0 on the member's expanded code and sigma(0) = 1 recalls it
    codes = np.array([[1, 1]], dtype=np.uint8)
    part = prefix_partition(codes)
    layer = build_memorization_layer(part, codes, np.array([1]))
    W = layer.weights.toarray()
    assert list(W[0]) == [-1, 1, 1]
    assert list(layer.biases) == [-1]
    out = evaluate_layers([layer], np.array([[1, 1, 1]], dtype=np.uint8))
    assert out[0, 0] == 1


def test_memorization_neuron_rejects_other_codes():
    codes = np.array([[1, 1], [1, 0]], dtype=np.uint8)
    part = prefix_partition(codes)
    labels = np.array([1, 1])
    layer = build_memorization_layer(part, codes, labels)
    # both codes share the one subset (cap 2); neuron 0 owns code (1,1)
    # and must reject the expanded code of (1,0): -1 + 1 - 1 (bias) = -1
    expanded_other = np.array([[1, 1, 0]], dtype=np.uint8)
    out = evaluate_layers([layer], expanded_other)
    assert out[0, 0] == 0


def test_memorization_chunk_without_entries_scores_minus_one():
    # subset "1" has two members, subset "0" only one; neuron 1 has no
    # entries in subset "0"'s chunk, so on that subset's code it scores its
    # bias -1 alone and stays silent
    codes = np.array([[0, 0, 0], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    part = prefix_partition(codes)
    sizes = {s.prefix: len(s.member_indices) for s in part.subsets}
    assert sorted(sizes.values()) == [1, 2]
    labels = np.array([1, 1, 1])
    d2 = 3
    sel = build_selector_layer(part, d2)
    exp = build_expansion_layer(part, d2)
    mem = build_memorization_layer(part, codes, labels)
    short = [s.prefix for s in part.subsets].index("0")
    W = mem.weights.toarray()
    assert not W[1, short * (d2 + 1) : (short + 1) * (d2 + 1)].any()
    expanded = evaluate_layers([sel, exp], codes)
    assert W[1] @ expanded[0] + mem.biases[1] == -1
    out = evaluate_layers([sel, exp, mem], codes)
    # each sample activates exactly the neuron of its within-subset rank,
    # because all labels are 1
    for i, code in enumerate(codes):
        sub = next(s for s in part.subsets if "".join(map(str, code)).startswith(s.prefix))
        rank = list(sub.member_indices).index(i)
        want = np.zeros(mem.out_dim, dtype=int)
        want[rank] = 1
        assert list(out[i]) == list(want)


def test_output_layer_is_or_gate():
    layer = build_output_layer(4)
    zs = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
    out = evaluate_layers([layer], zs)
    assert list(out[:, 0]) == [0, 1, 1]


# ---------------------------------------------------------------------------
# End to end


def test_construct_single_point():
    for label in (0, 1):
        ds = Dataset([[0.3, -0.2, 0.1]], [label])
        net, report = construct_memorizer(ds, distance_cfg(0.5, seed=2))
        assert forward(net, ds.features[0]) == label
        assert report.K == 1 and report.max_subset_size == 1


def test_construct_two_points_root_subset():
    # cap = ceil(sqrt(2)) = 2 keeps both codes in the root subset, whose
    # empty prefix makes the lone indicator neuron fire unconditionally
    ds = Dataset([[0.4, 0.0], [-0.4, 0.0]], [1, 0])
    net, report = construct_memorizer(ds, distance_cfg(0.5, seed=1))
    assert report.K == 1
    assert report.max_subset_size == 2
    assert np.array_equal(forward_batch(net, ds.features), ds.labels)


def test_construct_constant_labelings():
    pts = np.array([[0.5, 0.1], [-0.4, 0.3], [0.0, -0.5]])
    for value in (0, 1):
        ds = Dataset(pts, np.full(3, value))
        net, _ = construct_memorizer(ds, distance_cfg(0.3, seed=4))
        assert np.array_equal(forward_batch(net, pts), np.full(3, value))


def test_construct_xor_hard_labeling():
    # no single hyperplane realizes this labeling; the deep construction must
    pts = np.array([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]])
    labels = np.array([1, 0, 0, 1])
    ds = Dataset(pts, labels)
    net, report = construct_memorizer(ds, distance_cfg(0.5, seed=3))
    assert np.array_equal(forward_batch(net, pts), labels)


@pytest.mark.parametrize("c_dist", [math.inf, math.nan])
def test_config_rejects_non_finite_c_dist(c_dist):
    with pytest.raises(ValueError, match="c_dist must be positive and finite"):
        distance_cfg(0.3, c_dist=c_dist)


def test_config_rejects_non_finite_width():
    # both quotients overflow to inf, which math.ceil cannot take
    with pytest.raises(ValueError, match="first-layer width inf is not finite"):
        distance_cfg(0.3, c_dist=1e308).first_layer_width(16)
    with pytest.raises(ValueError, match="compression width inf is not finite"):
        distance_cfg(0.3, eps2=5e-324).compression_width(16)


def test_construct_rejects_unseparated_dataset():
    ds = Dataset([[0.1, 0.0], [0.11, 0.0]], [0, 1])
    with pytest.raises(DatasetNotSeparatedError, match="worst pair"):
        construct_memorizer(ds, distance_cfg(0.5))


def test_construct_report_consistency_and_intermediate_codes():
    from threshmem.geometry import generate_separated_dataset

    mode = SeparationMode.distance(0.3)
    ds = generate_separated_dataset(48, 8, mode, seed=21)
    cfg = ConstructionConfig(mode=mode, seed=8)
    net, report = construct_memorizer(ds, cfg)

    # recall
    assert np.array_equal(forward_batch(net, ds.features), ds.labels)

    # report totals equal an independent traversal
    totals = audit(net)
    assert totals.neurons == report.total_neurons
    assert totals.weight_entries == report.total_weight_entries
    assert totals.bias_count == report.total_biases
    assert report.total_neurons <= report.neuron_bound
    assert report.d3 == report.K * (report.d2 + 1)

    # intermediate codes: stage-1 codes, compressed codes, selector layout
    first = build_first_layer(ds, cfg)
    comp = plan_compression(first.codes, cfg)
    spans = {s.step: s.layer_span for s in report.steps}
    z1 = evaluate_layers(net.layers[: spans["first_layer"][1]], ds.features)
    assert np.array_equal(z1, first.codes)
    z2 = evaluate_layers(net.layers[: spans["xor_compression"][1]], ds.features)
    assert np.array_equal(z2, comp.compressed)
    sz = evaluate_layers(net.layers[: spans["selector"][1]], ds.features)
    assert np.array_equal(sz[:, report.K :], comp.compressed)
    assert np.all(sz[:, : report.K].sum(axis=1) == 1)
    z3 = evaluate_layers(net.layers[: spans["expansion"][1]], ds.features)
    for i in range(ds.n):
        chunks = z3[i].reshape(report.K, report.d2 + 1)
        active = np.flatnonzero(chunks[:, 0])
        assert len(active) == 1
        assert np.array_equal(chunks[active[0], 1:], comp.compressed[i])

    # integer-weight bound: every layer past the first
    for layer in net.layers[1:]:
        assert layer.is_integer
        assert layer.max_abs_weight() <= report.d2 + 1


STAGES = ("check_separation", "build_first_layer", "plan_compression", "build_xor_subnetwork",
          "prefix_partition", "build_selector_layer", "build_expansion_layer",
          "build_memorization_layer", "build_output_layer", "forward_batch")


def test_construct_calls_each_stage_through_module_namespace(monkeypatch):
    # a per-stage trace wraps these names in construct's namespace, so
    # construct_memorizer must look each one up there at call time
    from threshmem.geometry import generate_separated_dataset

    calls = dict.fromkeys(STAGES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(construct, name, counting(name, getattr(construct, name)))
    mode = SeparationMode.distance(0.3)
    ds = generate_separated_dataset(24, 6, mode, seed=3)
    net, _ = construct_memorizer(ds, ConstructionConfig(mode=mode, seed=1))
    assert calls == dict.fromkeys(STAGES, 1)


def test_construct_deterministic():
    from threshmem.geometry import generate_separated_dataset

    mode = SeparationMode.distance(0.25)
    ds = generate_separated_dataset(40, 6, mode, seed=33)
    cfg = ConstructionConfig(mode=mode, seed=55)
    net1, _ = construct_memorizer(ds, cfg)
    net2, _ = construct_memorizer(ds, cfg)
    assert serialize(net1) == serialize(net2)


def test_construct_angular_mode():
    from threshmem.geometry import generate_separated_dataset

    mode = SeparationMode.angular(0.25)
    ds = generate_separated_dataset(32, 6, mode, seed=4)
    net, report = construct_memorizer(ds, ConstructionConfig(mode=mode, seed=10))
    assert np.array_equal(forward_batch(net, ds.features), ds.labels)
    # homogeneous first layer: all biases zero
    assert not net.layers[0].biases.any()


def test_construct_first_layer_is_real_rest_integer():
    from threshmem.geometry import generate_separated_dataset

    mode = SeparationMode.distance(0.3)
    ds = generate_separated_dataset(20, 5, mode, seed=6)
    net, _ = construct_memorizer(ds, ConstructionConfig(mode=mode, seed=1))
    assert net.layers[0].domain == "real"
    assert all(layer.is_integer for layer in net.layers[1:])


# ---------------------------------------------------------------------------
# Layer builders against row-at-a-time reference copies


class _ReferenceLayerSink:
    """Accumulates sparse rows for one layer under construction."""

    def __init__(self, in_dim: int):
        self.in_dim = in_dim
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[int] = []
        self.biases: list[int] = []

    def add_row(self, entries, bias: int) -> int:
        idx = len(self.biases)
        for col, val in entries:
            if val != 0:
                self.rows.append(idx)
                self.cols.append(col)
                self.vals.append(val)
        self.biases.append(bias)
        return idx

    def build(self) -> ThresholdLayer:
        return ThresholdLayer.integer_from_entries(
            len(self.biases), self.in_dim, self.rows, self.cols, self.vals,
            np.array(self.biases, dtype=np.int64),
        )


def reference_xor_subnetwork(masks, d1):
    """(layers, gadget_neurons, padding_neurons, gadget_weights,
    padding_weights), built one row at a time with hand-kept counters."""
    m = masks.shape[0]
    signals = [list(np.flatnonzero(masks[k])) for k in range(m)]
    levels = max(((len(s) - 1).bit_length() if s else 0) for s in signals)

    layers = []
    gadget_neurons = padding_neurons = 0
    gadget_weights = padding_weights = 0

    if levels == 0:
        sink = _ReferenceLayerSink(d1)
        for s in signals:
            if s:
                sink.add_row([(s[0], 2)], -1)
                padding_weights += 2
            else:
                sink.add_row([], -1)
                padding_weights += 1
            padding_neurons += 1
        layers.append(sink.build())
        return layers, 0, padding_neurons, 0, padding_weights

    in_dim = d1
    for level in range(levels):
        half = _ReferenceLayerSink(in_dim)
        plan_rows = []
        for s in signals:
            ops = []
            if not s:
                idx = half.add_row([], -1)
                padding_neurons += 1
                padding_weights += 1
                ops.append(("copy", idx))
            else:
                for p in range(len(s) // 2):
                    a, b = s[2 * p], s[2 * p + 1]
                    u = half.add_row([(a, 1), (b, -1)], -1)
                    v = half.add_row([(b, 1), (a, -1)], -1)
                    gadget_neurons += 2
                    gadget_weights += 6
                    ops.append(("xor", u, v))
                if len(s) % 2 == 1:
                    idx = half.add_row([(s[-1], 2)], -1)
                    padding_neurons += 1
                    padding_weights += 2
                    ops.append(("copy", idx))
            plan_rows.append(ops)
        layers.append(half.build())

        combine = _ReferenceLayerSink(len(half.biases))
        new_signals = []
        for ops in plan_rows:
            outs = []
            for op in ops:
                if op[0] == "xor":
                    outs.append(combine.add_row([(op[1], 1), (op[2], 1)], -1))
                    gadget_neurons += 1
                    gadget_weights += 3
                else:
                    outs.append(combine.add_row([(op[1], 2)], -1))
                    padding_neurons += 1
                    padding_weights += 2
            new_signals.append(outs)
        layers.append(combine.build())
        signals = new_signals
        in_dim = len(combine.biases)
    return layers, gadget_neurons, padding_neurons, gadget_weights, padding_weights


def reference_selector_layer(part, d2):
    sink = _ReferenceLayerSink(d2)
    for sub in part.subsets:
        entries = [(j, 2 * int(bit) - 1) for j, bit in enumerate(sub.prefix)]
        sink.add_row(entries, -sub.prefix.count("1"))
    for j in range(d2):
        sink.add_row([(j, 2)], -1)
    return sink.build()


def reference_expansion_layer(part, d2):
    K = part.K
    sink = _ReferenceLayerSink(K + d2)
    for i in range(K):
        sink.add_row([(i, 1)], -1)
        for j in range(d2):
            sink.add_row([(i, 1), (K + j, 1)], -2)
    return sink.build()


def reference_memorization_layer(part, codes, labels):
    d2 = codes.shape[1]
    ones = [[int(i) for i in sub.member_indices if labels[i] == 1] for sub in part.subsets]
    R = max(1, max(len(members) for members in ones))
    sink = _ReferenceLayerSink(part.K * (d2 + 1))
    for i in range(R):
        entries = []
        for j, members in enumerate(ones):
            if i < len(members):
                base = j * (d2 + 1)
                z = codes[members[i]]
                entries.append((base, 1 - int(z.sum())))
                entries.extend((base + 1 + jj, 2 * int(z[jj]) - 1) for jj in range(d2))
        sink.add_row(entries, -1)
    return sink.build()


def reference_output_layer(width):
    sink = _ReferenceLayerSink(width)
    sink.add_row([(j, 2) for j in range(width)], -1)
    return sink.build()


@st.composite
def mask_matrices(draw):
    """(m, d1) masks whose rows are empty, one live bit, all ones or random."""
    d1 = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["empty", "single", "ones", "random"]))
        row = np.zeros(d1, dtype=np.uint8)
        if kind == "single":
            row[draw(st.integers(0, d1 - 1))] = 1
        elif kind == "ones":
            row[:] = 1
        elif kind == "random":
            row[:] = draw(st.lists(st.integers(0, 1), min_size=d1, max_size=d1))
        rows.append(row)
    return np.array(rows)


@given(mask_matrices())
@example(np.zeros((2, 3), dtype=np.uint8))  # every mask empty: one constant layer
@example(np.eye(3, dtype=np.uint8))  # one live bit each: one copy layer
@example(np.ones((1, 1), dtype=np.uint8))  # d1 = 1
@example(np.array([[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0]], dtype=np.uint8))
@settings(max_examples=200, deadline=None)
def test_xor_subnetwork_equals_reference(masks):
    d1 = masks.shape[1]
    sub = build_xor_subnetwork(CompressionPlan(masks), d1)
    layers, gadget_neurons, padding_neurons, gadget_weights, _ = reference_xor_subnetwork(masks, d1)
    assert sub.layers == layers
    assert (sub.gadget_neurons, sub.padding_neurons) == (gadget_neurons, padding_neurons)
    assert gadget_weights == 3 * gadget_neurons


@st.composite
def labeled_codes(draw):
    """Distinct codes of length 1..8 with labels."""
    d2 = draw(st.integers(1, 8))
    ints = draw(st.lists(st.integers(0, 2**d2 - 1), min_size=1, max_size=40, unique=True))
    codes = ((np.array(ints)[:, None] >> np.arange(d2)) & 1).astype(np.uint8)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=len(ints), max_size=len(ints))))
    return codes, labels


@given(labeled_codes())
@example((np.array([[1, 0, 1]], dtype=np.uint8), np.array([1])))  # n = 1: the root subset
@example((np.array([[0, 0, 0], [1, 0, 1], [1, 1, 0]], dtype=np.uint8), np.array([1, 0, 1])))
@settings(max_examples=200, deadline=None)
def test_partition_layers_equal_reference(case):
    codes, labels = case
    d2 = codes.shape[1]
    part = prefix_partition(codes)
    assert build_selector_layer(part, d2) == reference_selector_layer(part, d2)
    assert build_expansion_layer(part, d2) == reference_expansion_layer(part, d2)
    assert (build_memorization_layer(part, codes, labels)
            == reference_memorization_layer(part, codes, labels))
    assert build_output_layer(part.max_subset_size) == reference_output_layer(part.max_subset_size)


LABEL_PATTERNS = ("zeros", "ones", "random", "one_subset_zero", "singletons")


@st.composite
def labeled_separated_sets(draw):
    """A separated set, a build config, and labels drawn against the set's
    prefix partition, which no label choice changes."""
    from threshmem.geometry import generate_separated_dataset

    mode = draw(st.sampled_from([SeparationMode.distance(0.3), SeparationMode.angular(0.3)]))
    ds = generate_separated_dataset(draw(st.integers(1, 40)), draw(st.integers(4, 8)), mode,
                                    seed=draw(st.integers(0, 2**16)))
    cfg = ConstructionConfig(mode=mode, seed=draw(st.integers(0, 2**16)))
    part = prefix_partition(plan_compression(build_first_layer(ds, cfg).codes, cfg).compressed)
    pattern = draw(st.sampled_from(LABEL_PATTERNS))
    labels = np.zeros(ds.n, dtype=np.int8)
    if pattern == "ones":
        labels[:] = 1
    elif pattern in ("random", "one_subset_zero"):
        labels[:] = draw(st.lists(st.integers(0, 1), min_size=ds.n, max_size=ds.n))
    if pattern == "one_subset_zero":
        labels[draw(st.sampled_from(part.subsets)).member_indices] = 0
    elif pattern == "singletons":  # label 1 exactly on the one-member subsets
        for sub in part.subsets:
            labels[sub.member_indices] = len(sub.member_indices) == 1
    return ds.relabeled(labels), cfg, part


@given(labeled_separated_sets())
@settings(max_examples=60, deadline=None)
def test_label_one_bank_recalls_every_label(case):
    ds, cfg, part = case
    net, report = construct_memorizer(ds, cfg)
    assert np.array_equal(forward_batch(net, ds.features), ds.labels)
    start, _ = next(s.layer_span for s in report.steps if s.step == "memorization")
    most_ones = max(int(ds.labels[sub.member_indices].sum()) for sub in part.subsets)
    assert net.layers[start].out_dim == max(1, most_ones)
    assert max(layer.max_abs_weight() for layer in net.layers[1:]) <= report.d2 + 1


@pytest.mark.parametrize("labels", [[0.5], [1.7], ["1"], [257], [float("nan")]])
def test_memorization_layer_refuses_non_bit_labels(labels):
    codes = np.array([[1, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="labels must be bits"):
        build_memorization_layer(prefix_partition(codes), codes, labels)

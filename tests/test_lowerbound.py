import itertools
import math

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from threshmem.geometry import SeparationMode, check_separation, load_clustered_csv
from threshmem.lowerbound import (
    ALL_PAIRS,
    OPPOSITE_LABEL_PAIRS,
    Hyperplane,
    build_cluster_dataset,
    count_separated_pairs,
    first_layer_pressure_experiment,
    min_hyperplanes_bruteforce,
    save_clustered_csv,
)


def brute_force_separated(points, labels, planes, mode):
    """Definitional double loop: the oracle any optimized path must match."""
    n = len(points)
    separated = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mode == OPPOSITE_LABEL_PAIRS and labels[i] == labels[j]:
                continue
            total += 1
            for plane in planes:
                si = np.sign(plane.normal @ points[i] + plane.offset)
                sj = np.sign(plane.normal @ points[j] + plane.offset)
                if si * sj < 0:
                    separated += 1
                    break
    return separated, total


def test_cluster_dataset_geometry():
    cds = build_cluster_dataset(16, 4, 0.05, seed=3)
    assert cds.points.shape == (16, 4)
    norms = np.linalg.norm(cds.points, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    # exhaustive pairwise check
    worst = min(
        np.linalg.norm(cds.points[i] - cds.points[j])
        for i in range(16)
        for j in range(i + 1, 16)
    )
    assert worst >= 0.05
    # each of the 4 clusters carries 2 zeros and 2 ones
    for ci in range(4):
        block = cds.labels[cds.cluster_ids == ci]
        assert len(block) == 4
        assert block.sum() == 2


def test_cluster_dataset_passes_distance_check():
    cds = build_cluster_dataset(25, 6, 0.1, seed=9)
    verdict = check_separation(cds.to_dataset(), SeparationMode.distance(0.1))
    assert verdict.holds


def test_cluster_dataset_odd_root_label_balance():
    cds = build_cluster_dataset(9, 5, 0.05, seed=1)
    for ci in range(3):
        block = cds.labels[cds.cluster_ids == ci]
        assert abs(int(block.sum()) - int((1 - block).sum())) <= 1


def test_cluster_dataset_validates_arguments():
    with pytest.raises(ValueError, match="perfect square"):
        build_cluster_dataset(15, 4, 0.05, seed=0)
    with pytest.raises(ValueError, match="d must be"):
        build_cluster_dataset(16, 2, 0.05, seed=0)


def test_hyperplane_normalization():
    with pytest.raises(ValueError):
        Hyperplane(np.array([1.0, 1.0]), 0.0)
    h = Hyperplane.from_general([3.0, 4.0], 5.0)
    assert np.linalg.norm(h.normal) == pytest.approx(1.0)
    assert h.offset == pytest.approx(1.0)


@pytest.mark.parametrize("normal, offset", [
    ([math.nan, 1.0], 0.0), ([math.inf, 1.0], 0.0), ([1.0, 0.0], math.nan), ([1.0, 0.0], -math.inf)])
def test_hyperplane_rejects_non_finite_values(normal, offset):
    # a NaN normal passes the unit-norm test and separates no pair
    with pytest.raises(ValueError, match="must be finite"):
        Hyperplane.from_general(normal, offset)
    with pytest.raises(ValueError, match="must be finite"):
        Hyperplane(np.array(normal), offset)


def test_two_points_one_plane():
    points = np.array([[-1.0, 0.0], [1.0, 0.0]])
    labels = np.array([0, 1])
    plane = Hyperplane(np.array([1.0, 0.0]), 0.1)
    result = count_separated_pairs(points, labels, [plane], OPPOSITE_LABEL_PAIRS)
    assert (result.separated, result.total) == (1, 1)


def test_zero_planes():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1, 1])
    result = count_separated_pairs(points, labels, [], ALL_PAIRS)
    assert (result.separated, result.total) == (0, 3)


def test_point_on_plane_not_separated():
    points = np.array([[0.0, 0.5], [1.0, 0.0]])
    labels = np.array([0, 1])
    plane = Hyperplane(np.array([1.0, 0.0]), 0.0)  # first point lies on it
    result = count_separated_pairs(points, labels, [plane], ALL_PAIRS)
    assert result.separated == 0
    assert result.on_plane_incidents == 1


def test_count_matches_bruteforce_oracle():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        points = rng.standard_normal((n, 2))
        labels = rng.integers(0, 2, n)
        planes = [
            Hyperplane.from_general(rng.standard_normal(2), rng.standard_normal())
            for _ in range(3)
        ]
        for mode in (ALL_PAIRS, OPPOSITE_LABEL_PAIRS):
            got = count_separated_pairs(points, labels, planes, mode)
            want = brute_force_separated(points, labels, planes, mode)
            assert (got.separated, got.total) == want


def test_count_monotone_in_planes():
    rng = np.random.default_rng(15)
    points = rng.standard_normal((8, 3))
    labels = rng.integers(0, 2, 8)
    planes = [
        Hyperplane.from_general(rng.standard_normal(3), rng.standard_normal())
        for _ in range(6)
    ]
    counts = [
        count_separated_pairs(points, labels, planes[:k], ALL_PAIRS).separated
        for k in range(7)
    ]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_rotation_invariant():
    rng = np.random.default_rng(21)
    points = rng.standard_normal((7, 4))
    labels = rng.integers(0, 2, 7)
    planes = [
        Hyperplane.from_general(rng.standard_normal(4), rng.standard_normal())
        for _ in range(4)
    ]
    base = count_separated_pairs(points, labels, planes, ALL_PAIRS)
    Q = special_ortho_group.rvs(4, random_state=rng)
    rotated_planes = [Hyperplane(Q @ p.normal, p.offset) for p in planes]
    rotated = count_separated_pairs(points @ Q.T, labels, rotated_planes, ALL_PAIRS)
    assert rotated.separated == base.separated


def test_min_hyperplanes_two_points():
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert min_hyperplanes_bruteforce(points, np.array([0, 1]), OPPOSITE_LABEL_PAIRS) == 1


def test_min_hyperplanes_alternating_line():
    # labels 0,1,0,1 along a line: each adjacent opposite pair needs its own cut
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    labels = np.array([0, 1, 0, 1])
    assert min_hyperplanes_bruteforce(points, labels, OPPOSITE_LABEL_PAIRS) == 3


def test_min_hyperplanes_all_pairs_information_bound():
    rng = np.random.default_rng(30)
    points = rng.standard_normal((4, 2))
    k = min_hyperplanes_bruteforce(points, np.zeros(4, dtype=int), ALL_PAIRS)
    assert k >= math.ceil(math.log2(4))


def exhaustive_min_cover(points, labels, mode):
    """Independent exhaustive search over bisector subsets, no pruning."""
    from threshmem.lowerbound import _candidate_bisectors

    n = len(points)
    if mode == ALL_PAIRS:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] != labels[j]]
    if not pairs:
        return 0
    planes = _candidate_bisectors(np.asarray(points, dtype=float))
    masks = []
    for plane in planes:
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
    raise AssertionError("no cover")


def test_min_hyperplanes_matches_exhaustive_optimum():
    rng = np.random.default_rng(44)
    for trial in range(8):
        n = int(rng.integers(2, 7))
        points = rng.standard_normal((n, 2))
        labels = rng.integers(0, 2, n)
        for mode in (ALL_PAIRS, OPPOSITE_LABEL_PAIRS):
            got = min_hyperplanes_bruteforce(points, labels, mode)
            want = exhaustive_min_cover(points, labels, mode)
            assert got == want


def test_min_hyperplanes_refuses_large_instances():
    points = np.zeros((13, 2))
    with pytest.raises(ValueError, match="capped"):
        min_hyperplanes_bruteforce(points, np.zeros(13, dtype=int), ALL_PAIRS)
    with pytest.raises(ValueError, match="capped"):
        min_hyperplanes_bruteforce(np.zeros((4, 3)), np.zeros(4, dtype=int), ALL_PAIRS)


def test_pressure_experiment_reports_sane_fields():
    cds = build_cluster_dataset(16, 8, 0.1, seed=5)
    report = first_layer_pressure_experiment(cds, trials=2, seed=7, num_planes=2000)
    assert len(report.m_used) == 2 and len(report.retries) == 2
    assert all(m >= 1 for m in report.m_used)
    assert 0.0 <= report.near_fraction <= 1.0
    assert 0.0 <= report.near_fraction_base <= 1.0
    assert report.band_radius == pytest.approx(12 * report.band_radius_base)


def test_pressure_near_fraction_scales_as_sqrt_delta():
    # the narrow band fraction is ~ linear in its radius, which carries the
    # sqrt(delta) dependence; ratio for delta 0.2 vs 0.05 should be near 2
    fractions = {}
    for delta in (0.2, 0.05):
        cds = build_cluster_dataset(16, 16, delta, seed=11)
        report = first_layer_pressure_experiment(cds, trials=1, seed=13, num_planes=10_000)
        fractions[delta] = report.near_fraction_base
    ratio = fractions[0.2] / fractions[0.05]
    expected = math.sqrt(0.2 / 0.05)
    assert expected / 2 <= ratio <= expected * 2


def test_clustered_csv_round_trip(tmp_path):
    cds = build_cluster_dataset(9, 4, 0.05, seed=2)
    path = tmp_path / "cds.csv"
    save_clustered_csv(cds, path)
    ds, clusters = load_clustered_csv(path)
    assert np.array_equal(ds.features, cds.points)
    assert np.array_equal(ds.labels, cds.labels)
    assert np.array_equal(clusters, cds.cluster_ids)


def test_plain_csv_loads_without_cluster_column(tmp_path):
    from threshmem.geometry import Dataset, save_dataset_csv

    ds = Dataset([[0.1, 0.2], [0.3, -0.1]], [0, 1])
    path = tmp_path / "plain.csv"
    save_dataset_csv(ds, path)
    back, clusters = load_clustered_csv(path)
    assert clusters is None
    assert np.array_equal(back.features, ds.features)

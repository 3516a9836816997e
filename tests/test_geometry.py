import math

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from threshmem.geometry import (
    Dataset,
    InfeasibleGenerationError,
    SeparationMode,
    ZeroNormError,
    check_separation,
    generate_separated_dataset,
    load_clustered_csv,
    load_dataset_csv,
    sample_sphere_uniform,
    save_dataset_csv,
)


def brute_force_min_angle(X):
    """Definitional pairwise loop; the oracle optimized paths must match."""
    worst = math.inf
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            ni, nj = np.linalg.norm(X[i]), np.linalg.norm(X[j])
            cos = np.clip(X[i] @ X[j] / (ni * nj), -1, 1)
            worst = min(worst, math.acos(cos))
    return worst


def brute_force_min_distance(X):
    worst = math.inf
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            worst = min(worst, float(np.linalg.norm(X[i] - X[j])))
    return worst


def test_orthogonal_pair_angular():
    ds = Dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    verdict = check_separation(ds, SeparationMode.angular(math.pi / 2), tol=0.0)
    assert verdict.holds
    assert verdict.worst_value == pytest.approx(math.pi / 2)
    assert verdict.worst_pair == (0, 1)


def test_duplicate_points_fail_distance():
    ds = Dataset([[0.6, 0.0], [0.6, 0.0]], [0, 1])
    verdict = check_separation(ds, SeparationMode.distance(0.1))
    assert not verdict.holds
    assert verdict.worst_value == 0.0


def test_worst_value_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    X = sample_sphere_uniform(8, 1.0, 10, rng)
    ds = Dataset(X, rng.integers(0, 2, 10))
    ang = check_separation(ds, SeparationMode.angular(1e-6))
    dist = check_separation(ds, SeparationMode.distance(1e-6))
    assert ang.worst_value == pytest.approx(brute_force_min_angle(X), abs=1e-12)
    assert dist.worst_value == pytest.approx(brute_force_min_distance(X), abs=1e-12)


def test_zero_norm_rejected_in_angular_mode():
    ds = Dataset([[0.0, 0.0], [1.0, 0.0]], [0, 1])
    with pytest.raises(ZeroNormError):
        check_separation(ds, SeparationMode.angular(0.1))


def test_norm_cap_enforced_in_distance_mode():
    ds = Dataset([[1.5, 0.0], [0.0, 0.5]], [0, 1])
    verdict = check_separation(ds, SeparationMode.distance(0.1))
    assert not verdict.holds
    assert verdict.max_norm == pytest.approx(1.5)


def test_single_point_dataset():
    ds = Dataset([[0.3, 0.4, 0.0]], [1])
    verdict = check_separation(ds, SeparationMode.distance(1.9))
    assert verdict.holds and verdict.worst_pair is None
    assert verdict.worst_value == math.inf


def test_verdict_invariant_under_permutation_and_rotation():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((12, 6)) * 0.15
    ds = Dataset(X, rng.integers(0, 2, 12))
    mode = SeparationMode.distance(0.05)
    base = check_separation(ds, mode)

    perm = rng.permutation(12)
    permuted = check_separation(Dataset(X[perm], ds.labels[perm]), mode)
    assert permuted.holds == base.holds
    assert permuted.worst_value == pytest.approx(base.worst_value, abs=1e-12)

    Q = special_ortho_group.rvs(6, random_state=rng)
    rotated = check_separation(Dataset(X @ Q.T, ds.labels), mode)
    assert rotated.holds == base.holds
    assert rotated.worst_value == pytest.approx(base.worst_value, abs=1e-9)


def test_chord_angle_agreement_on_unit_norm_data():
    # chord = 2 sin(angle / 2) ties the two separation notions together
    rng = np.random.default_rng(23)
    for trial in range(5):
        X = sample_sphere_uniform(5, 1.0, 8, rng)
        ds = Dataset(X, rng.integers(0, 2, 8))
        ang = check_separation(ds, SeparationMode.angular(1e-9)).worst_value
        dist = check_separation(ds, SeparationMode.distance(1e-9)).worst_value
        assert dist == pytest.approx(2 * math.sin(ang / 2), abs=1e-9)
        delta_d = dist * 0.9
        equivalent_angle = 2 * math.asin(delta_d / 2)
        assert check_separation(ds, SeparationMode.distance(delta_d)).holds
        assert check_separation(ds, SeparationMode.angular(equivalent_angle)).holds
        assert not check_separation(ds, SeparationMode.distance(dist * 1.1), tol=0).holds
        assert not check_separation(ds, SeparationMode.angular(ang * 1.1), tol=0).holds


def test_mode_validation():
    with pytest.raises(ValueError):
        SeparationMode.angular(0.0)
    with pytest.raises(ValueError):
        SeparationMode.angular(3.5)
    with pytest.raises(ValueError):
        SeparationMode.distance(2.5)


def test_generate_single_point():
    ds = generate_separated_dataset(1, 3, SeparationMode.distance(0.5), seed=0)
    assert ds.n == 1 and ds.dim == 3
    assert np.linalg.norm(ds.features[0]) <= 1.0


def test_generate_diameter_request_is_infeasible_for_rejection_sampling():
    # distance 2 inside the unit ball is attained only by antipodal unit
    # vectors, a measure-zero event the ball sampler cannot hit
    with pytest.raises(InfeasibleGenerationError, match="candidate draws"):
        generate_separated_dataset(2, 2, SeparationMode.distance(2.0), seed=3)


def test_generate_validates_with_check_separation():
    mode = SeparationMode.distance(0.2)
    ds = generate_separated_dataset(256, 16, mode, seed=42)
    assert ds.n == 256
    assert check_separation(ds, mode, tol=0.0).holds


def test_generate_angular_mode_lands_on_sphere():
    mode = SeparationMode.angular(0.3)
    ds = generate_separated_dataset(24, 6, mode, seed=9)
    assert np.allclose(np.linalg.norm(ds.features, axis=1), 1.0, atol=1e-12)
    assert check_separation(ds, mode, tol=0.0).holds


def test_generate_is_deterministic():
    mode = SeparationMode.distance(0.3)
    a = generate_separated_dataset(20, 5, mode, seed=7)
    b = generate_separated_dataset(20, 5, mode, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_sample_sphere_norms_and_mean():
    pts = sample_sphere_uniform(2, 1.0, 10_000, seed=7)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # CLT bound 3/sqrt(count) on the empirical mean of a centered sample
    assert np.linalg.norm(pts.mean(axis=0)) < 0.05


def test_sample_sphere_single_vector_radius():
    v = sample_sphere_uniform(3, 0.5, 1, seed=0)[0]
    assert np.linalg.norm(v) == pytest.approx(0.5, abs=1e-9)


def test_sample_sphere_hemisphere_symmetry():
    pts = sample_sphere_uniform(8, 1.0, 10_000, seed=1)
    frac = (pts[:, 0] > 0).mean()
    assert abs(frac - 0.5) < 0.02


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((7, 4)) / 3.0, rng.integers(0, 2, 7))
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f1\n2,0.5\n")
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        load_dataset_csv(path)
    path.write_text("x,f1\n0,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset_csv(path)


def test_csv_cluster_column(tmp_path):
    ds = Dataset([[0.1, 0.2], [0.3, -0.1]], [0, 1])
    path = tmp_path / "cds.csv"
    save_dataset_csv(ds, path, clusters=[4, 7])
    assert path.read_text().splitlines()[0] == "label,f1,f2,cluster"
    back, clusters = load_clustered_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert clusters.tolist() == [4, 7]
    # build and eval read the plain format only
    with pytest.raises(ValueError, match=r"expected header label,f1,\.\.\.,fd"):
        load_dataset_csv(path)
    path.write_text("label,f1,f2,cluster\n0,0.1,0.2,x\n")
    with pytest.raises(ValueError):
        load_clustered_csv(path)


def test_dataset_immutable():
    ds = Dataset([[0.1, 0.2]], [1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist
from scipy.stats import special_ortho_group

from threshmem import geometry
from threshmem.geometry import (
    DEFAULT_TOL,
    Dataset,
    InfeasibleGenerationError,
    SeparationMode,
    SeparationVerdict,
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


def test_angular_check_survives_norm_underflow():
    # every square of the first row underflows, so its norm came out about
    # 1e-5 off and its cosines passed 1: the check picked pair (0, 1) at 1e-3
    # although rows 1 and 2 are 1e-4 apart
    X = [[1e-160 * math.cos(1e-3), 1e-160 * math.sin(1e-3)], [1.0, 0.0],
         [math.cos(1e-4), math.sin(1e-4)]]
    verdict = check_separation(Dataset(X, [0, 1, 0]), SeparationMode.angular(5e-4))
    assert not verdict.holds
    assert verdict.worst_pair == (1, 2)
    assert verdict.worst_value == pytest.approx(1e-4, rel=1e-6)


def test_angular_check_survives_norm_overflow():
    # the first row's norm overflowed to infinity and its unit vector to
    # zero, so the check reported pair (0, 1) at pi / 2
    X = [[1e200 * math.cos(1e-4), 1e200 * math.sin(1e-4)], [1.0, 0.0], [0.0, 1.0]]
    verdict = check_separation(Dataset(X, [0, 1, 0]), SeparationMode.angular(5e-4))
    assert not verdict.holds
    assert verdict.worst_pair == (0, 1)
    assert verdict.worst_value == pytest.approx(1e-4, rel=1e-6)


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


def reference_save_dataset_csv(ds, path, clusters=None):
    """The writer before it streamed blocks: csv.writer, one value at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["label"] + [f"f{j + 1}" for j in range(ds.dim)]
        writer.writerow(header if clusters is None else header + ["cluster"])
        for i in range(ds.n):
            row = [int(ds.labels[i])] + [repr(float(v)) for v in ds.features[i]]
            writer.writerow(row if clusters is None else row + [int(clusters[i])])


@given(st.integers(1, 12), st.integers(1, 5), st.booleans(), st.sampled_from([1, 2, 7, 64]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_csv_writer_matches_csv_module(tmp_path_factory, n, d, with_clusters, block, data):
    value = st.floats(allow_nan=False, allow_infinity=False)
    X = data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    clusters = (data.draw(st.lists(st.integers(-2**40, 2**40), min_size=n, max_size=n))
                if with_clusters else None)
    ds = Dataset(X, labels)
    out = tmp_path_factory.mktemp("csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "WRITE_BLOCK", block)  # rows span several blocks
        save_dataset_csv(ds, out / "got.csv", clusters=clusters)
    reference_save_dataset_csv(ds, out / "want.csv", clusters=clusters)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


@pytest.mark.parametrize("clusters", [[4], [4, 7, 9], [[4, 7]]])
def test_csv_cluster_column_needs_one_id_per_point(tmp_path, clusters):
    ds = Dataset([[0.1, 0.2], [0.3, -0.1]], [0, 1])
    with pytest.raises(ValueError, match="one id per point"):
        save_dataset_csv(ds, tmp_path / "cds.csv", clusters=clusters)


def test_dataset_immutable():
    ds = Dataset([[0.1, 0.2]], [1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0


# ---------------------------------------------------------------------------
# The row-blocked scan against the whole-matrix check it replaced


def _condensed_to_pair(k, n):
    i = int(n - 2 - math.floor(math.sqrt(-8 * k + 4 * n * (n - 1) - 7) / 2.0 - 0.5))
    j = int(k + i + 1 - n * (n - 1) // 2 + (n - i) * ((n - i) - 1) // 2)
    return i, j


def pow2_scaled(X):
    """Each row of X times the power of two that puts its largest |x| in
    [0.5, 1): exact, and no square in its norm under- or overflows."""
    return np.ldexp(X, -np.frexp(np.abs(X).max(axis=1))[1][:, None])


def reference_check_separation(ds, mode, tol=DEFAULT_TOL):
    """The check before the blocked scan: a full n x n Gram matrix (angular)
    or pdist's condensed distances (distance), O(n^2) memory."""
    X = ds.features
    n = ds.n
    if mode.is_angular:
        X = pow2_scaled(X)
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms == 0):
            raise ZeroNormError("angular separation undefined for zero-norm vectors")
        if n == 1:
            return SeparationVerdict(True, None, math.inf)
        U = X / norms[:, None]
        gram = np.clip(U @ U.T, -1.0, 1.0)
        iu = np.triu_indices(n, k=1)
        cosines = gram[iu]
        k = int(np.argmax(cosines))
        worst = float(np.arccos(cosines[k]))
        pair = (int(iu[0][k]), int(iu[1][k]))
        return SeparationVerdict(worst >= mode.delta - tol, pair, worst)
    norms = np.linalg.norm(X, axis=1)
    max_norm = float(norms.max())
    norm_ok = max_norm <= 1.0 + tol
    if n == 1:
        return SeparationVerdict(norm_ok, None, math.inf, max_norm)
    dists = pdist(X)
    k = int(np.argmin(dists))
    worst = float(dists[k])
    pair = _condensed_to_pair(k, n)
    holds = norm_ok and worst >= mode.delta - tol
    return SeparationVerdict(holds, pair, worst, max_norm)


#: The scan's block products (BLAS gemm) and the reference's Gram matrix
#: (syrk) may round a cosine differently. A cosine of unit vectors sums
#: products of total magnitude at most 1, so 4 ulp of 1.0 bounds the gap.
COSINE_TOL = 4 * np.spacing(1.0)


@st.composite
def point_sets(draw):
    """Small point sets with ties: a coarse grid makes many pairs equally
    far apart, and copied rows make exact duplicates."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 5))
    coord = st.floats(-0.6, 0.6, allow_nan=False, allow_subnormal=False)
    X = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    if draw(st.booleans()):
        X = np.round(X, 1)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
        X[dst] = X[src]
    return X


@given(point_sets(), st.sampled_from([0.05, 0.3, 1.0]),
       st.sampled_from([1, 2, 3, 5, 8, 64, geometry.SCAN_BLOCK]))
@settings(max_examples=300, deadline=None)
def test_blocked_scan_matches_whole_matrix_check(X, delta, block):
    ds = Dataset(X, np.zeros(len(X)))
    with pytest.MonkeyPatch.context() as mp:
        # tiny blocks put pairs across block boundaries
        mp.setattr(geometry, "SCAN_BLOCK", block)
        dist = check_separation(ds, SeparationMode.distance(delta))
        assert dist == reference_check_separation(ds, SeparationMode.distance(delta))

        mode = SeparationMode.angular(delta)
        if not X.any(axis=1).all():  # a row of zeros
            with pytest.raises(ZeroNormError):
                check_separation(ds, mode)
            return
        ang = check_separation(ds, mode)
    ref = reference_check_separation(ds, mode)
    assert (ang.holds, ang.max_norm) == (ref.holds, ref.max_norm)
    if ref.worst_pair is None:
        assert ang == ref
        return
    S = pow2_scaled(X)
    U = S / np.linalg.norm(S, axis=1)[:, None]
    gram = np.clip(U @ U.T, -1.0, 1.0)
    best = gram[ref.worst_pair]
    i, j = ang.worst_pair
    assert i < j and gram[i, j] >= best - COSINE_TOL
    lo, hi = np.arccos(np.clip([best + COSINE_TOL, best - COSINE_TOL], -1.0, 1.0))
    assert lo <= ang.worst_value <= hi
    others = gram[np.triu_indices(len(X), k=1)]
    if np.sum(others >= best - 2 * COSINE_TOL) == 1:
        # no other pair within rounding of the closest one
        assert ang.worst_pair == ref.worst_pair


def test_blocked_scan_memory_is_bounded():
    # the whole-matrix check held a 512 MB Gram matrix, its clipped copy and
    # two triu_indices arrays here, past 1 GB
    X = sample_sphere_uniform(8, 1.0, 8192, seed=3)
    ds = Dataset(X, np.zeros(len(X)))
    tracemalloc.start()
    try:
        verdict = check_separation(ds, SeparationMode.angular(1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.worst_pair is not None
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# The batched rejection sampler against the one-candidate loop it replaced


def reference_sample_separated(propose, count, d, min_sep, angular, what):
    """The sampler before batching: `propose()` returns one candidate, which
    is tested against every accepted point before the next is drawn."""
    budget = geometry.REJECTIONS_PER_POINT * count
    accepted = np.empty((count, d))
    diff = np.empty((count, d))
    dist = np.empty(count)
    placed = 0
    rejections = 0
    attempts = 0
    while placed < count:
        cand = propose()
        attempts += 1
        if placed > 0:
            if angular:
                cos = np.clip(accepted[:placed] @ cand, -1.0, 1.0)
                ok = np.arccos(cos).min() >= min_sep
            else:
                sq = np.subtract(accepted[:placed], cand, out=diff[:placed])
                np.multiply(sq, sq, out=sq)
                dc = np.add.reduce(sq, axis=1, out=dist[:placed])
                ok = np.sqrt(dc, out=dc).min() >= min_sep
            if not ok:
                rejections += 1
                if rejections > budget:
                    raise InfeasibleGenerationError(
                        f"gave up sampling {what} after {attempts} candidate draws "
                        f"({rejections} rejections) while placing point {placed + 1} "
                        f"of {count} at separation {min_sep:.4g} in d={d}"
                    )
                continue
        accepted[placed] = cand
        placed += 1
    return accepted


def _lattice(angular, d, min_sep, extra, seed):
    """Candidate rows spaced min_sep apart along each axis (distance) or
    each angle (angular) of a d-dimensional lattice, so many pairs sit on
    the threshold. With `extra` dimensions the lattice is turned into a
    random frame of R^(d + extra), where blocked and one-candidate sums
    round differently."""
    steps = np.arange(-2, 3)
    if not angular:
        rows = min_sep * np.stack(np.meshgrid(*[steps] * d), axis=-1).reshape(-1, d)
    elif d == 2:
        rows = np.stack([np.cos(steps * min_sep), np.sin(steps * min_sep)], axis=1)
    else:
        a, b = (g.ravel() * min_sep for g in np.meshgrid(steps, steps))
        rows = np.stack([np.cos(a) * np.cos(b), np.sin(a) * np.cos(b), np.sin(b)], axis=1)
    if extra:
        frame = special_ortho_group.rvs(d + extra, random_state=seed)[:d]
        rows = rows @ frame
    return rows


def _outcome(sample, propose, rng, count, d, min_sep, angular):
    try:
        result = sample(propose, count, d, min_sep, angular, "test points").tobytes()
    except InfeasibleGenerationError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


@given(angular=st.booleans(), lattice=st.booleans(), d=st.integers(2, 3),
       extra=st.sampled_from([0, 7, 15]), min_sep=st.sampled_from([0.1, 0.3, 1 / 3, 0.7]),
       count=st.integers(1, 24), patience=st.integers(1, 4), batch=st.integers(1, 8),
       block=st.sampled_from([1, 2, 3, 5, 16, 64]), seed=st.integers(0, 2**16))
@settings(max_examples=300, deadline=None)
def test_batched_sampler_matches_one_candidate_loop(angular, lattice, d, extra, min_sep, count,
                                                    patience, batch, block, seed):
    if lattice:
        rows = _lattice(angular, d, min_sep, extra, seed)
        d += extra
        draw = lambda rng: rows[rng.integers(len(rows))]
    elif angular:
        draw = lambda rng: sample_sphere_uniform(d, 1.0, 1, rng)[0]
    else:
        draw = lambda rng: geometry._sample_unit_ball(rng, d)[0]
    one_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        # a small budget reaches the infeasible path; small batches and
        # blocks put accepted points in earlier batches and blocks
        mp.setattr(geometry, "REJECTIONS_PER_POINT", patience)
        mp.setattr(geometry, "PROPOSAL_BATCH", batch)
        mp.setattr(geometry, "SCAN_BLOCK", block)
        expected = _outcome(reference_sample_separated, lambda: draw(one_rng), one_rng,
                            count, d, min_sep, angular)
        got = _outcome(geometry.sample_separated,
                       lambda k: np.array([draw(batch_rng) for _ in range(k)]), batch_rng,
                       count, d, min_sep, angular)
    assert got == expected


def test_batched_sampler_memory_is_bounded():
    # one batch against 8192 accepted points would be 16 MB of pair values
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        geometry.sample_separated(lambda k: sample_sphere_uniform(8, 1.0, k, rng),
                                  8192, 8, 1e-3, True, "test points")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the accepted points (0.5 MB) plus a few blocks of SCAN_BLOCK values
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# The Gram-form distance kernel against pdist and the one-candidate loop


@st.composite
def stressed_point_sets(draw):
    """Point sets on which the Gram form's rounding error matters: a large
    common offset with gaps down to 1e-7, exact duplicates and grid ties,
    and coordinates near 1e±154, where squares underflow or overflow."""
    n = draw(st.integers(2, 32))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # a grid: many pairs equally far apart
        X = rng.integers(-3, 4, size=(n, d)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, d))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
        X[dst] = X[src]
    if draw(st.booleans()):
        offset = rng.standard_normal(d)
        offset *= draw(st.sampled_from([0.5, 0.999, 1.0, 4.0])) / np.linalg.norm(offset)
        X = offset + draw(st.sampled_from([1e-7, 1e-6, 1e-4, 1e-2])) * X
    else:
        X = X * 10.0 ** draw(st.sampled_from([-170, -161.5, -160.5, -159.5, -155, -154, -150,
                                              150, 153, 153.5, 154, 155, 160, 300]))
    if draw(st.booleans()):  # a few rows at another scale, if still finite
        rows = draw(st.lists(st.integers(0, n - 1), max_size=3))
        Y = X.copy()
        Y[rows] *= 10.0 ** draw(st.sampled_from([-154, 154]))
        X = Y if np.isfinite(Y).all() else X
    return X


@pytest.mark.filterwarnings("ignore:overflow encountered")
@given(stressed_point_sets(), st.sampled_from([1e-7, 0.05, 1.0]),
       st.sampled_from([1, 2, 3, 5, 8, 17, 64]))
@settings(max_examples=300, deadline=None)
def test_gram_scan_matches_pdist_on_stressed_points(X, delta, block):
    ds = Dataset(X, np.zeros(len(X)))
    mode = SeparationMode.distance(delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "SCAN_BLOCK", block)
        got = check_separation(ds, mode)
    assert got == reference_check_separation(ds, mode)


@given(d=st.integers(2, 3), extra=st.sampled_from([0, 7, 15]),
       min_sep=st.sampled_from([1e-6, 1e-5, 1e-4, 1e-2]), offset=st.sampled_from([0.5, 1.0, 4.0]),
       count=st.integers(1, 24), patience=st.integers(1, 4), batch=st.integers(1, 8),
       block=st.sampled_from([1, 2, 3, 5, 16, 64]), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_gram_sampler_matches_one_candidate_loop_on_offset_lattices(
        d, extra, min_sep, offset, count, patience, batch, block, seed):
    # far from the origin the Gram form's absolute error is as large as
    # the relative SAMPLE_MARGIN at these spacings
    rows = _lattice(False, d, min_sep, extra, seed)
    shift = np.random.default_rng(seed).standard_normal(d + extra)
    rows = rows + offset * shift / np.linalg.norm(shift)
    draw = lambda rng: rows[rng.integers(len(rows))]
    one_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "REJECTIONS_PER_POINT", patience)
        mp.setattr(geometry, "PROPOSAL_BATCH", batch)
        mp.setattr(geometry, "SCAN_BLOCK", block)
        expected = _outcome(reference_sample_separated, lambda: draw(one_rng), one_rng,
                            count, d + extra, min_sep, False)
        got = _outcome(geometry.sample_separated,
                       lambda k: np.array([draw(batch_rng) for _ in range(k)]), batch_rng,
                       count, d + extra, min_sep, False)
    assert got == expected


@pytest.mark.parametrize("points", ["random", "duplicates", "cloud"])
def test_distance_scan_memory_is_bounded(points):
    # with every point the same, or all within the Gram form's rounding
    # error of each other, every pair makes the exact shortlist
    duplicates = points == "duplicates"
    if points == "random":
        X = sample_sphere_uniform(8, 1.0, 8192, seed=3)
    elif duplicates:
        X = np.full((8192, 8), 0.25)
    else:
        X = 0.5 + 1e-12 * np.random.default_rng(3).standard_normal((8192, 2))
    ds = Dataset(X, np.zeros(len(X)))
    tracemalloc.start()
    try:
        verdict = check_separation(ds, SeparationMode.distance(1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if duplicates:
        assert (verdict.worst_pair, verdict.worst_value) == ((0, 1), 0.0)
    # one block of pair values (1 MB), its shortlist and one exact chunk;
    # the 8192 x 8192 distance matrix would take 512 MB
    assert peak < 16 * 2**20

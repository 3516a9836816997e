"""Empirical harness for the clustered lower-bound geometry.

The hard instances place sqrt(n) cluster centers on the radius
sqrt(1-delta) sphere and around each center paste a common template of
sqrt(n) points living on the tangent sphere of radius sqrt(delta), so every
point has exactly unit norm and the whole set stays delta-separated. The
harness measures how many hyperplanes such sets demand: exact brute force
at toy scale, counting and band-fraction statistics at desk scale. The
probabilistic events and constants of the underlying proof are measured,
not re-derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .construct import ConstructionConfig, build_first_layer
from .geometry import (
    Dataset,
    InfeasibleGenerationError,
    SeparationMode,
    _as_rng,
    _closest_pair,
    sample_separated,
    save_dataset_csv,
)

ALL_PAIRS = "all"
OPPOSITE_LABEL_PAIRS = "opposite"

#: Whole-build revalidation retries before giving up.
MAX_BUILD_RETRIES = 20

#: Band radius multiplier from the proof's near-center criterion
#: 12 * sqrt(delta * log(t) / d).
NEAR_BAND_FACTOR = 12.0


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane {x : normal . x + offset = 0} with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=np.float64)
        _require_finite(normal, self.offset)
        norm = float(np.linalg.norm(normal))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"normal must be a unit vector, got norm {norm}")
        object.__setattr__(self, "normal", normal)

    @classmethod
    def from_general(cls, coeffs, offset) -> "Hyperplane":
        """Normalize arbitrary (w, b) with w nonzero to the unit-normal form."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        _require_finite(coeffs, offset)
        norm = float(np.linalg.norm(coeffs))
        if norm == 0:
            raise ValueError("hyperplane normal cannot be zero")
        return cls(coeffs / norm, float(offset) / norm)

    def signed_distances(self, points) -> np.ndarray:
        return np.asarray(points) @ self.normal + self.offset


def _require_finite(normal: np.ndarray, offset) -> None:
    # a NaN would pass the unit-norm test and separate no pair
    if not (np.isfinite(normal).all() and math.isfinite(offset)):
        raise ValueError("hyperplane normal and offset must be finite")


@dataclass(frozen=True)
class ClusteredDataset:
    """The pasted-cluster construction with alternating labels per cluster."""

    centers: np.ndarray  # (r, d) on the radius sqrt(1-delta) sphere
    points: np.ndarray  # (n, d), all unit norm
    labels: np.ndarray  # (n,) bits, balanced within each cluster
    cluster_ids: np.ndarray  # (n,) index into centers
    delta: float

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_clusters(self) -> int:
        return self.centers.shape[0]

    def to_dataset(self) -> Dataset:
        return Dataset(self.points, self.labels)


def _tangent_basis(center: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to `center`.

    Columns 2..d of the Householder reflection mapping e1 to the center
    direction; this is the orthogonal map carrying the template tangent
    sphere onto the center's tangent sphere.
    """
    d = center.shape[0]
    c_hat = center / np.linalg.norm(center)
    v = c_hat - np.eye(d)[0]
    vv = float(v @ v)
    if vv < 1e-24:
        H = np.eye(d)
    else:
        H = np.eye(d) - 2.0 * np.outer(v, v) / vv
    return H[:, 1:]


def _sphere_proposal(rng, d: int, radius: float):
    """Draws of uniform points on the radius-r sphere in R^d, for
    sample_separated.

    Normalizes one 1-D Gaussian at a time; sample_sphere_uniform's
    row-wise norm rounds differently and would change every instance.
    """
    def one():
        while True:
            v = rng.standard_normal(d)
            norm = np.linalg.norm(v)
            if norm != 0:
                return v * (radius / norm)
    return lambda k: np.array([one() for _ in range(k)])


def build_cluster_dataset(n: int, d: int, delta: float, seed) -> ClusteredDataset:
    """Sample the clustered hard instance; see the module docstring.

    Requires n a perfect square >= 4 and d >= 3. Centers are kept
    3*sqrt(delta) apart (which makes cross-cluster pairs safe by the
    triangle inequality) and template points sqrt(delta) apart on the unit
    tangent sphere (delta apart after scaling). The finished point set is
    re-validated at min distance delta and the build retried on failure.
    """
    r = math.isqrt(n)
    if r * r != n or n < 4:
        raise ValueError("n must be a perfect square >= 4")
    if d < 3:
        raise ValueError("d must be at least 3")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    rng = _as_rng(seed)
    sqrt_delta = math.sqrt(delta)

    for _ in range(MAX_BUILD_RETRIES):
        centers = sample_separated(
            _sphere_proposal(rng, d, math.sqrt(1.0 - delta)), r, d, 3.0 * sqrt_delta,
            angular=False, what="cluster centers",
        )
        # template lives on the unit sphere of the (d-1)-dim tangent space;
        # scaling by sqrt(delta) turns spacing sqrt(delta) into delta
        template = sample_separated(
            _sphere_proposal(rng, d - 1, 1.0), r, d - 1, sqrt_delta,
            angular=False, what="template cluster",
        )
        points = np.empty((n, d))
        cluster_ids = np.empty(n, dtype=np.int64)
        for ci in range(r):
            basis = _tangent_basis(centers[ci])
            block = slice(ci * r, (ci + 1) * r)
            points[block] = centers[ci] + sqrt_delta * (template @ basis.T)
            cluster_ids[block] = ci
        if _closest_pair(points, angular=False)[1] >= delta:
            break
    else:
        raise InfeasibleGenerationError(
            f"cluster dataset failed revalidation {MAX_BUILD_RETRIES} times "
            f"(n={n}, d={d}, delta={delta})"
        )

    labels = np.empty(n, dtype=np.int8)
    for ci in range(r):
        labels[ci * r : (ci + 1) * r] = np.arange(r) % 2
    return ClusteredDataset(centers, points, labels, cluster_ids, delta)


# ---------------------------------------------------------------------------
# Separation counting


@dataclass(frozen=True)
class SeparationCount:
    """How many of the required pairs some plane splits strictly.

    A point lying exactly on a plane (sign zero) is never counted as
    separated by that plane; on_plane_incidents reports how many
    (plane, point) incidences of that kind occurred.
    """

    separated: int
    total: int
    on_plane_incidents: int


def count_separated_pairs(points, labels, planes: Sequence[Hyperplane], mode: str) -> SeparationCount:
    """Pairs with some plane strictly between them, out of the demanded pairs."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = points.shape[0]
    if n < 1 or points.ndim != 2:
        raise ValueError("points must be a nonempty (n, d) array")
    if labels.shape != (n,):
        raise ValueError("labels must align with points")
    if mode not in (ALL_PAIRS, OPPOSITE_LABEL_PAIRS):
        raise ValueError(f"mode must be '{ALL_PAIRS}' or '{OPPOSITE_LABEL_PAIRS}'")

    if mode == ALL_PAIRS:
        required = np.ones((n, n), dtype=bool)
    else:
        required = labels[:, None] != labels[None, :]
    required = np.triu(required, k=1)

    separated = np.zeros((n, n), dtype=bool)
    on_plane = 0
    for plane in planes:
        signs = np.sign(plane.signed_distances(points))
        on_plane += int(np.count_nonzero(signs == 0))
        separated |= signs[:, None] * signs[None, :] < 0
    count = int(np.count_nonzero(separated & required))
    return SeparationCount(count, int(np.count_nonzero(required)), on_plane)


# ---------------------------------------------------------------------------
# Exact minimum at toy scale

MAX_BRUTE_POINTS = 12


def _candidate_bisectors(points: np.ndarray) -> list[Hyperplane]:
    planes = []
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            diff = points[j] - points[i]
            norm = np.linalg.norm(diff)
            if norm == 0:
                continue
            normal = diff / norm
            offset = -float(normal @ (points[i] + points[j]) / 2.0)
            if normal[0] < 0 or (normal[0] == 0 and normal[1] < 0):
                normal, offset = -normal, -offset
            planes.append(Hyperplane(normal, offset))
    return planes


def min_hyperplanes_bruteforce(points, labels, mode: str) -> int:
    """Smallest number of pair-bisector planes separating all required pairs.

    Candidates are the canonicalized perpendicular bisectors of all point
    pairs; the search is exact over subsets of that family. Limited to
    n <= 12 points in the plane.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = points.shape[0]
    if n > MAX_BRUTE_POINTS or points.shape[1] != 2:
        raise ValueError(
            f"brute force capped at n <= {MAX_BRUTE_POINTS}, d = 2; "
            f"got n={n}, d={points.shape[1]}"
        )
    if mode == ALL_PAIRS:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif mode == OPPOSITE_LABEL_PAIRS:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] != labels[j]]
    else:
        raise ValueError(f"mode must be '{ALL_PAIRS}' or '{OPPOSITE_LABEL_PAIRS}'")
    if not pairs:
        return 0

    full = (1 << len(pairs)) - 1
    masks = []
    for plane in _candidate_bisectors(points):
        signs = np.sign(plane.signed_distances(points))
        mask = 0
        for b, (i, j) in enumerate(pairs):
            if signs[i] * signs[j] < 0:
                mask |= 1 << b
        if mask:
            masks.append(mask)
    masks = sorted(set(masks), key=lambda m: -bin(m).count("1"))
    # a mask contained in an earlier (bigger) one can always be swapped out
    kept = []
    for m in masks:
        if not any(m | other == other for other in kept):
            kept.append(m)
    masks = kept
    if not masks:
        raise ValueError("no candidate plane separates any required pair")

    cover = 0
    for m in masks:
        cover |= m
    if cover != full:
        raise ValueError("candidate bisectors cannot separate every required pair")

    # depth-first set cover branching on the lowest uncovered pair
    best = len(masks)

    def search(covered: int, used: int):
        nonlocal best
        if covered == full:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        lowest = (~covered & full) & -(~covered & full)
        for m in masks:
            if m & lowest:
                search(covered | m, used + 1)

    search(0, 0)
    return best


# ---------------------------------------------------------------------------
# First-layer pressure experiment


@dataclass(frozen=True)
class PressureReport:
    """Per-trial first-layer widths plus near-center band statistics.

    near_fraction uses the proof's band radius factor 12; at desk-scale
    dimensions that band often swallows the whole sphere, so
    near_fraction_base (factor 1) is also reported and is the quantity
    whose sqrt(delta) scaling is testable.
    """

    m_used: list
    retries: list
    near_fraction: float
    near_fraction_base: float
    band_radius: float
    band_radius_base: float
    t: float
    num_planes: int


def first_layer_pressure_experiment(
    cds: ClusteredDataset,
    trials: int,
    seed,
    t: float = 8.0,
    num_planes: int = 10_000,
) -> PressureReport:
    """Measure the geometry that pressures the first layer of any memorizer.

    Each trial runs the stage-1 builder on the clustered points and records
    its width and retries. Independently, for random Gaussian hyperplanes,
    the report carries the mean fraction of cluster centers within band
    radius factor * sqrt(delta * ln(t) / d) of a plane, at factor 12 (the
    proof's criterion) and factor 1.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if t <= 1:
        raise ValueError("t must exceed 1")
    rng = _as_rng(seed)
    ds = cds.to_dataset()
    mode = SeparationMode.distance(cds.delta)

    m_used = []
    retries = []
    for trial in range(trials):
        cfg = ConstructionConfig(
            mode=mode, seed=int(rng.integers(0, 2**63 - 1))
        )
        result = build_first_layer(ds, cfg)
        m_used.append(result.m_used)
        retries.append(result.retries)

    d = cds.dim
    radius_base = math.sqrt(cds.delta * math.log(t) / d)
    radius = NEAR_BAND_FACTOR * radius_base
    W = rng.standard_normal((num_planes, d))
    b = rng.standard_normal(num_planes)
    norms = np.linalg.norm(W, axis=1)
    # distance of each center to each plane, planes in unit-normal form
    dist = np.abs(cds.centers @ W.T + b[None, :]) / norms[None, :]
    near_fraction = float((dist <= radius).mean())
    near_fraction_base = float((dist <= radius_base).mean())
    return PressureReport(
        m_used=m_used,
        retries=retries,
        near_fraction=near_fraction,
        near_fraction_base=near_fraction_base,
        band_radius=radius,
        band_radius_base=radius_base,
        t=t,
        num_planes=num_planes,
    )


# ---------------------------------------------------------------------------
# CSV: the dataset format with a trailing cluster column


def save_clustered_csv(cds: ClusteredDataset, path) -> None:
    save_dataset_csv(cds.to_dataset(), path, clusters=cds.cluster_ids)

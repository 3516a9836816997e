"""Labeled point sets, separation checking, and synthetic dataset generation.

A dataset is an immutable collection of real feature vectors with binary
labels. Separation between points is measured either as the pairwise angle
(angular mode) or as the pairwise Euclidean distance with a unit-norm cap
(distance mode). Checks are exact O(n^2) computations; no approximate
nearest-neighbor shortcuts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import pdist

#: Absolute tolerance absorbing floating-point normalization error in
#: distance/angle comparisons.
DEFAULT_TOL = 1e-9

#: Rejection-sampling budget per requested point before the generator
#: declares the request infeasible.
REJECTIONS_PER_POINT = 1000

ANGULAR = "angular"
DISTANCE = "distance"


class ZeroNormError(ValueError):
    """Angle to a zero vector is undefined."""


class InfeasibleGenerationError(RuntimeError):
    """Rejection sampling exhausted its budget for the requested parameters."""


@dataclass(frozen=True)
class SeparationMode:
    """Which separation notion applies and its threshold delta.

    Angular mode: min pairwise angle >= delta (radians, delta <= pi).
    Distance mode: min pairwise l2 distance >= delta (delta <= 2) and
    every point inside the unit ball.
    """

    kind: str
    delta: float

    def __post_init__(self):
        if self.kind not in (ANGULAR, DISTANCE):
            raise ValueError(f"unknown separation kind {self.kind!r}")
        if not (self.delta > 0):
            raise ValueError("delta must be positive")
        if self.kind == ANGULAR and self.delta > math.pi:
            raise ValueError("angular delta cannot exceed pi")
        if self.kind == DISTANCE and self.delta > 2:
            raise ValueError("distance delta cannot exceed the unit-ball diameter 2")

    @classmethod
    def angular(cls, delta: float) -> "SeparationMode":
        return cls(ANGULAR, float(delta))

    @classmethod
    def distance(cls, delta: float) -> "SeparationMode":
        return cls(DISTANCE, float(delta))

    @property
    def is_angular(self) -> bool:
        return self.kind == ANGULAR


class Dataset:
    """Immutable ordered collection of labeled points sharing one dimension."""

    def __init__(self, features, labels):
        features = np.array(features, dtype=np.float64)
        labels = np.array(labels, dtype=np.int8)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array (n, d)")
        if features.shape[0] < 1:
            raise ValueError("dataset needs at least one point")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector aligned with features rows")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be bits in {0, 1}")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        features.flags.writeable = False
        labels.flags.writeable = False
        self.features = features
        self.labels = labels

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def relabeled(self, labels) -> "Dataset":
        """Same points with a different labeling."""
        return Dataset(self.features, labels)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class SeparationVerdict:
    """Result of a separation check.

    worst_pair/worst_value identify the closest pair under the mode's
    metric; both are None/inf for single-point datasets. max_norm is
    populated in distance mode (the unit-ball cap is part of the check).
    """

    holds: bool
    worst_pair: Optional[tuple[int, int]]
    worst_value: float
    max_norm: Optional[float] = None


def _condensed_to_pair(k: int, n: int) -> tuple[int, int]:
    # invert the row-major condensed pdist index
    i = int(n - 2 - math.floor(math.sqrt(-8 * k + 4 * n * (n - 1) - 7) / 2.0 - 0.5))
    j = int(k + i + 1 - n * (n - 1) // 2 + (n - i) * ((n - i) - 1) // 2)
    return i, j


def check_separation(ds: Dataset, mode: SeparationMode, tol: float = DEFAULT_TOL) -> SeparationVerdict:
    """Exact pairwise separation check under the given mode.

    Angular mode rejects zero-norm vectors (the angle is undefined).
    Distance mode additionally requires every norm <= 1 + tol.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    X = ds.features
    n = ds.n
    if mode.is_angular:
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


def sample_sphere_uniform(d: int, radius: float, count: int, seed) -> np.ndarray:
    """Uniform points on the radius-r sphere in R^d via Gaussian normalization.

    Returns an array of shape (count, d) with each row of norm `radius`.
    Rotation invariance is inherited from the isotropy of the Gaussian.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be positive")
    rng = _as_rng(seed)
    X = rng.standard_normal((count, d))
    norms = np.linalg.norm(X, axis=1)
    while np.any(norms == 0):  # probability zero, but keep the contract exact
        bad = norms == 0
        X[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(X, axis=1)
    return X * (radius / norms)[:, None]


def _sample_unit_ball(rng: np.random.Generator, d: int, count: int = 1) -> np.ndarray:
    directions = rng.standard_normal((count, d))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0] = 1.0
    radii = rng.random(count) ** (1.0 / d)
    return directions * (radii / norms)[:, None]


def sample_separated(propose: Callable[[], np.ndarray], count: int, d: int,
                     min_sep: float, angular: bool, what: str) -> np.ndarray:
    """Rejection-sample `count` points of R^d from `propose()`, pairwise separated.

    A candidate closer than min_sep to any accepted point is rejected; the
    separation is the angle between unit vectors when `angular`, else the
    Euclidean distance. The budget is REJECTIONS_PER_POINT * count
    rejections, after which InfeasibleGenerationError names `what`.
    """
    budget = REJECTIONS_PER_POINT * count
    accepted = np.empty((count, d))
    # distance scratch, allocated once: a fresh (placed, d) array per
    # candidate is mapped and unmapped by malloc each time, and every
    # candidate then pays page faults for it
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
                # the arithmetic of np.linalg.norm(accepted[:placed] - cand, axis=1)
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


def generate_separated_dataset(n: int, d: int, mode: SeparationMode, seed) -> Dataset:
    """Rejection-sampled dataset guaranteed to pass check_separation at tol=0.

    Candidates are uniform in the unit ball (distance mode) or on the unit
    sphere (angular mode) and go through sample_separated. Labels are drawn
    uniformly after all points are accepted, so the output is a pure
    function of (n, d, mode, seed).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if mode.is_angular and d < 2:
        raise ValueError("angular mode needs d >= 2")
    rng = _as_rng(seed)
    if mode.is_angular:
        propose = lambda: sample_sphere_uniform(d, 1.0, 1, rng)[0]
    else:
        propose = lambda: _sample_unit_ball(rng, d)[0]
    points = sample_separated(propose, n, d, mode.delta, mode.is_angular,
                              f"{mode.kind}-separated points")
    labels = rng.integers(0, 2, size=n)
    ds = Dataset(points, labels)
    verdict = check_separation(ds, mode, tol=0.0)
    if not verdict.holds:  # guards against metric mismatches between paths
        raise InfeasibleGenerationError(
            f"generated points failed re-validation at pair {verdict.worst_pair}"
        )
    return ds


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# CSV interchange: header `label,f1,...,fd`, one row per point, full-precision
# decimal floats, row order preserved. The clustered hard instances append an
# integer `cluster` column.


def save_dataset_csv(ds: Dataset, path, clusters=None) -> None:
    """Write `ds`, with a trailing cluster column when `clusters` is given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["label"] + [f"f{j + 1}" for j in range(ds.dim)]
        writer.writerow(header if clusters is None else header + ["cluster"])
        for i in range(ds.n):
            row = [int(ds.labels[i])] + [repr(float(v)) for v in ds.features[i]]
            writer.writerow(row if clusters is None else row + [int(clusters[i])])


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV; a trailing cluster column is refused."""
    return _read_dataset_csv(path, cluster_ok=False)[0]


def load_clustered_csv(path) -> tuple[Dataset, Optional[np.ndarray]]:
    """Read a dataset CSV whose cluster column is optional.

    Returns the dataset and its cluster ids, or None without the column.
    """
    return _read_dataset_csv(path, cluster_ok=True)


def _read_dataset_csv(path, cluster_ok: bool):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        has_cluster = cluster_ok and header[-1:] == ["cluster"]
        d = len(header) - 1 - has_cluster
        if d < 1 or header[0] != "label" or header[1:d + 1] != [f"f{j + 1}" for j in range(d)]:
            expected = "label,f1,...,fd" + ("[,cluster]" if cluster_ok else "")
            raise ValueError(f"{path}: expected header {expected}, got {header!r}")
        feats = []
        labels = []
        clusters = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{row_no}: expected {len(header)} fields, got {len(row)}")
            if row[0] not in ("0", "1"):
                raise ValueError(f"{path}:{row_no}: label must be 0 or 1, got {row[0]!r}")
            labels.append(int(row[0]))
            feats.append([float(v) for v in row[1:d + 1]])
            if has_cluster:
                clusters.append(int(row[-1]))
    if not feats:
        raise ValueError(f"{path}: dataset has no rows")
    ds = Dataset(np.array(feats), np.array(labels))
    return ds, np.array(clusters, dtype=np.int64) if has_cluster else None

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
from typing import Optional

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


@dataclass(frozen=True)
class LabeledPoint:
    """A single feature vector with its binary label."""

    features: np.ndarray
    label: int


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

    def point(self, i: int) -> LabeledPoint:
        return LabeledPoint(self.features[i], int(self.labels[i]))

    def points(self) -> list[LabeledPoint]:
        return [self.point(i) for i in range(self.n)]

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


def generate_separated_dataset(n: int, d: int, mode: SeparationMode, seed) -> Dataset:
    """Rejection-sampled dataset guaranteed to pass check_separation at tol=0.

    Candidates are uniform in the unit ball (distance mode) or on the unit
    sphere (angular mode); a candidate violating delta against any accepted
    point is rejected. The budget is REJECTIONS_PER_POINT * n rejections,
    after which the request is declared infeasible. Labels are drawn
    uniformly after all points are accepted, so the output is a pure
    function of (n, d, mode, seed).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if mode.is_angular and d < 2:
        raise ValueError("angular mode needs d >= 2")
    rng = _as_rng(seed)
    budget = REJECTIONS_PER_POINT * n
    accepted = np.empty((n, d))
    # distance-mode scratch, allocated once: a fresh (count, d) array per
    # candidate is mapped and unmapped by malloc each time, and every
    # candidate then pays page faults for it
    diff = np.empty((n, d))
    dist = np.empty(n)
    count = 0
    rejections = 0
    attempts = 0
    while count < n:
        if mode.is_angular:
            cand = sample_sphere_uniform(d, 1.0, 1, rng)[0]
        else:
            cand = _sample_unit_ball(rng, d)[0]
        attempts += 1
        if count > 0:
            if mode.is_angular:
                cos = np.clip(accepted[:count] @ cand, -1.0, 1.0)
                ok = np.arccos(cos).min() >= mode.delta
            else:
                # the arithmetic of np.linalg.norm(accepted[:count] - cand, axis=1)
                sq = np.subtract(accepted[:count], cand, out=diff[:count])
                np.multiply(sq, sq, out=sq)
                dc = np.add.reduce(sq, axis=1, out=dist[:count])
                ok = np.sqrt(dc, out=dc).min() >= mode.delta
            if not ok:
                rejections += 1
                if rejections > budget:
                    raise InfeasibleGenerationError(
                        f"gave up after {attempts} candidate draws "
                        f"({rejections} rejections) while placing point "
                        f"{count + 1} of {n} at delta={mode.delta} in d={d}"
                    )
                continue
        accepted[count] = cand
        count += 1
    labels = rng.integers(0, 2, size=n)
    ds = Dataset(accepted, labels)
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
# decimal floats, row order preserved.


def save_dataset_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{j + 1}" for j in range(ds.dim)])
        for i in range(ds.n):
            writer.writerow([int(ds.labels[i])] + [repr(float(v)) for v in ds.features[i]])


def load_dataset_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        d = len(header) - 1
        if d < 1 or header[0] != "label" or header[1:] != [f"f{j + 1}" for j in range(d)]:
            raise ValueError(f"{path}: expected header label,f1,...,fd, got {header!r}")
        feats = []
        labels = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise ValueError(f"{path}:{row_no}: expected {d + 1} fields, got {len(row)}")
            if row[0] not in ("0", "1"):
                raise ValueError(f"{path}:{row_no}: label must be 0 or 1, got {row[0]!r}")
            labels.append(int(row[0]))
            feats.append([float(v) for v in row[1:]])
    if not feats:
        raise ValueError(f"{path}: dataset has no rows")
    return Dataset(np.array(feats), np.array(labels))

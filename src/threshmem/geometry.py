"""Labeled point sets, separation checking, and synthetic dataset generation.

A dataset is an immutable collection of real feature vectors with binary
labels. Separation between points is measured either as the pairwise angle
(angular mode) or as the pairwise Euclidean distance with a unit-norm cap
(distance mode). The check is exact: it compares every pair, in O(n^2)
time with no approximate nearest-neighbor shortcut, but it scans the pairs
in row blocks, so its memory is bounded by one block rather than n^2. In
distance mode a block holds Gram-form squared distances from one gemm;
they only shortlist the pairs that could be the closest, with a margin
sized to their rounding error, and those pairs are measured in exact
arithmetic, the same as pdist's. Generation rejection-samples candidates
in batches, yet accepts exactly the points that testing one candidate at
a time would.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Absolute tolerance absorbing floating-point normalization error in
#: distance/angle comparisons.
DEFAULT_TOL = 1e-9

#: Rejection-sampling budget per requested point before the generator
#: declares the request infeasible.
REJECTIONS_PER_POINT = 1000

#: The pairwise scan holds at most this many pair values at a time (1 MB
#: of float64), one block of consecutive rows against all later rows. A
#: block this size stays in cache and wastes little work on pairs below
#: the diagonal; 8 MB blocks were slower in both modes.
SCAN_BLOCK = 1 << 17

#: Machine epsilon and the smallest normal float64, for rounding-error bounds.
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

#: The Gram form is trusted only while the squared norms of a pair sum to
#: at most this, so that no square, product or distance overflows.
_GRAM_SCALE = 2.0 ** 1000

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


def _squared_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _gram_distances(A: np.ndarray, sqa: np.ndarray, B: np.ndarray,
                    sqb: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared distances of the rows of A and B in Gram form, and a bound on
    their error.

    sqa and sqb hold the rows' squared norms. Entry [r, c] is
    (sqa[r] - 2 A[r]·B[c]) + sqb[c], from one gemm. With u = eps/2,
    N = max sqa + max sqb and τ the smallest normal float: each squared
    norm is within γ_d·‖a‖² of the true one and each product a·b within
    γ_d·‖a‖‖b‖ ≤ γ_d·N/2, in any summation order, with FMA or without;
    doubling is exact, and the two additions round by at most 2uN and
    3uN. A product that underflows (|x| ≲ 1e-154) errs by less than τ
    instead, 4d·τ in all. So an entry is within (2d + 5)·u·N + 4d·τ,
    to first order in u, of the true squared distance. The returned bound
    4(d + 2)(eps·N + 4τ) is more than three times that.

    Past N = 2^1000 (|x| ≳ 1e150) a square or an entry may overflow, and
    the bound is inf: no entry can be trusted.
    """
    d = A.shape[1]
    scale = float(sqa.max() + sqb.max())  # N
    with np.errstate(over="ignore", invalid="ignore"):
        block = A @ B.T
        block *= -2.0
        block += sqa[:, None]
        block += sqb
    if not scale <= _GRAM_SCALE:
        return block, math.inf
    return block, 4 * (d + 2) * (_EPS * scale + 4 * _TINY)


def _exact_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances of A[k] and B[k] for each k in pdist's and cdist's own
    arithmetic: the squared differences summed left to right, then sqrt.
    A and B must have at least one column; A is overwritten."""
    with np.errstate(over="ignore"):
        A -= B
        np.multiply(A, A, out=A)
        return np.sqrt(np.cumsum(A, axis=1, out=A)[:, -1])


def _shortlist_minimum(X: np.ndarray, i0: int, block: np.ndarray,
                       err: float) -> tuple[int, float]:
    """Flat index into `block` of its exactly closest pair, and the distance.

    block[r, c] is the Gram-form squared distance of rows i0 + r and
    i0 + 1 + c of X, +inf where masked, and `err` its error bound from
    _gram_distances. Only the pairs within 2·err of the block's least value
    are measured exactly (_exact_distances), in chunks of at most
    SCAN_BLOCK values; the first least one in row-major order wins. If err
    is inf, every pair of the block is measured.

    Why a pair left out can neither beat nor tie the winner (u, N and τ as
    in _gram_distances). Let q hold the least Gram value g_q and p be left
    out, g_p > g_q + 2·err. Let s be a pair's exact sum of squares before
    the sqrt; it is within F = 2(d + 2)·u·N + d·τ of the true squared
    distance D² ≤ 2N (each difference and square rounds by u, the sum by
    γ_{d-1}, an underflowing square by less than τ). With err's true part
    E = (2d + 5)·u·N + 4d·τ:
      s_p ≥ g_p - E - F > g_q + 2·err - E - F ≥ s_q + 2·err - 2E - 2F,
    and 2·err - 2E - 2F ≥ (8d + 14)·u·N + (22d + 64)·τ > 5u·s_q, since
    s_q ≤ 2N + F. So s_p > (1 + 5u)·s_q, and the correctly rounded sqrt
    keeps dist_p > dist_q ≥ the winner's distance.
    """
    rows, cols = block.shape
    if math.isfinite(err):
        flat = np.flatnonzero(block <= block.min() + 2 * err)
    else:
        flat = np.flatnonzero(~np.tri(rows, cols, k=-1, dtype=bool))
    best_k, best = -1, math.inf
    step = max(1, SCAN_BLOCK // X.shape[1])
    for s in range(0, len(flat), step):
        k = flat[s:s + step]
        r, c = np.divmod(k, cols)
        dist = _exact_distances(X[i0 + r], X[i0 + 1 + c])
        m = int(np.argmin(dist))
        if best_k < 0 or dist[m] < best:
            best_k, best = int(k[m]), float(dist[m])
        if best == 0.0:  # nothing is closer, and a tie goes to the earlier pair
            break
    return best_k, best


def _closest_pair(X: np.ndarray, angular: bool) -> tuple[tuple[int, int], float]:
    """The closest pair i < j of the rows of X (at least two) and its value.

    Angular: the largest dot product, clipped to [-1, 1], of rows that the
    caller has scaled to unit norm. Otherwise: the smallest Euclidean
    distance, equal to pdist's bit for bit. Ties go to the first pair in
    row-major order. Rows are scanned in blocks against all later rows,
    each block holding at most SCAN_BLOCK values (at least one row), and
    the best pair so far is kept. In distance mode a block holds Gram-form
    squared distances, which only shortlist the pairs that are then
    measured exactly (_shortlist_minimum).
    """
    n = X.shape[0]
    if not angular:
        if X.shape[1] == 0:  # every pair is at distance 0
            return (0, 1), 0.0
        sq = _squared_norms(X)
    best_pair, best = None, None
    i0 = 0
    while i0 < n - 1:
        cols = n - 1 - i0
        rows = min(max(1, SCAN_BLOCK // cols), cols)
        later = X[i0 + 1:]
        if angular:
            block = X[i0:i0 + rows] @ later.T
            np.clip(block, -1.0, 1.0, out=block)
        else:
            block, err = _gram_distances(X[i0:i0 + rows], sq[i0:i0 + rows], later, sq[i0 + 1:])
        # block[r, c] pairs rows i0 + r and i0 + 1 + c: c < r is a pair at
        # or below the diagonal, seen already or a row with itself
        block[:, :rows][np.tri(rows, k=-1, dtype=bool)] = -np.inf if angular else np.inf
        if angular:
            k = int(np.argmax(block))
            value = float(block.flat[k])
        else:
            k, value = _shortlist_minimum(X, i0, block, err)
        if best is None or (value > best if angular else value < best):
            r, c = divmod(k, cols)
            best_pair, best = (i0 + r, i0 + 1 + c), value
        if best == 0.0 and not angular:  # no later pair can be closer
            break
        i0 += rows
    return best_pair, best


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle of nonzero u, v by Kahan's 2 atan2(|u|v| - v|u||, |u|v| + v|u||)."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    return 2.0 * math.atan2(np.linalg.norm(u * nv - v * nu), np.linalg.norm(u * nv + v * nu))


def check_separation(ds: Dataset, mode: SeparationMode, tol: float = DEFAULT_TOL) -> SeparationVerdict:
    """Exact pairwise separation check under the given mode.

    Angular mode rejects zero-norm vectors (the angle is undefined).
    Distance mode additionally requires every norm <= 1 + tol. Memory is
    bounded by one SCAN_BLOCK of pair values, whatever n.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    X = ds.features
    n = ds.n
    if mode.is_angular:
        # scaled by the power of two that puts each row's largest |x| in
        # [0.5, 1), which is exact: the squares in the norm can then neither
        # underflow nor overflow
        X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=1, initial=0.0))[1][:, None])
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms == 0):
            raise ZeroNormError("angular separation undefined for zero-norm vectors")
        if n == 1:
            return SeparationVerdict(True, None, math.inf)
        U = X / norms[:, None]
        pair, cosine = _closest_pair(U, angular=True)
        # arccos reads every cosine that rounds to 1 as angle 0
        worst = float(np.arccos(cosine)) if cosine < 1.0 else _angle(U[pair[0]], U[pair[1]])
        return SeparationVerdict(worst >= mode.delta - tol, pair, worst)

    norms = np.linalg.norm(X, axis=1)
    max_norm = float(norms.max())
    norm_ok = max_norm <= 1.0 + tol
    if n == 1:
        return SeparationVerdict(norm_ok, None, math.inf, max_norm)
    pair, worst = _closest_pair(X, angular=False)
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


def _sample_unit_ball(rng: np.random.Generator, d: int) -> np.ndarray:
    """One uniform point of the unit ball in R^d, as a (1, d) array."""
    directions = rng.standard_normal((1, d))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0] = 1.0
    radii = rng.random(1) ** (1.0 / d)
    return directions * (radii / norms)[:, None]


#: sample_separated draws and tests at most this many candidates at once.
#: Its batch-against-batch block must fit in SCAN_BLOCK values: 256**2 does.
PROPOSAL_BATCH = 256

#: A batch verdict on a pair counts only when the pair's value lies farther
#: than this from the threshold: relative for distances, absolute for
#: cosines of unit vectors. Blocked products round differently from the
#: one-candidate arithmetic, but only by about d * 2.2e-16, far inside it.
#: Distances are tested in Gram form, whose own error bound is added.
SAMPLE_MARGIN = 1e-9

#: Pair verdicts, ordered so that a candidate's verdict is their minimum.
_CLOSE, _UNSURE, _FAR = -1, 0, 1


def _pair_verdicts(cands: np.ndarray, rows: np.ndarray, min_sep: float,
                   angular: bool) -> np.ndarray:
    """(len(cands), len(rows)) int8 array: _FAR or _CLOSE where the pair is
    surely at least or surely less than min_sep apart, else _UNSURE."""
    if angular:
        cos = cands @ rows.T
        threshold = math.cos(min_sep)
        return (cos < threshold - SAMPLE_MARGIN).view(np.int8) - (cos > threshold + SAMPLE_MARGIN)
    # a Gram value past the margin by more than err is a squared distance
    # past it: err bounds the Gram form's error and, with room to spare, the
    # one-candidate arithmetic's underflow; the margin covers its rounding
    sq, err = _gram_distances(cands, _squared_norms(cands), rows, _squared_norms(rows))
    return ((sq > (min_sep * (1 + SAMPLE_MARGIN)) ** 2 + err).view(np.int8)
            - (sq < (min_sep * (1 - SAMPLE_MARGIN)) ** 2 - err))


def _separated(cand: np.ndarray, accepted: np.ndarray, min_sep: float, angular: bool) -> bool:
    """The one-candidate test, whose arithmetic decides the unsure pairs."""
    if angular:
        return bool(np.arccos(np.clip(accepted @ cand, -1.0, 1.0)).min() >= min_sep)
    return bool(np.linalg.norm(accepted - cand, axis=1).min() >= min_sep)


def sample_separated(propose: Callable[[int], np.ndarray], count: int, d: int,
                     min_sep: float, angular: bool, what: str) -> np.ndarray:
    """Rejection-sample `count` points of R^d from `propose`, pairwise separated.

    `propose(k)` returns the next k candidates as a (k, d) array, the same
    rows that k calls for one candidate each would have returned. A
    candidate closer than min_sep to any accepted point is rejected; the
    separation is the angle between unit vectors when `angular`, else the
    Euclidean distance. The budget is REJECTIONS_PER_POINT * count
    rejections, after which InfeasibleGenerationError names `what`.

    Candidates are tested in batches, each against the points accepted
    before it in blocks of at most SCAN_BLOCK values, but every decision is
    the one-candidate loop's: a pair within SAMPLE_MARGIN of min_sep is
    decided by `_separated` against exactly the points that loop would have
    accepted by then. No batch reaches past the last candidate that loop
    must draw, so the caller's generator ends in the same state.
    """
    budget = REJECTIONS_PER_POINT * count
    accepted = np.empty((count, d))
    placed = 0
    rejections = 0
    attempts = 0
    while placed < count:
        k = min(count - placed, budget + 1 - rejections, PROPOSAL_BATCH,
                max(1, math.isqrt(SCAN_BLOCK)))
        cands = propose(k)
        # each candidate's verdict against the points accepted before the batch
        verdicts = np.full(k, _FAR, dtype=np.int8)
        step = max(1, SCAN_BLOCK // k)
        for i0 in range(0, placed, step):
            block = _pair_verdicts(cands, accepted[i0:min(i0 + step, placed)], min_sep, angular)
            np.minimum(verdicts, block.min(axis=1), out=verdicts)
        within = _pair_verdicts(cands, cands, min_sep, angular)
        # candidates not surely far from every earlier one in the batch
        crowded = np.tril(within != _FAR, k=-1).any(axis=1)
        taken = []  # batch indices accepted so far
        for j, (verdict, near) in enumerate(zip(verdicts.tolist(), crowded.tolist())):
            attempts += 1
            if near and verdict != _CLOSE and taken:
                verdict = min(verdict, int(within[j, taken].min()))
            if verdict == _UNSURE:
                verdict = _FAR if _separated(cands[j], accepted[:placed], min_sep, angular) else _CLOSE
            if verdict == _CLOSE:
                rejections += 1
                if rejections > budget:
                    raise InfeasibleGenerationError(
                        f"gave up sampling {what} after {attempts} candidate draws "
                        f"({rejections} rejections) while placing point {placed + 1} "
                        f"of {count} at separation {min_sep:.4g} in d={d}"
                    )
                continue
            accepted[placed] = cands[j]
            placed += 1
            taken.append(j)
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
        propose = lambda k: sample_sphere_uniform(d, 1.0, k, rng)
    else:
        # the normal and uniform draws of consecutive points interleave
        propose = lambda k: np.concatenate([_sample_unit_ball(rng, d) for _ in range(k)])
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


#: save_dataset_csv formats and writes this many feature values at a time.
WRITE_BLOCK = 1 << 16


def save_dataset_csv(ds: Dataset, path, clusters=None) -> None:
    """Write `ds`, with a trailing cluster column when `clusters` is given.

    The bytes are those of csv.writer's default dialect: fields joined by
    commas, CRLF line ends, features as repr() of the float (never quoted,
    since no repr holds a comma, quote or line break) and labels and
    cluster ids as plain integers. Rows are formatted and written in blocks
    of about WRITE_BLOCK values.
    """
    if clusters is not None:
        clusters = np.asarray(clusters, dtype=np.int64)
        if clusters.shape != (ds.n,):
            raise ValueError(f"clusters must hold one id per point: {ds.n} points, "
                             f"clusters of shape {clusters.shape}")
    header = ["label"] + [f"f{j + 1}" for j in range(ds.dim)]
    rows = max(1, WRITE_BLOCK // ds.dim)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header if clusters is None else header + ["cluster"]) + "\r\n")
        for i0 in range(0, ds.n, rows):
            labels = ds.labels[i0:i0 + rows].tolist()
            feats = ds.features[i0:i0 + rows].tolist()
            if clusters is None:
                fh.writelines(f"{y},{','.join(map(repr, x))}\r\n" for y, x in zip(labels, feats))
            else:
                ids = clusters[i0:i0 + rows].tolist()
                fh.writelines(f"{y},{','.join(map(repr, x))},{c}\r\n"
                              for y, x, c in zip(labels, feats, ids))


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
            try:
                feats.append([float(v) for v in row[1:d + 1]])
                if has_cluster:
                    clusters.append(int(row[-1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{row_no}: {exc}") from None
    if not feats:
        raise ValueError(f"{path}: dataset has no rows")
    feats = np.array(feats)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        row_no = int(np.argmin(finite)) + 2
        raise ValueError(f"{path}:{row_no}: features must be finite")
    ds = Dataset(feats, np.array(labels))
    return ds, np.array(clusters, dtype=np.int64) if has_cluster else None

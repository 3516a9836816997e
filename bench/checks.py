"""Output checks that do not go through the program's own code paths.

CSV and network JSON files are parsed here with the standard library, the
separation check is a blocked pairwise scan of its own, and the network is
evaluated with a sparse arithmetic of its own. Each check raises
CheckFailed with a message naming what is wrong.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

#: Rows per block of the pairwise scan: a block pair holds BLOCK^2 floats.
BLOCK = 1024

#: Candidate pairs this close to the threshold under the Gram-matrix
#: formula are re-measured directly, so the verdict is exact at tolerance 0.
RECHECK_MARGIN = 1e-6

#: Samples per block of the independent evaluator.
EVAL_BLOCK = 32

#: Width constants of the first layer, c in d1 = ceil((c / delta) ln(n / eps1)).
C_DISTANCE = 13.0
C_ANGULAR = 4 * math.pi
EPS1 = 0.1
#: Consecutive failures at one width before the first layer doubles.
FAILURES_BEFORE_WIDEN = 3

#: Clustered points have unit norm up to rounding of the last bits.
UNIT_NORM_TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class CsvDataset:
    labels: np.ndarray  # (n,) int8
    features: np.ndarray  # (n, d) float64
    clusters: Optional[np.ndarray]  # (n,) int64 when the file has a cluster column

    @property
    def n(self) -> int:
        return self.features.shape[0]


def read_dataset(path) -> CsvDataset:
    """A dataset CSV `label,f1,...,fd[,cluster]`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    has_cluster = header[-1] == "cluster"
    d = len(header) - 1 - has_cluster
    require(header[:d + 1] == ["label"] + [f"f{j + 1}" for j in range(d)],
            f"{path}: unexpected header {header[:4]}...")
    require(len(body) > 0 and all(len(r) == len(header) for r in body),
            f"{path}: ragged or empty rows")
    require(all(r[0] in ("0", "1") for r in body), f"{path}: labels must be bits")
    labels = np.array([int(r[0]) for r in body], dtype=np.int8)
    features = np.array([[float(v) for v in r[1:d + 1]] for r in body])
    clusters = np.array([int(r[-1]) for r in body]) if has_cluster else None
    return CsvDataset(labels, features, clusters)


def write_plain_dataset(src: CsvDataset, path) -> None:
    """The same points and labels without the cluster column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{j + 1}" for j in range(src.features.shape[1])])
        for label, row in zip(src.labels, src.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# Datasets


def closest_pair(X: np.ndarray, angular: bool, delta: float):
    """(value, i, j) of the closest pair under the mode's metric, if it is
    closer than delta; None when every pair is at least delta apart.

    Blocks of the Gram matrix flag candidate pairs; each candidate is then
    measured directly (difference norm, or angle of normalised vectors).
    """
    n = X.shape[0]
    norms = np.linalg.norm(X, axis=1)
    if angular:
        require(bool(np.all(norms > 0)), "angular dataset has a zero vector")
        U = X / norms[:, None]
        limit = math.cos(delta) - RECHECK_MARGIN
    else:
        sq = norms ** 2
        limit = (delta + RECHECK_MARGIN) ** 2
    worst = None
    for i0 in range(0, n, BLOCK):
        i1 = min(i0 + BLOCK, n)
        for j0 in range(i0, n, BLOCK):
            j1 = min(j0 + BLOCK, n)
            if angular:
                flagged = U[i0:i1] @ U[j0:j1].T > limit
            else:
                d2 = sq[i0:i1, None] + sq[None, j0:j1] - 2.0 * (X[i0:i1] @ X[j0:j1].T)
                flagged = d2 < limit
            for a, b in np.argwhere(flagged):
                i, j = i0 + int(a), j0 + int(b)
                if i >= j:
                    continue
                if angular:
                    cos = float(X[i] @ X[j]) / (norms[i] * norms[j])
                    value = math.acos(min(1.0, max(-1.0, cos)))
                else:
                    value = float(np.linalg.norm(X[i] - X[j]))
                if value < delta and (worst is None or value < worst[0]):
                    worst = (value, i, j)
    return worst


def check_dataset(ds: CsvDataset, angular: bool, delta: float, clustered: bool) -> None:
    """delta-separation at tolerance 0, plus the norm and label layout.

    Distance-mode points lie in the unit ball; the clustered hard instance
    puts every point on the unit sphere with labels balanced per cluster.
    """
    pair = closest_pair(ds.features, angular, delta)
    require(pair is None,
            f"dataset not separated: pair {pair and pair[1:]} at {pair and pair[0]!r} < {delta}")
    norms = np.linalg.norm(ds.features, axis=1)
    if clustered:
        require(ds.clusters is not None, "clustered dataset lacks its cluster column")
        require(bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL)),
                f"clustered point off the unit sphere: norm {norms[np.argmax(np.abs(norms - 1))]!r}")
        for c in np.unique(ds.clusters):
            labels = ds.labels[ds.clusters == c]
            ones = int(labels.sum())
            require(abs(2 * ones - labels.size) <= 1,
                    f"cluster {c}: {ones} ones among {labels.size} labels")
    elif not angular:
        require(float(norms.max()) <= 1.0, f"point outside the unit ball: norm {norms.max()!r}")


# ---------------------------------------------------------------------------
# Network


def read_network(path) -> dict:
    return json.loads(Path(path).read_bytes())


@dataclass(frozen=True)
class NetworkCounts:
    neurons: int
    weights: int  # nonzero entries plus biases
    depth: int


def count_network(doc: dict) -> NetworkCounts:
    layers = doc["layers"]
    neurons = sum(la["rows"] for la in layers)
    weights = sum(len(la["entries"]) + len(la["bias"]) for la in layers)
    return NetworkCounts(neurons, weights, len(layers))


def evaluate(doc: dict, X: np.ndarray) -> np.ndarray:
    """Output bits of the network document on the rows of X.

    A layer's pre-activation is its bias plus, over its (row, col, value)
    entries, value * input[col] added into row; ties activate. Sums run in
    float64, exact for the small integers of the integer layers.
    """
    layers = []
    for la in doc["layers"]:
        e = np.array(la["entries"], dtype=np.float64).reshape(-1, 3)
        layers.append((la["rows"], np.array(la["bias"], dtype=np.float64),
                       e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]))
    out = []
    for b0 in range(0, X.shape[0], EVAL_BLOCK):
        Z = np.asarray(X[b0:b0 + EVAL_BLOCK], dtype=np.float64).T  # (width, samples)
        b = Z.shape[1]
        for n_rows, bias, rows, cols, vals in layers:
            slot = rows[:, None] * b + np.arange(b)
            P = np.bincount(slot.ravel(), weights=(Z[cols] * vals[:, None]).ravel(),
                            minlength=n_rows * b).reshape(n_rows, b)
            Z = (P + bias[:, None] >= 0).astype(np.float64)
        out.append(Z[0].astype(np.int8))
    return np.concatenate(out)


def check_recall(ds: CsvDataset, preds_path, summary_path) -> np.ndarray:
    """eval's predictions equal the labels on every row; returns them."""
    with open(preds_path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["index", "label", "prediction"], f"{preds_path}: bad header {rows[0]}")
    body = np.array([[int(v) for v in r] for r in rows[1:]], dtype=np.int64).reshape(-1, 3)
    require(body.shape[0] == ds.n, f"{preds_path}: {body.shape[0]} rows for {ds.n} points")
    require(np.array_equal(body[:, 0], np.arange(ds.n)), f"{preds_path}: rows out of order")
    require(np.array_equal(body[:, 1], ds.labels), f"{preds_path}: label column differs")
    wrong = np.flatnonzero(body[:, 2] != ds.labels)
    require(wrong.size == 0, f"eval mislabels {wrong.size} points, first {wrong[:1]}")
    summary = json.loads(Path(summary_path).read_text())
    require(summary.get("n") == ds.n and summary.get("correct") == ds.n,
            f"summary reports {summary}")
    return body[:, 2].astype(np.int8)


def check_independent_eval(doc: dict, ds: CsvDataset, preds: np.ndarray, subset: np.ndarray) -> None:
    bits = evaluate(doc, ds.features[subset])
    wrong = np.flatnonzero(bits != ds.labels[subset])
    require(wrong.size == 0,
            f"independent evaluator mislabels {wrong.size} of {subset.size} points, "
            f"first index {subset[wrong[:1]]}")
    require(np.array_equal(bits, preds[subset]), "independent evaluator disagrees with eval")


def check_structure(doc: dict, report: dict, n: int, angular: bool, delta: float) -> NetworkCounts:
    """The paper's structure, and the JSON's totals against report.json."""
    layers = doc["layers"]
    require(layers[0]["domain"] == "real", "first layer is not real")
    require(all(la["domain"] == "integer" for la in layers[1:]), "a later layer is not integer")
    dims = report["dims"]
    d2 = dims["d2"]
    max_int = max(max((abs(v) for _, _, v in la["entries"]), default=0) for la in layers[1:])
    max_int = max(max_int, max(max((abs(b) for b in la["bias"]), default=0) for la in layers[1:]))
    require(max_int <= d2 + 1, f"max |integer weight| {max_int} > d2 + 1 = {d2 + 1}")
    counts = count_network(doc)
    require(counts.neurons <= report["neuron_bound"],
            f"{counts.neurons} neurons exceed the bound {report['neuron_bound']}")
    require(dims["max_subset_size"] <= math.isqrt(n - 1) + 1,
            f"max_subset_size {dims['max_subset_size']} > ceil(sqrt({n}))")
    c = C_ANGULAR if angular else C_DISTANCE
    retries = report["retries"]["first_layer"]
    d1 = math.ceil((c / delta) * math.log(n / EPS1)) * 2 ** (retries // FAILURES_BEFORE_WIDEN)
    require(dims["d1"] == d1 == layers[0]["rows"],
            f"d1 {dims['d1']} (first layer rows {layers[0]['rows']}) != {d1}")
    totals = report["totals"]
    depth = report["steps"][-1]["layer_span"][1]
    require((counts.neurons, counts.weights, counts.depth)
            == (totals["neurons"], totals["weights"], depth),
            f"JSON totals {counts} != report {totals['neurons']}, {totals['weights']}, {depth}")
    require(report["n"] == n, f"report n {report['n']} != {n}")
    return counts

"""Four-step construction of a threshold network memorizing a separated dataset.

Pipeline, for a dataset of n points in d dimensions separated by delta:

1. A real Gaussian layer of ~ (1/delta) * log(n) hyperplanes turns each
   point into a distinct binary code.
2. Random GF(2) masks compress those codes to ~ log(n) bits; the parity
   computations are compiled into sparse integer layers of two-neuron XOR
   gadgets arranged as balanced binary trees.
3. The compressed codes are partitioned by a binary trie into prefix-keyed
   subsets of at most ceil(sqrt(n)) members; one layer appends subset
   indicator bits and copies the code through.
4. An expansion layer scatters each code into its subset's chunk, a bank of
   at most ceil(sqrt(n)) neurons memorizes one label-1 member per subset
   each, and a final OR neuron sums them up.

Every probabilistic step enforces its postcondition by resampling; after
three consecutive failures at a given width the width doubles, and a global
retry cap turns persistent failure into a loud error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .geometry import DEFAULT_TOL, Dataset, SeparationMode, as_bit_labels, check_separation
from .netcore import (
    NetworkAudit,
    ThresholdLayer,
    ThresholdNetwork,
    audit,
    evaluate_layers,
    forward_batch,
)

#: Consecutive failures of a probabilistic step at one width before the
#: width doubles.
FAILURES_BEFORE_WIDEN = 3


class DatasetNotSeparatedError(ValueError):
    """The dataset violates the separation precondition of the builder."""

    def __init__(self, message, worst_pair=None, worst_value=None):
        super().__init__(message)
        self.worst_pair = worst_pair
        self.worst_value = worst_value


class ConstructionRetryError(RuntimeError):
    """A probabilistic step exhausted its retry budget."""

    def __init__(self, message, worst_pair=None, worst_value=None):
        super().__init__(message)
        self.worst_pair = worst_pair
        self.worst_value = worst_value


class MemorizationCheckError(RuntimeError):
    """The finished network failed its own recall check; this is a bug."""


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def as_code_matrix(codes) -> np.ndarray:
    """Validate a stack of equal-length bit vectors; returns uint8 (n, bits)."""
    arr = np.asarray(codes)
    if arr.ndim != 2:
        raise ValueError("codes must form a 2-D array, one code per row")
    if arr.shape[1] < 1:
        raise ValueError("codes must have positive length")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("codes may contain only bits 0 and 1")
    return arr.astype(np.uint8)


@dataclass(frozen=True)
class ConstructionConfig:
    """Knobs of the builder.

    eps1/eps2 are the nominal failure budgets sizing the first layer and
    the compression mask count; failures are retried regardless, so they
    only pad widths. c_dist is the distance-mode width constant (the
    angular constant is pinned at 4*pi). The seed fixes every random draw;
    step k consumes the stream seeded by SeedSequence(seed, spawn_key=(k,)),
    first layer k=0, compression k=1.
    """

    mode: SeparationMode
    eps1: float = 0.1
    eps2: float = 0.1
    seed: int = 0
    max_retries: int = 20
    c_dist: float = 13.0

    def __post_init__(self):
        if not (0 < self.eps1 < 1 and 0 < self.eps2 < 1):
            raise ValueError("eps1 and eps2 must lie in (0, 1)")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if not (0 < self.c_dist < math.inf):
            raise ValueError(f"c_dist must be positive and finite, got {self.c_dist}")

    def first_layer_width(self, n: int) -> int:
        """Starting hyperplane count before any retry-driven doubling."""
        delta = self.mode.delta
        const = 4 * math.pi if self.mode.is_angular else self.c_dist
        return _finite_width((const / delta) * math.log(n / self.eps1), "first-layer")

    def compression_width(self, n: int) -> int:
        """Starting mask count; log base 2 closes the 2^-m union bound."""
        return _finite_width(3 * math.log2(n / self.eps2), "compression")

    def step_rng(self, step: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(step,)))


def _finite_width(width: float, name: str) -> int:
    if not math.isfinite(width):
        raise ValueError(f"{name} width {width} is not finite")
    return math.ceil(width)


# ---------------------------------------------------------------------------
# Step 1: Gaussian coding layer


@dataclass(frozen=True)
class FirstLayerResult:
    layer: ThresholdLayer
    codes: np.ndarray  # (n, m_used) uint8, pairwise distinct rows
    m_used: int
    retries: int


def _duplicate_groups(codes: np.ndarray) -> list[list[int]]:
    """Indices of the rows that share a code, one ascending list per shared
    code, in order of each code's first row."""
    packed = np.packbits(codes, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    members = np.argsort(inverse, kind="stable")
    ends = np.cumsum(counts)
    shared = np.flatnonzero(counts > 1)
    return [members[ends[k] - counts[k] : ends[k]].tolist()
            for k in shared[np.argsort(first[shared])]]


def _attempt_widths(start: int, max_retries: int):
    """Width of each attempt of a resampled step: max_retries attempts, the
    width doubling after every FAILURES_BEFORE_WIDEN of them."""
    for k in range(max_retries):
        yield start << (k // FAILURES_BEFORE_WIDEN)


def _closest_colliding_pair(ds: Dataset, groups, mode: SeparationMode):
    """The closest pair of points that share a code, and its separation."""
    verdicts = [(check_separation(Dataset(ds.features[g], ds.labels[g]), mode), g) for g in groups]
    verdict, group = min(verdicts, key=lambda vg: vg[0].worst_value)
    i, j = verdict.worst_pair
    return (group[i], group[j]), verdict.worst_value


def build_first_layer(ds: Dataset, cfg: ConstructionConfig) -> FirstLayerResult:
    """Random-hyperplane coding layer with distinct codes enforced by retry.

    Angular mode draws homogeneous hyperplanes (zero biases); distance mode
    draws Gaussian biases as well. Codes are computed through the shared
    evaluation path so they match later network forwards bit for bit.
    """
    rng = cfg.step_rng(0)
    for retries, m in enumerate(_attempt_widths(cfg.first_layer_width(ds.n), cfg.max_retries)):
        W = rng.standard_normal((m, ds.dim))
        if cfg.mode.is_angular:
            b = np.zeros(m)
        else:
            b = rng.standard_normal(m)
        layer = ThresholdLayer.real(W, b)
        codes = evaluate_layers([layer], ds.features).astype(np.uint8)
        groups = _duplicate_groups(codes)
        if not groups:
            return FirstLayerResult(layer, codes, m, retries)
    pair, value = _closest_colliding_pair(ds, groups, cfg.mode)
    raise ConstructionRetryError(
        f"first layer failed to separate all pairs after {cfg.max_retries} retries "
        f"(width reached {m}); worst colliding pair {pair} at "
        f"{cfg.mode.kind} separation {value:.6g} vs required {cfg.mode.delta}",
        worst_pair=pair,
        worst_value=value,
    )


# ---------------------------------------------------------------------------
# Step 2: GF(2) compression


def gf2_inner_product(z, mask) -> int:
    """Parity of the bitwise AND of two equal-length bit vectors."""
    z = np.asarray(z)
    mask = np.asarray(mask)
    if z.shape != mask.shape or z.ndim != 1:
        raise ValueError(f"length mismatch: {z.shape} vs {mask.shape}")
    if not (np.isin(z, (0, 1)).all() and np.isin(mask, (0, 1)).all()):
        raise ValueError("inputs must be bit vectors")
    return int(np.bitwise_and(z.astype(np.uint8), mask.astype(np.uint8)).sum()) & 1


@dataclass(frozen=True)
class CompressionPlan:
    """The Bernoulli(0.5) masks whose parities compress the stage-1 codes."""

    masks: np.ndarray  # (m, d1) uint8

    def __post_init__(self):
        object.__setattr__(self, "masks", as_code_matrix(self.masks))

    @property
    def m(self) -> int:
        return self.masks.shape[0]

    @property
    def input_length(self) -> int:
        return self.masks.shape[1]


@dataclass(frozen=True)
class CompressionResult:
    plan: CompressionPlan
    compressed: np.ndarray  # (n, m) uint8, pairwise distinct rows
    retries: int


def apply_compression(codes: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """All mask parities of all codes at once; float64 keeps counts exact."""
    counts = codes.astype(np.float64) @ masks.T.astype(np.float64)
    return (counts % 2).astype(np.uint8)


def plan_compression(codes, cfg: ConstructionConfig) -> CompressionResult:
    """Draw masks until the compressed codes are pairwise distinct."""
    codes = as_code_matrix(codes)
    n, d1 = codes.shape
    if _duplicate_groups(codes):
        raise ValueError("input codes must be pairwise distinct")
    rng = cfg.step_rng(1)
    for retries, m in enumerate(_attempt_widths(cfg.compression_width(n), cfg.max_retries)):
        masks = rng.integers(0, 2, size=(m, d1), dtype=np.uint8)
        compressed = apply_compression(codes, masks)
        if not _duplicate_groups(compressed):
            return CompressionResult(CompressionPlan(masks), compressed, retries)
    raise ConstructionRetryError(
        f"mask compression failed to stay injective after {cfg.max_retries} retries "
        f"(width reached {m}); this signals a configuration error"
    )


# ---------------------------------------------------------------------------
# Step 2, threshold compilation: XOR gadget trees
#
# One XOR node costs three neurons: u = sigma(a - b - 1), v = sigma(b - a - 1),
# then sigma(u + v - 1). (The outer -1 bias is required for the (0,0) case
# under the ties-activate convention.) Mask zeros contribute nothing and are
# folded away; pass-through neurons sigma(2z - 1) carry finished trees and
# odd leftovers forward so all m parities land in a single output layer.


@dataclass(frozen=True)
class XorSubnetwork:
    layers: list
    gadget_neurons: int
    padding_neurons: int


def _xor_level(tree: np.ndarray, signal: np.ndarray, m: int, in_dim: int):
    """One level of all m parity trees: the half layer, the combine layer,
    and the tree of each combine neuron, in order.

    tree[k] and signal[k] name the k-th live signal, grouped by tree in
    order. Each tree's signals pair up in order into XOR nodes; an odd last
    signal is copied, and an empty tree gets one constant-zero neuron.
    """
    count = np.bincount(tree, minlength=m)
    ops = np.maximum((count + 1) // 2, 1)  # per tree: XOR nodes and copies
    op_tree = np.repeat(np.arange(m), ops)
    pos = np.arange(tree.size) - (np.cumsum(count) - count)[tree]
    op = (np.cumsum(ops) - ops)[tree] + pos // 2  # each signal's op
    xor = np.bincount(op, minlength=op_tree.size) == 2  # else a copy or a constant
    height = 1 + xor  # half neurons per op
    first = np.cumsum(height) - height  # each op's first half neuron

    # an XOR node on (a, b) has half neurons sigma(a - b - 1), sigma(b - a - 1);
    # a copy of s is sigma(2s - 1); a constant is sigma(-1). Signal q of a
    # node weighs +1 in half neuron q and -1 in the other.
    paired = xor[op]
    q = pos % 2
    half = ThresholdLayer.integer_from_entries(
        int(height.sum()), in_dim,
        np.concatenate([first[op] + q, (first[op] + 1 - q)[paired]]),
        np.concatenate([signal, signal[paired]]),
        np.concatenate([np.where(paired, 1, 2), np.full(int(paired.sum()), -1)]),
        np.full(int(height.sum()), -1),
    )
    # an XOR node sums its two half neurons, a copy doubles its one
    out = np.arange(op_tree.size)
    combine = ThresholdLayer.integer_from_entries(
        op_tree.size, half.out_dim,
        np.concatenate([out, out[xor]]),
        np.concatenate([first, first[xor] + 1]),
        np.where(np.concatenate([xor, xor[xor]]), 1, 2),
        np.full(op_tree.size, -1),
    )
    return half, combine, op_tree


def build_xor_subnetwork(plan: CompressionPlan, d1: int) -> XorSubnetwork:
    """Integer layers mapping z in {0,1}^d1 to its m mask parities."""
    masks = plan.masks
    if plan.input_length != d1:
        raise ValueError(f"masks expect input length {plan.input_length}, got d1={d1}")
    m = plan.m
    tree, signal = np.nonzero(masks)
    live = masks.sum(axis=1)
    levels = max(int(live.max()) - 1, 0).bit_length()

    if levels == 0:
        # every mask has at most one live bit: the half layer copies it alone
        layers = [_xor_level(tree, signal, m, d1)[0]]
    else:
        layers = []
        in_dim = d1
        for _ in range(levels):
            half, combine, tree = _xor_level(tree, signal, m, in_dim)
            layers += [half, combine]
            signal = np.arange(tree.size)
            in_dim = tree.size
        # after the last level each tree holds one signal emitted in tree
        # order, so row k of the final layer is exactly parity k
        assert tree.size == m

    # each XOR node merges two signals of one tree into one, so a tree of
    # c > 0 live bits costs c - 1 nodes of three neurons
    gadget_neurons = 3 * int(live.sum() - np.count_nonzero(live))
    neurons = sum(layer.out_dim for layer in layers)
    return XorSubnetwork(layers, gadget_neurons, neurons - gadget_neurons)


# ---------------------------------------------------------------------------
# Step 3: prefix-trie partition and the selector layer


@dataclass(frozen=True)
class PrefixSubset:
    prefix: str  # string over "0"/"1"; empty allowed for the root
    member_indices: np.ndarray


@dataclass(frozen=True)
class PrefixPartition:
    subsets: list[PrefixSubset]

    @property
    def K(self) -> int:
        return len(self.subsets)

    @property
    def max_subset_size(self) -> int:
        return max(len(s.member_indices) for s in self.subsets)


def prefix_partition(codes) -> PrefixPartition:
    """Trie-derived subsets of size at most ceil(sqrt(n)).

    A trie node becomes a subset exactly when its subtree holds at most
    ceil(sqrt(n)) codes while every proper ancestor holds more; the node's
    root path is the subset's prefix. Distinct codes guarantee the
    recursion bottoms out by full depth.
    """
    codes = as_code_matrix(codes)
    n = codes.shape[0]
    if _duplicate_groups(codes):
        raise ValueError("codes must be pairwise distinct")
    cap = ceil_sqrt(n)
    subsets: list[PrefixSubset] = []

    def visit(indices: np.ndarray, depth: int, prefix: str):
        if len(indices) <= cap:
            subsets.append(PrefixSubset(prefix, indices.copy()))
            return
        bits = codes[indices, depth]
        zeros = indices[bits == 0]
        ones = indices[bits == 1]
        if zeros.size:
            visit(zeros, depth + 1, prefix + "0")
        if ones.size:
            visit(ones, depth + 1, prefix + "1")

    visit(np.arange(n), 0, "")
    return PrefixPartition(subsets)


def build_selector_layer(part: PrefixPartition, d2: int) -> ThresholdLayer:
    """K prefix indicators stacked above d2 copy neurons.

    Indicator i fires iff the input code starts with prefix i: weights
    2b-1 on the prefix positions and bias -popcount(prefix). Copy neuron j
    is sigma(2 z_j - 1). Output layout is [s(z); z].
    """
    K = part.K
    W = np.zeros((K + d2, d2), dtype=np.int64)
    biases = np.full(K + d2, -1, dtype=np.int64)
    for i, sub in enumerate(part.subsets):
        if len(sub.prefix) > d2:
            raise ValueError(f"prefix {sub.prefix!r} longer than code length {d2}")
        bits = np.array([int(bit) for bit in sub.prefix], dtype=np.int64)
        W[i, : bits.size] = 2 * bits - 1
        biases[i] = -bits.sum()
    W[K:] = 2 * np.eye(d2, dtype=np.int64)
    return ThresholdLayer.integer(W, biases)


# ---------------------------------------------------------------------------
# Step 4: expansion, memorization, output


def build_expansion_layer(part: PrefixPartition, d2: int) -> ThresholdLayer:
    """Scatter (s, z) into K chunks of width d2+1.

    Chunk i starts with sigma(s_i - 1) and continues with
    sigma(s_i + z_j - 2); with s one-hot at i the chunk reads (1, z) and
    every other chunk is all zero.
    """
    K = part.K
    out = np.arange(K * (d2 + 1))
    chunk, j = np.divmod(out, d2 + 1)
    reads_z = j > 0
    return ThresholdLayer.integer_from_entries(
        out.size, K + d2,
        np.concatenate([out, out[reads_z]]),
        np.concatenate([chunk, K + j[reads_z] - 1]),
        np.ones(out.size + int(reads_z.sum()), dtype=np.int64),
        np.where(reads_z, -2, -1),
    )


def build_memorization_layer(part: PrefixPartition, codes, labels) -> ThresholdLayer:
    """One neuron per within-subset rank of the label-1 members; neuron i
    recalls the i-th label-1 member of every subset. Label-0 members need
    none: the output is an OR of the bank. Every neuron has bias -1.

    For subset j's i-th label-1 member with code z, chunk j reads
    (1 - popcount(z), 2z - 1), so on an expanded code (1, z') it scores
    -hamming(z, z'): 0 on the member's own code, which fires, and at most -1
    on any other code of the subset. A chunk without entries scores -1.
    """
    codes = as_code_matrix(codes)
    labels = as_bit_labels(labels)
    if labels.shape != (codes.shape[0],):
        raise ValueError("labels must align with codes")
    d2 = codes.shape[1]
    member = np.concatenate([sub.member_indices for sub in part.subsets])
    subset = np.repeat(np.arange(part.K), [len(sub.member_indices) for sub in part.subsets])
    ones = labels[member] == 1
    member, subset = member[ones], subset[ones]
    counts = np.bincount(subset, minlength=part.K)
    rank = np.arange(member.size) - np.repeat(np.cumsum(counts) - counts, counts)
    base = subset * (d2 + 1)
    z = codes[member].astype(np.int64)
    R = max(1, int(counts.max()))
    return ThresholdLayer.integer_from_entries(
        R, part.K * (d2 + 1),
        np.concatenate([rank, np.repeat(rank, d2)]),
        np.concatenate([base, (base[:, None] + 1 + np.arange(d2)).ravel()]),
        np.concatenate([1 - z.sum(axis=1), (2 * z - 1).ravel()]),
        np.full(R, -1),
    )


def build_output_layer(width: int) -> ThresholdLayer:
    """OR over the memorization bank: sigma(2 q_1 + ... + 2 q_width - 1)."""
    if width < 1:
        raise ValueError("width must be positive")
    return ThresholdLayer.integer(np.full((1, width), 2), [-1])


# ---------------------------------------------------------------------------
# End-to-end construction


@dataclass(frozen=True)
class StepRecord:
    step: str
    neurons: int
    weight_entries: int
    biases: int
    max_abs_integer_weight: Optional[int]
    layer_span: tuple[int, int]  # [start, end) into the network's layer list


@dataclass(frozen=True)
class ConstructionReport:
    """Per-step size accounting against the closed-form budget."""

    n: int
    input_dim: int
    config: ConstructionConfig
    d1: int
    d2: int
    d3: int
    K: int
    max_subset_size: int
    xor_gadget_neurons: int
    xor_padding_neurons: int
    retries: dict
    steps: list
    total_neurons: int
    total_weight_entries: int
    total_biases: int
    neuron_bound: int

    @property
    def total_weights(self) -> int:
        """Structural nonzeros plus biases, the connection-count convention."""
        return self.total_weight_entries + self.total_biases

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "n": self.n,
            "input_dim": self.input_dim,
            "mode": cfg.mode.kind,
            "delta": cfg.mode.delta,
            **{f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "mode"},
            "dims": {"d1": self.d1, "d2": self.d2, "d3": self.d3, "K": self.K,
                     "max_subset_size": self.max_subset_size},
            "xor_gadget_neurons": self.xor_gadget_neurons,
            "xor_padding_neurons": self.xor_padding_neurons,
            "retries": dict(self.retries),
            "steps": [asdict(s) for s in self.steps],
            "totals": {
                "neurons": self.total_neurons,
                "weight_entries": self.total_weight_entries,
                "biases": self.total_biases,
                "weights": self.total_weights,
            },
            "neuron_bound": self.neuron_bound,
        }


def construct_memorizer(ds: Dataset, cfg: ConstructionConfig):
    """Build a network with forward(net, x_i) = y_i for every sample.

    Returns (net, report). The recall guarantee is verified internally by a
    full batch forward before returning; a violation raises
    MemorizationCheckError and means a bug, not an input problem.
    """
    verdict = check_separation(ds, cfg.mode, tol=DEFAULT_TOL)
    if not verdict.holds:
        raise DatasetNotSeparatedError(
            f"dataset is not {cfg.mode.kind}-separated at delta={cfg.mode.delta}: "
            f"worst pair {verdict.worst_pair} at {verdict.worst_value:.6g}"
            + ("" if verdict.max_norm is None else f", max norm {verdict.max_norm:.6g}"),
            verdict.worst_pair, verdict.worst_value,
        )

    first = build_first_layer(ds, cfg)
    d1 = first.m_used
    comp = plan_compression(first.codes, cfg)
    d2 = comp.plan.m
    xor = build_xor_subnetwork(comp.plan, d1)
    part = prefix_partition(comp.compressed)
    bank = build_memorization_layer(part, comp.compressed, ds.labels)
    # the network is these steps' layers in this order
    steps = [
        ("first_layer", [first.layer]),
        ("xor_compression", xor.layers),
        ("selector", [build_selector_layer(part, d2)]),
        ("expansion", [build_expansion_layer(part, d2)]),
        ("memorization", [bank]),
        ("output", [build_output_layer(bank.out_dim)]),
    ]
    net = ThresholdNetwork([layer for _, layers in steps for layer in layers], ds.dim)

    preds = forward_batch(net, ds.features)
    if not np.array_equal(preds, ds.labels):
        bad = int(np.flatnonzero(preds != ds.labels)[0])
        raise MemorizationCheckError(
            f"constructed network mislabels sample {bad}: "
            f"got {int(preds[bad])}, expected {int(ds.labels[bad])}"
        )

    sizes = audit(net)
    records, start = [], 0
    for name, layers in steps:
        end = start + len(layers)
        size = NetworkAudit.of(sizes.layers[start:end])
        records.append(StepRecord(name, size.neurons, size.weight_entries, size.bias_count,
                                  size.max_abs_integer_weight, (start, end)))
        start = end
    bound = (d1 + 3 * (d1 - 1) * d2 + xor.padding_neurons
             + (part.K + d2) + part.K * (d2 + 1) + ceil_sqrt(ds.n) + 1)
    report = ConstructionReport(
        n=ds.n,
        input_dim=ds.dim,
        config=cfg,
        d1=d1,
        d2=d2,
        d3=part.K * (d2 + 1),
        K=part.K,
        max_subset_size=part.max_subset_size,
        xor_gadget_neurons=xor.gadget_neurons,
        xor_padding_neurons=xor.padding_neurons,
        retries={"first_layer": first.retries, "compression": comp.retries},
        steps=records,
        total_neurons=sizes.neurons,
        total_weight_entries=sizes.weight_entries,
        total_biases=sizes.bias_count,
        neuron_bound=bound,
    )
    return net, report

"""Threshold-network data model: exact forward evaluation, size audits, JSON I/O.

A network is a stack of affine layers followed by the Heaviside step
sigma(z) = 1 iff z >= 0 (ties activate). Only the first layer may carry
real weights: evaluation refuses a real layer after it, and an integer
first layer given inputs other than 0 and 1. Integer layers hold bounded
integers stored sparsely in an int64 CSR and read bits only, exactly, with
no rounding: bits are packed 64 samples to a uint64 word, rows with at
most two inputs run as truth tables on whole words, and wider rows gather
their weights over the set input bits into one accumulator per row and
sample.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

REAL = "real"
INTEGER = "integer"

#: A real-layer pre-activation closer to zero than this is considered a
#: fragile tie and triggers ThresholdTieWarning during evaluation.
TIE_TOLERANCE = 1e-12

#: Real layers evaluate inputs in column blocks of this size, a shorter
#: block padded to it, so that results never depend on caller batching.
EVAL_CHUNK = 256

#: A stack evaluates this many samples at a time, its integer layers on
#: bits packed 64 to a word, so memory does not grow with the batch. A
#: multiple of EVAL_CHUNK, so real-layer blocks start where they would
#: without it.
PACK_BLOCK = 1024


_INT64_MAX = int(np.iinfo(np.int64).max)


class ThresholdTieWarning(UserWarning):
    """A real layer produced a pre-activation within TIE_TOLERANCE of zero."""


class SerializationError(ValueError):
    """Malformed network document; the message names the offending location."""


class IntCSR:
    """A read-only int64 sparse matrix in canonical CSR form: rows in order,
    columns strictly increasing within a row, no stored zero. Row r's
    columns and values are indices and data at indptr[r]:indptr[r + 1]."""

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, shape, rows, cols, vals):
        """The matrix of (row, col, value) entries in any order, in new
        arrays; duplicates are summed, then zeros dropped. Raises ValueError
        for an index or value _int64_values refuses or an index outside shape."""
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr, self.indices, self.data = _canonical_entries(self.shape, rows, cols, vals)
        for a in (self.indptr, self.indices, self.data):
            a.flags.writeable = False

    @property
    def nnz(self) -> int:
        return self.data.size

    def row_of(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row_of(), self.indices] = self.data
        return out


def _canonical_entries(shape, rows, cols, vals):
    """(indptr, indices, data) of the matrix of (row, col, value) entries in
    any order, in new int64 arrays: sorted by row, then column, duplicates
    summed, zeros dropped. Entries that already keep _entries_obey_rules'
    order take one pass."""
    rows, cols = _int64_values(rows, "row index"), _int64_values(cols, "column index")
    vals = _int64_values(vals, "weight")
    if not rows.ndim == cols.ndim == vals.ndim == 1 or not rows.size == cols.size == vals.size:
        raise ValueError("entry rows, columns and values must be vectors of one length")
    if _entries_obey_rules(rows, cols, vals, shape[0], shape[1], INTEGER):
        cols, vals = cols.copy(), vals.copy()  # never shared with the caller
    else:
        if not (0 <= rows.min() and rows.max() < shape[0] and 0 <= cols.min() and cols.max() < shape[1]):
            raise ValueError(f"entry index outside the {shape[0]} x {shape[1]} matrix")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        repeat = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if repeat.any():  # integer sums do not depend on the duplicates' order
            first = np.flatnonzero(np.r_[True, ~repeat])
            rows, cols, vals = rows[first], cols[first], np.add.reduceat(vals, first)
        if not vals.all():
            keep = vals != 0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return indptr, cols, vals


class ThresholdLayer:
    """One affine map plus Heaviside activation.

    Real layers hold a dense float64 matrix; integer layers hold an IntCSR
    whose stored entries are exactly the connections the layer owns. Both
    are frozen after construction.
    """

    __slots__ = ("weights", "biases", "domain", "_eval_cache")

    def __init__(self, weights, biases, domain: str):
        if domain not in (REAL, INTEGER):
            raise ValueError(f"unknown weight domain {domain!r}")
        if domain == REAL:
            weights, biases = np.asarray(weights), np.asarray(biases)
            # the float64 cast would parse strings, drop imaginary parts and
            # overflow on a Python int past the float range
            for a, what in ((weights, "weights"), (biases, "biases")):
                if a.dtype.kind not in "biuf":
                    raise ValueError(f"real layer {what} dtype {a.dtype} is not bool, integer or float")
            weights, biases = weights.astype(np.float64), biases.astype(np.float64)
            if weights.ndim != 2:
                raise ValueError("real weights must be a 2-D array")
            # a NaN or infinity would be saved as a document load refuses
            if not (np.isfinite(weights).all() and np.isfinite(biases).all()):
                raise ValueError("real layer weights and biases must be finite")
            weights.flags.writeable = False
            biases.flags.writeable = False
        else:
            if not isinstance(weights, IntCSR):  # every IntCSR is canonical
                weights = _as_csr(weights)
            biases = _int64_values(biases, "bias").copy()  # never the caller's array
            biases.flags.writeable = False
        if biases.ndim != 1 or weights.shape[0] != biases.shape[0]:
            raise ValueError(
                f"bias length {biases.shape} does not match weight rows {weights.shape}"
            )
        if domain == INTEGER:
            _check_row_bounds(weights, biases)
        self.weights = weights
        self.biases = biases
        self.domain = domain
        self._eval_cache = None

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def is_integer(self) -> bool:
        return self.domain == INTEGER

    def _packed_plan(self) -> "_PackedPlan":
        """How this integer layer runs on packed bits; derived once and cached."""
        if self._eval_cache is None:
            self._eval_cache = _PackedPlan(self.weights, self.biases)
        return self._eval_cache

    @classmethod
    def real(cls, weights, biases) -> "ThresholdLayer":
        return cls(weights, biases, REAL)

    @classmethod
    def integer(cls, weights, biases) -> "ThresholdLayer":
        return cls(weights, biases, INTEGER)

    @classmethod
    def integer_from_entries(cls, out_dim, in_dim, rows, cols, vals, biases) -> "ThresholdLayer":
        """Integer layer from parallel (row, col, value) entry arrays."""
        return cls(IntCSR((out_dim, in_dim), rows, cols, vals), biases, INTEGER)

    def weight_entries(self) -> int:
        """Structural nonzero count: all entries for dense real layers."""
        if self.domain == REAL:
            return int(self.weights.size)
        return int(self.weights.nnz)

    def max_abs_weight(self) -> int:
        """Largest |weight or bias| of an integer layer."""
        return int(max(np.abs(self.biases).max(initial=0), np.abs(self.weights.data).max(initial=0)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThresholdLayer):
            return NotImplemented
        if self.domain != other.domain or self.weights.shape != other.weights.shape:
            return False
        if not np.array_equal(self.biases, other.biases):
            return False
        if self.domain == REAL:
            return np.array_equal(self.weights, other.weights)
        a, b = self.weights, other.weights
        return (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )


def _int64_values(values, what: str) -> np.ndarray:
    """values as an int64 array, the caller's own if it is one: the one rule
    for what an integer layer takes as an integer. Raises ValueError, before
    any cast, for a value the cast would not keep: a non-number such as a
    string or a complex number, a fraction, a NaN, a float at or past 2^63,
    which the cast turns into -2^63, an unsigned value past 2^63 - 1, which
    it wraps, or a Python int past int64, which numpy holds in an object
    array."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind not in "biufO":
        raise ValueError(f"integer layer {what} dtype {values.dtype} is not bool, integer or float")
    bad = ()
    if kind == "u":
        bad = values[values > np.uint64(_INT64_MAX)]
    elif kind == "O":
        bad = [v for v in values.flat if not _whole_below_2_63(v)]
    elif kind == "f":
        bad = values[~((values == np.round(values)) & (np.abs(values) < 2.0**63))]
    if len(bad):
        raise ValueError(f"integer layer {what} {bad[0]} is not an integer "
                         "of magnitude below 2^63")
    return values.astype(np.int64, copy=False)


def _whole_below_2_63(v) -> bool:
    """Whether an object-array value is a Python or numpy integer or float
    that is whole and below 2^63 in magnitude."""
    if isinstance(v, (np.integer, np.floating)):
        v = v.item()  # Python ints and floats compare exactly, without wrapping
    return isinstance(v, (int, float)) and abs(v) < 2**63 and v == round(v)


def _as_csr(weights) -> IntCSR:
    """A dense 2-D array as an IntCSR; every value is checked, as the
    zeros nonzero skips include a falsy None."""
    W = np.asarray(weights)
    if W.ndim != 2:
        raise ValueError("integer weights must be a 2-D array")
    W = _int64_values(W, "weight")
    rows, cols = np.nonzero(W)
    return IntCSR(W.shape, rows, cols, W[rows, cols])


def _check_row_bounds(W: IntCSR, biases: np.ndarray) -> None:
    """Refuse an integer layer with a row whose sum of |weights| + |bias|
    passes int64: the evaluator's truth tables and int64 accumulators are
    exact only within that bound, and wrap silently past it.

    A float64 sum accepts every row below 2^62 at once; its rounding is far
    smaller than the margin to 2^63. Rows above that are summed again in
    Python ints, which are exact where np.abs(-2**63) wraps.
    """
    approx = np.abs(biases.astype(np.float64))
    approx += np.bincount(W.row_of(), weights=np.abs(W.data.astype(np.float64)),
                          minlength=W.shape[0])
    for r in np.flatnonzero(approx >= 2.0**62).tolist():
        lo, hi = W.indptr[r], W.indptr[r + 1]
        bound = sum(abs(v) for v in W.data[lo:hi].tolist()) + abs(int(biases[r]))
        if bound > _INT64_MAX:
            raise ValueError(
                f"integer layer row {r}: sum of |weights| + |bias| is {bound}, "
                f"past the int64 maximum {_INT64_MAX}"
            )


class ThresholdNetwork:
    """Composed threshold layers mapping R^input_dim to one output bit."""

    def __init__(self, layers: Sequence[ThresholdLayer], input_dim: int):
        layers = list(layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        if layers[0].in_dim != input_dim:
            raise ValueError(
                f"first layer expects {layers[0].in_dim} inputs, network declares {input_dim}"
            )
        for k in range(1, len(layers)):
            if layers[k].in_dim != layers[k - 1].out_dim:
                raise ValueError(
                    f"layer {k} input dim {layers[k].in_dim} != layer {k - 1} "
                    f"output dim {layers[k - 1].out_dim}"
                )
        if layers[-1].out_dim != 1:
            raise ValueError("final layer must have exactly one output neuron")
        self.layers = layers
        self.input_dim = input_dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThresholdNetwork):
            return NotImplemented
        return (
            self.input_dim == other.input_dim
            and len(self.layers) == len(other.layers)
            and all(a == b for a, b in zip(self.layers, other.layers))
        )


_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _word_masks(flags: np.ndarray) -> np.ndarray:
    """One (rows, 1) uint64 column: all ones where a flag is set, else zero."""
    return np.where(flags, _ALL_ONES, np.uint64(0))[:, None]


#: Terms the wide rows' gather takes at a time: blocks this small reuse
#: their memory, where larger ones page in fresh memory every call.
_BLOCK_TERMS = 1 << 15


class _PackedPlan:
    """An integer layer split for evaluation on packed {0,1} inputs.

    A row with at most two nonzero weights computes a Boolean function of
    at most two input bits A and B. Its truth table, read off its weights
    wa, wb and bias c, is kept in algebraic normal form,

        out = c0 ^ (ca & A) ^ (cb & B) ^ (cab & A & B),

    as four word masks per row, so 64 samples cost one word operation each.
    A fan-in-1 row takes B = A with wb = 0; a fan-in-0 row is the constant
    c0. The entries are int64, so a table is exact while |wa| + |wb| + |c|
    fits in int64, as the wide rows' accumulators need too; ThresholdLayer
    refuses any row past that bound.

    Wider rows (selectors, memorization bank, output OR) are kept by input:
    each set input bit adds the weights of the rows that read its input to
    their accumulators for its sample, so the cost follows the set bits, not
    the input width. The weights are gathered straight from the wide rows'
    entries listed by input, _BLOCK_TERMS terms or so at a time.
    """

    def __init__(self, W: IntCSR, biases: np.ndarray):
        fan_in = np.diff(W.indptr)
        pair = fan_in <= 2
        self.pair_rows = np.flatnonzero(pair)
        self.wide_rows = np.flatnonzero(~pair)

        first = W.indptr[:-1][pair]
        has_a, has_b = fan_in[pair] >= 1, fan_in[pair] == 2
        # two trailing zeros keep first + 1 in range for every row
        cols, vals = np.append(W.indices, [0, 0]), np.append(W.data, [0, 0])
        self.a = np.where(has_a, cols[first], 0)
        self.b = np.where(has_b, cols[first + 1], self.a)
        wa = np.where(has_a, vals[first], 0)
        wb = np.where(has_b, vals[first + 1], 0)
        c = biases[pair]
        f00, f10, f01, f11 = c >= 0, wa + c >= 0, wb + c >= 0, wa + wb + c >= 0
        self.c0 = _word_masks(f00)
        self.ca = _word_masks(f00 ^ f10)
        self.cb = _word_masks(f00 ^ f01)
        self.cab = _word_masks(f00 ^ f10 ^ f01 ^ f11)

        if not self.wide_rows.size:
            return
        # the wide rows' entries listed by input, then row, as _apply_wide
        # gathers them; a reader is a row's place among the wide rows
        self.wide_neg_bias = -biases[~pair, None]
        listed = np.repeat(~pair, fan_in)
        inputs = W.indices[listed]
        order = np.argsort(inputs, kind="stable")
        self.readers = np.repeat(np.arange(self.wide_rows.size), fan_in[~pair])[order]
        self.reader_weights = W.data[listed][order]
        fan_out = np.bincount(inputs, minlength=W.shape[1])
        self.read = np.flatnonzero(fan_out)  # the inputs some wide row reads
        self.fan_out = fan_out[self.read]
        self.first_reader = (np.cumsum(fan_out) - fan_out)[self.read]

    def apply(self, P: np.ndarray) -> np.ndarray:
        """(in_dim, words) packed input bits -> (out_dim, words) packed output bits."""
        if not P.shape[0]:  # no inputs: every row is a constant
            P = np.zeros((1, P.shape[1]), dtype=np.uint64)
        A, B = P[self.a], P[self.b]
        AB = A & B
        AB &= self.cab
        A &= self.ca
        B &= self.cb
        A ^= B
        A ^= AB
        A ^= self.c0
        if not self.wide_rows.size:
            return A
        out = np.empty((self.pair_rows.size + self.wide_rows.size, P.shape[1]), dtype=np.uint64)
        out[self.pair_rows] = A
        out[self.wide_rows] = self._apply_wide(P)
        return out

    def _apply_wide(self, P: np.ndarray) -> np.ndarray:
        inputs, samples = _set_bits(P[self.read])
        rows, S = self.wide_rows.size, P.shape[1] * 64
        counts = self.fan_out[inputs]
        start = np.cumsum(counts) - counts  # each set bit's first term
        # blocks of bits that start terms in the same _BLOCK_TERMS
        bounds = np.r_[np.flatnonzero(np.diff(start // _BLOCK_TERMS, prepend=-1)), inputs.size]
        # int64 sums are exact within the row bound ThresholdLayer enforces
        acc = np.zeros(S * rows, dtype=np.int64)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            n = counts[lo:hi]
            # a bit's k-th term reads its input's k-th entry
            at = np.repeat(self.first_reader[inputs[lo:hi]] - (start[lo:hi] - start[lo]), n)
            at += np.arange(at.size)
            cells = self.readers[at]
            cells += np.repeat(samples[lo:hi] * rows, n)
            np.add.at(acc, cells, self.reader_weights[at])
        return _pack(acc.reshape(S, rows).T >= self.wide_neg_bias)


def _set_bits(P: np.ndarray):
    """(row, sample) of every set bit of packed bits P. After the expansion
    layer one chunk of K is live per sample, so P is sparse: the bits are
    read from its nonzero words, and of those from the nonzero bytes only."""
    r, w = np.nonzero(P)
    octets = P[r, w].view(np.uint8)
    nonzero = np.flatnonzero(octets)
    at = np.flatnonzero(np.unpackbits(octets[nonzero], bitorder="little"))
    byte = nonzero[at >> 3]
    word = byte >> 3
    return r[word], (w[word] << 6) | ((byte & 7) << 3) | (at & 7)


def _pack(Z: np.ndarray) -> np.ndarray:
    """(rows, B) bits -> (rows, ceil(B / 64)) uint64, sample k at bit k % 64
    of word k // 64; the padding bits are zero."""
    rows, B = Z.shape
    packed = np.zeros((rows, -(-B // 64) * 8), dtype=np.uint8)
    packed[:, : -(-B // 8)] = np.packbits(Z, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _unpack(P: np.ndarray, B: int) -> np.ndarray:
    """The first B samples of packed bits as a (rows, B) bool array."""
    return np.unpackbits(P.view(np.uint8), axis=1, count=B, bitorder="little").view(bool)


def _apply_real(layer: ThresholdLayer, Z: np.ndarray) -> np.ndarray:
    """A real layer on an (in_dim, B) block of inputs; (out_dim, B) bool.

    The block runs EVAL_CHUNK columns at a time, a shorter one padded with
    zero columns, so every product has one shape: BLAS may round a column
    of a narrow product differently from the same column of a wide one.
    """
    B = Z.shape[1]
    out = np.empty((layer.out_dim, B), dtype=bool)
    tie = False
    for c in range(0, B, EVAL_CHUNK):
        n = min(EVAL_CHUNK, B - c)
        padded = np.zeros((Z.shape[0], EVAL_CHUNK))
        padded[:, :n] = Z[:, c : c + n]
        P = (layer.weights @ padded)[:, :n]
        P += layer.biases[:, None]
        tie = tie or bool(np.any(np.abs(P) <= TIE_TOLERANCE))
        out[:, c : c + n] = P >= 0
    if tie:
        warnings.warn(
            "real-layer pre-activation within tie tolerance of zero; "
            "the resulting bit is numerically fragile",
            ThresholdTieWarning,
            stacklevel=3,
        )
    return out


def evaluate_layers(layers: Sequence[ThresholdLayer], xs) -> np.ndarray:
    """Bits produced by a layer stack on a batch of inputs.

    xs has shape (N, in_dim); the result has shape (N, out_dim) with int8
    entries in {0, 1}. The stack is an optional real first layer, then
    integer layers. PACK_BLOCK samples at a time, the real layer runs on
    fixed EVAL_CHUNK-column blocks, so the output is identical however the
    caller splits the batch; its bits, or the inputs if the first layer is
    integer, are packed 64 samples to a word once, run through every
    integer layer and unpacked once. Raises ValueError unless every input
    is a finite bool, integer or float, as no threshold compares others
    meaningfully; for a real layer after the first; and for an integer
    first layer given an input other than 0 or 1.
    """
    if not layers:
        raise ValueError("no layers to evaluate")
    X = np.asarray(xs)
    if X.ndim != 2 or X.shape[1] != layers[0].in_dim:
        raise ValueError(
            f"batch shape {X.shape} incompatible with layer input dim {layers[0].in_dim}"
        )
    if X.dtype.kind not in "biuf":
        raise ValueError(f"batch dtype {X.dtype} is not bool, integer or float")
    if X.dtype.kind == "f" and not np.isfinite(X).all():
        raise ValueError("batch contains NaN or infinite inputs")
    for k, layer in enumerate(layers[1:], 1):
        if not layer.is_integer:
            raise ValueError(f"layer {k} is real: only the first layer may be real")
    real = None if layers[0].is_integer else layers[0]
    if real is None:
        bad = X[(X != 0) & (X != 1)]
        if bad.size:
            raise ValueError(f"input {bad[0]} is not 0 or 1, as an integer first layer needs")
    plans = [layer._packed_plan() for layer in (layers if real is None else layers[1:])]
    out = np.empty((X.shape[0], layers[-1].out_dim), dtype=np.int8)
    for start in range(0, X.shape[0], PACK_BLOCK):
        Z = X[start : start + PACK_BLOCK].T
        P = _pack(Z.astype(bool, copy=False) if real is None else _apply_real(real, Z))
        for plan in plans:
            P = plan.apply(P)
        out[start : start + Z.shape[1]] = _unpack(P, Z.shape[1]).T
    return out


def forward(net: ThresholdNetwork, x) -> int:
    """Single-input evaluation; returns the output bit."""
    x = np.asarray(x)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input shape {x.shape} != ({net.input_dim},)")
    return int(evaluate_layers(net.layers, x[None, :])[0, 0])


def forward_batch(net: ThresholdNetwork, xs) -> np.ndarray:
    """Elementwise forward over a batch; order-preserving."""
    return evaluate_layers(net.layers, xs)[:, 0]


# ---------------------------------------------------------------------------
# Audits


@dataclass(frozen=True)
class LayerAudit:
    domain: str
    neurons: int
    weight_entries: int
    biases: int
    max_abs_integer_weight: Optional[int]


@dataclass(frozen=True)
class NetworkAudit:
    """Structural size accounting.

    `weights` counts structural nonzero weight entries plus biases, the
    convention under which connection budgets are stated. The integer
    maximum covers weights and biases of integer layers only.
    """

    neurons: int
    weight_entries: int
    bias_count: int
    weights: int
    max_abs_integer_weight: Optional[int]
    layers: tuple[LayerAudit, ...]

    @classmethod
    def of(cls, layers: Sequence[LayerAudit]) -> "NetworkAudit":
        """Totals over a run of consecutive layers."""
        entries = sum(a.weight_entries for a in layers)
        biases = sum(a.biases for a in layers)
        return cls(
            neurons=sum(a.neurons for a in layers),
            weight_entries=entries,
            bias_count=biases,
            weights=entries + biases,
            max_abs_integer_weight=max((a.max_abs_integer_weight for a in layers
                                        if a.max_abs_integer_weight is not None), default=None),
            layers=tuple(layers),
        )


def audit(net: ThresholdNetwork) -> NetworkAudit:
    return NetworkAudit.of([
        LayerAudit(
            domain=layer.domain,
            neurons=layer.out_dim,
            weight_entries=layer.weight_entries(),
            biases=layer.out_dim,
            max_abs_integer_weight=layer.max_abs_weight() if layer.is_integer else None,
        )
        for layer in net.layers
    ])


# ---------------------------------------------------------------------------
# JSON serialization
#
# Document shape:
#   {"input_dim": d,
#    "layers": [{"domain": "real"|"integer", "rows": r, "cols": c,
#                "entries": [[row, col, value], ...], "bias": [...]}]}
#
# Entries are sorted by (row, col); zero-valued entries are omitted.
# Integer values serialize as JSON ints (bit-exact round trip); real values
# serialize as shortest round-trip decimals.
#
# serialize writes one canonical form: compact separators, the keys in the
# order above, and every layer's text laid out from its entry and bias
# arrays. deserialize first tries a strict reader of that form, which frames
# every layer alike and reads its numbers into arrays (see _numbers). Any
# other document, valid or not, goes to the general reader, which parses
# with json and checks each entry in turn; it alone names the first error.

#: One layer's canonical text, and the patterns the canonical reader matches.
_LAYER = b'{"domain":"%s","rows":%d,"cols":%d,"entries":[%s],"bias":[%s]}'
_DOC_HEAD = re.compile(rb'\{"input_dim":([1-9][0-9]{0,18}),"layers":\[')
_LAYER_HEAD = re.compile(rb'\{"domain":"(real|integer)","rows":([1-9][0-9]{0,18}),'
                         rb'"cols":([1-9][0-9]{0,18}),"entries":\[')
_NOT_FRAME = bytes(sorted(set(range(256)) - set(b"[,]")))  # all but an entry list's frame
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")


def _cells(x: np.ndarray) -> np.ndarray:
    """(n,) numbers as an (n, w) uint8 matrix of their json text, with zero
    bytes wherever a shorter value leaves a cell empty. A float's text is
    its repr, as json writes it. An integer's is its decimal digits,
    right-aligned after a '-' column if any value is negative."""
    if x.dtype.kind == "f":
        text = np.array(list(map(repr, x.tolist())), dtype=np.bytes_)
        return text.view(np.uint8).reshape(x.size, text.itemsize)
    neg = x < 0
    mag = x.astype(np.uint64)  # -v wraps to 2^64 - |v|; negating that gives |v|
    np.negative(mag, out=mag, where=neg)
    top = int(mag.max(initial=0))
    if top <= np.iinfo(np.uint32).max:
        mag = mag.astype(np.uint32)  # narrower division, same digits
    sign, digits = int(neg.any()), len(str(top))
    cells = np.zeros((sign + digits, x.size), dtype=np.uint8)
    if sign:
        cells[0, neg] = ord("-")
    for k in range(sign + digits - 1, sign - 1, -1):
        q = mag // 10
        cells[k] = mag - q * 10 + ord("0")
        if k < sign + digits - 1:
            cells[k] *= mag > 0  # a leading zero is no digit
        mag = q
    return cells.T


def _text(fields: Sequence[np.ndarray], open_: bytes = b"", close: bytes = b"") -> bytes:
    """Rows of the parallel vectors `fields` as json writes them: each row
    is open_, its values joined by commas and close, and the rows are joined
    by commas. Every row is laid out in one uint8 matrix at fixed columns,
    and one boolean compaction drops the empty cells."""
    layout = [open_]
    for k, x in enumerate(fields):
        layout += [_cells(x), b"," if k < len(fields) - 1 else close + b","]
    blocks = [np.frombuffer(b, dtype=np.uint8) if isinstance(b, bytes) else b for b in layout]
    widths = [b.shape[-1] for b in blocks]
    out = np.zeros((len(fields[0]), sum(widths)), dtype=np.uint8)
    for block, stop, width in zip(blocks, np.cumsum(widths).tolist(), widths):
        out[:, stop - width : stop] = block
    return out[out != 0].tobytes()[:-1]  # the last row's trailing comma


def _layer_text(layer: ThresholdLayer) -> bytes:
    if layer.is_integer:
        # the constructor leaves the CSR canonical: row-major, columns
        # sorted within each row, no duplicates
        W = layer.weights
        rows, cols, vals = W.row_of(), W.indices, W.data
    else:
        rows, cols = np.nonzero(layer.weights)
        vals = layer.weights[rows, cols]
    return _LAYER % (layer.domain.encode(), layer.out_dim, layer.in_dim,
                     _text((rows, cols, vals), b"[", b"]"), _text((layer.biases,)))


def serialize(net: ThresholdNetwork) -> bytes:
    return b'{"input_dim":%d,"layers":[%s]}' % (net.input_dim, b",".join(map(_layer_text, net.layers)))


def _expect(cond: bool, where: str, what: str):
    if not cond:
        raise SerializationError(f"{where}: {what}")


#: JSON numbers parse to these types; bool counts as an int, as in isinstance
_INT_TYPES = {int, bool}
_NUMBER_TYPES = {int, float, bool}


def _int64_array(values: list) -> Optional[np.ndarray]:
    """A flat list of Python ints as an int64 vector; None if any value is
    not an int in range.

    numpy infers int64 (or bool) exactly when every value is an int that
    fits; an int past int64, a float or a string gives another dtype. An
    empty list gives an empty vector.
    """
    a = np.array(values)
    if a.size and a.dtype.kind not in "bi":
        return None
    return a.astype(np.int64)


def _finite_float_array(values) -> Optional[np.ndarray]:
    """Python numbers as a float64 vector; None if any is not a finite number."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        return None
    try:
        a = np.array(values, dtype=np.float64)
    except OverflowError:  # an int past the float range
        return None
    return a if np.isfinite(a).all() else None


def _fits(domain: str, rows_n: int, cols_n: int, doc_bytes: int) -> bool:
    # a real layer is stored densely: one larger than its document cannot
    # hold its weights, and allocating it would only exhaust memory
    return domain == INTEGER or rows_n * cols_n <= doc_bytes


def _entries_obey_rules(rows, cols, vals, rows_n: int, cols_n: int, domain: str) -> bool:
    """Whether entry arrays sorted by (row, col) keep the rules _entry_problem
    names: rows and columns in range, no (row, col) repeated, no zero in an
    integer layer. Arrays out of (row, col) order break them too."""
    if not rows.size:
        return True
    increasing = (rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))
    return bool(0 <= rows[0] and rows[-1] < rows_n and 0 <= cols.min() and cols.max() < cols_n
                and increasing.all() and (domain == REAL or vals.all()))


def _make_layer(domain: str, rows_n: int, cols_n: int, rows, cols, vals, bias) -> ThresholdLayer:
    """The layer of arrays that keep the per-entry rules; ValueError past a whole-layer rule."""
    if domain == REAL:
        W = np.zeros((rows_n, cols_n))
        W[rows, cols] = vals
        return ThresholdLayer.real(W, bias)
    return ThresholdLayer.integer_from_entries(rows_n, cols_n, rows, cols, vals, bias)


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


def _entry_problem(e, rows_n: int, cols_n: int, domain: str, seen: set) -> Optional[str]:
    """The first rule entry e breaks, or None once its (row, col) is in seen."""
    if not (isinstance(e, list) and len(e) == 3):
        return "must be [row, col, value]"
    r, c, v = e
    if not (isinstance(r, int) and 0 <= r < rows_n):
        return f"row {r!r} out of range"
    if not (isinstance(c, int) and 0 <= c < cols_n):
        return f"col {c!r} out of range"
    if (r, c) in seen:
        return f"duplicate entry at ({r}, {c})"
    seen.add((r, c))
    if domain == REAL:
        if not isinstance(v, (int, float)):
            return f"value must be a number, got {v!r}"
        return None if _finite(v) else f"value {v!r} is not a finite float64"
    if not isinstance(v, int):
        return f"integer layer value must be an int, got {v!r}"
    if v == 0:
        return "structural zero not allowed in integer layer"
    return None if -_INT64_MAX - 1 <= v <= _INT64_MAX else f"value {v} does not fit in int64"


def _entry_arrays(entries: list, rows_n: int, cols_n: int, domain: str, where: str):
    """(rows, cols, values) of a layer's entries in their order; raises
    SerializationError naming the lowest-index entry that breaks a rule."""
    seen = set()
    for ei, e in enumerate(entries):
        problem = _entry_problem(e, rows_n, cols_n, domain, seen)
        if problem is not None:
            raise SerializationError(f"{where}.entries[{ei}]: {problem}")
    # rows and columns are ints below rows_n and cols_n; in a real layer
    # rows_n * cols_n fits the document, so float64 holds them exactly
    table = np.array(entries, dtype=np.int64 if domain == INTEGER else np.float64).reshape(-1, 3)
    return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]


def _load_layer(entry, where: str, doc_bytes: int) -> ThresholdLayer:
    """One parsed layer object as a ThresholdLayer; SerializationError names
    the first rule it breaks."""
    _expect(isinstance(entry, dict), where, "layer must be an object")
    domain = entry.get("domain")
    _expect(domain in (REAL, INTEGER), f"{where}.domain", f"must be 'real' or 'integer', got {domain!r}")
    rows_n, cols_n = entry.get("rows"), entry.get("cols")
    for key, size in (("rows", rows_n), ("cols", cols_n)):
        _expect(isinstance(size, int) and 1 <= size <= _INT64_MAX, f"{where}.{key}",
                "must be a positive integer that fits in int64")
    _expect(_fits(domain, rows_n, cols_n, doc_bytes), where,
            f"a real layer of {rows_n} x {cols_n} weights does not fit "
            f"in a {doc_bytes}-byte document")
    bias = entry.get("bias")
    _expect(isinstance(bias, list) and len(bias) == rows_n, f"{where}.bias", f"must be a list of length {rows_n}")
    entries = entry.get("entries")
    _expect(isinstance(entries, list), f"{where}.entries", "must be a list")
    rows, cols, vals = _entry_arrays(entries, rows_n, cols_n, domain, where)
    if domain == REAL:
        _expect(set(map(type, bias)) <= _NUMBER_TYPES, f"{where}.bias", "must be numbers")
        b = _finite_float_array(bias)
        _expect(b is not None, f"{where}.bias", "must be finite float64 numbers")
    else:
        _expect(set(map(type, bias)) <= _INT_TYPES, f"{where}.bias", "must be integers")
        b = _int64_array(bias)
        _expect(b is not None, f"{where}.bias", "integers must fit in int64")
    try:
        return _make_layer(domain, rows_n, cols_n, rows, cols, vals, b)
    except ValueError as exc:
        raise SerializationError(f"{where}: {exc}") from exc


def _read_general(data: bytes) -> ThresholdNetwork:
    """Any JSON document of the network shape; raises SerializationError
    naming the first rule it breaks."""
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SerializationError(
            f"invalid {exc.encoding} text at byte {exc.start}: {exc.reason}") from exc
    except RecursionError:
        raise SerializationError("invalid JSON: nested too deeply") from None
    _expect(isinstance(doc, dict), "$", "document must be an object")
    _expect(isinstance(doc.get("input_dim"), int), "$.input_dim", "missing or non-integer")
    raw_layers = doc.get("layers")
    _expect(isinstance(raw_layers, list) and raw_layers, "$.layers", "missing or empty list")
    layers = [_load_layer(entry, f"$.layers[{li}]", len(data)) for li, entry in enumerate(raw_layers)]
    try:
        return ThresholdNetwork(layers, input_dim=doc["input_dim"])
    except ValueError as exc:
        raise SerializationError(f"$.layers: {exc}") from exc


def _numbers(domain: str, entries: bytes, bias: bytes):
    """(rows, cols, values, bias) arrays of a layer's entry and bias text, or None.

    Integer text parses to int64 with no Python object per entry. numpy
    also reads forms json does not write and saturates past int64, so the
    numbers count only if the writer gives the text back: no leading zero,
    '+', '-0' or space, every entry of length 3, nothing past int64. Real
    text parses as one flat json list once its brackets are blanked, so its
    brackets and commas must be exactly those of 3-entries; a blank, unlike
    a deleted bracket, joins no two tokens. Its floats are not written back,
    as their reprs cost more than the parse.
    """
    if domain == INTEGER:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                flat = np.fromstring(entries.translate(None, b"[]"), dtype=np.int64, sep=",")
                b = np.fromstring(bias, dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning):  # numpy cannot read them all
            return None
        if flat.size % 3:
            return None
        rows, cols, vals = flat.reshape(-1, 3).T
        same = _text((rows, cols, vals), b"[", b"]") == entries and _text((b,)) == bias
        return (rows, cols, vals, b) if same else None
    n = entries.count(b"[")
    if entries.translate(None, _NOT_FRAME) != b",".join([b"[,,]"] * n):
        return None
    try:
        flat = json.loads("[%s]" % entries.translate(_BLANK_BRACKETS).decode())
        b = json.loads("[%s]" % bias.decode())
    except (ValueError, RecursionError):  # not json, not utf-8, or nested too deeply
        return None
    arrays = (_int64_array(flat[0::3]), _int64_array(flat[1::3]),
              _finite_float_array(flat[2::3]), _finite_float_array(b))
    return None if len(flat) != 3 * n or any(a is None for a in arrays) else arrays


def _read_layer(data: bytes, pos: int):
    """(layer, end) for the canonical layer at data[pos:end], or None."""
    head = _LAYER_HEAD.match(data, pos)
    if head is None:
        return None
    domain, rows_n, cols_n = head[1].decode(), int(head[2]), int(head[3])
    e0 = head.end()
    e1 = data.find(b'],"bias":[', e0)
    b0 = e1 + len(b'],"bias":[')
    b1 = data.find(b"]}", b0)
    if e1 < 0 or b1 < 0 or max(rows_n, cols_n) > _INT64_MAX or not _fits(domain, rows_n, cols_n, len(data)):
        return None
    numbers = _numbers(domain, data[e0:e1], data[b0:b1])
    # the bias length is checked before anything of the declared size exists;
    # serialize writes entries sorted by (row, col), so unsorted ones decline
    if (numbers is None or numbers[3].size != rows_n
            or not _entries_obey_rules(*numbers[:3], rows_n, cols_n, domain)):
        return None
    try:
        return _make_layer(domain, rows_n, cols_n, *numbers), b1 + 2
    except ValueError:
        return None


def _read_canonical(data: bytes) -> Optional[ThresholdNetwork]:
    """The network in a document in the form serialize writes, or None.

    Accepts only what the general reader accepts, and then the same network;
    real-layer numbers may take any form json reads.
    """
    head = _DOC_HEAD.match(data) if isinstance(data, bytes) else None
    if head is None:
        return None
    pos, layers, more = head.end(), [], True
    while more:
        found = _read_layer(data, pos)
        if found is None:
            return None
        layers.append(found[0])
        pos, more = found[1] + 1, data.startswith(b",", found[1])
    if data[pos - 1:] != b"]}":
        return None
    try:
        return ThresholdNetwork(layers, input_dim=int(head[1]))
    except ValueError:
        return None


def deserialize(data: bytes) -> ThresholdNetwork:
    """The network in a JSON document; SerializationError names the first
    rule a bad document breaks."""
    net = _read_canonical(data)
    return net if net is not None else _read_general(data)


def save_network(net: ThresholdNetwork, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(net))


def load_network(path) -> ThresholdNetwork:
    with open(path, "rb") as fh:
        return deserialize(fh.read())

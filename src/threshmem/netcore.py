"""Threshold-network data model: exact forward evaluation, size audits, JSON I/O.

A network is a stack of affine layers followed by the Heaviside step
sigma(z) = 1 iff z >= 0 (ties activate). The first layer may carry real
weights; all other layers built by this package carry bounded integers
stored sparsely. Their evaluation on {0,1} inputs is exact, with no
rounding: bits are packed 64 samples to a uint64 word, rows with at most
two inputs run as truth tables on whole words, and wider rows as exact
integer sparse products.
"""

from __future__ import annotations

import gc
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

REAL = "real"
INTEGER = "integer"

#: A real-layer pre-activation closer to zero than this is considered a
#: fragile tie and triggers ThresholdTieWarning during evaluation.
TIE_TOLERANCE = 1e-12

#: Real layers evaluate inputs in column blocks of this size; the block
#: size is fixed so that results never depend on caller batching.
EVAL_CHUNK = 256

#: Integer layers evaluate this many samples at a time, packed 64 to a
#: word, so their memory does not grow with the batch. A multiple of
#: EVAL_CHUNK, so real-layer blocks start where they would without it.
PACK_BLOCK = 1024


_INT64_MAX = int(np.iinfo(np.int64).max)


class ThresholdTieWarning(UserWarning):
    """A real layer produced a pre-activation within TIE_TOLERANCE of zero."""


class SerializationError(ValueError):
    """Malformed network document; the message names the offending location."""


class ThresholdLayer:
    """One affine map plus Heaviside activation.

    Real layers hold a dense float64 matrix; integer layers hold an int64
    CSR matrix whose structural nonzeros are exactly the connections the
    layer owns. Both are frozen after construction.
    """

    __slots__ = ("weights", "biases", "domain", "_eval_cache")

    def __init__(self, weights, biases, domain: str):
        if domain not in (REAL, INTEGER):
            raise ValueError(f"unknown weight domain {domain!r}")
        if domain == REAL:
            weights = np.array(weights, dtype=np.float64)
            biases = np.array(biases, dtype=np.float64)
            if weights.ndim != 2:
                raise ValueError("real weights must be a 2-D array")
            weights.flags.writeable = False
            biases.flags.writeable = False
        else:
            if not sparse.issparse(weights):
                weights = sparse.csr_array(np.asarray(weights))
            weights = sparse.csr_array(weights)
            if not np.issubdtype(weights.dtype, np.integer):
                data = weights.data
                if not np.all(data == np.round(data)):
                    raise ValueError("integer layer contains non-integer weights")
            weights = weights.astype(np.int64)
            weights.eliminate_zeros()
            weights.sum_duplicates()
            biases = np.asarray(biases)
            if not np.all(biases == np.round(biases)):
                raise ValueError("integer layer contains non-integer biases")
            biases = biases.astype(np.int64)
            biases.flags.writeable = False
            weights.data.flags.writeable = False
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
        mat = sparse.coo_array(
            (np.asarray(vals, dtype=np.int64), (np.asarray(rows), np.asarray(cols))),
            shape=(out_dim, in_dim),
        ).tocsr()
        return cls(mat, biases, INTEGER)

    def weight_entries(self) -> int:
        """Structural nonzero count: all entries for dense real layers."""
        if self.domain == REAL:
            return int(self.weights.size)
        return int(self.weights.nnz)

    def max_abs_weight(self):
        """Largest |weight or bias|; int for integer layers, float for real."""
        if self.is_integer:
            m = int(np.abs(self.biases).max()) if self.biases.size else 0
            if self.weights.nnz:
                m = max(m, int(np.abs(self.weights.data).max()))
            return m
        m = float(np.abs(self.biases).max()) if self.biases.size else 0.0
        if self.weights.size:
            m = max(m, float(np.abs(self.weights).max()))
        return m

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


def _check_row_bounds(W, biases: np.ndarray) -> None:
    """Refuse an integer layer with a row whose sum of |weights| + |bias|
    passes int64: the evaluator's truth tables and int64 products are
    exact only within that bound, and wrap silently past it.

    A float64 sum accepts every row below 2^62 at once; its rounding is far
    smaller than the margin to 2^63. Rows above that are summed again in
    Python ints, which are exact where np.abs(-2**63) wraps.
    """
    row_of = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    approx = np.abs(biases.astype(np.float64))
    approx += np.bincount(row_of, weights=np.abs(W.data.astype(np.float64)),
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


class _PackedPlan:
    """An integer layer split for evaluation on packed {0,1} inputs.

    A row with at most two nonzero weights computes a Boolean function of
    at most two input bits A and B. Its truth table, read off its weights
    wa, wb and bias c, is kept in algebraic normal form,

        out = c0 ^ (ca & A) ^ (cb & B) ^ (cab & A & B),

    as four word masks per row, so 64 samples cost one word operation each.
    A fan-in-1 row takes B = A with wb = 0; a fan-in-0 row is the constant
    c0. The entries are int64, so a table is exact while |wa| + |wb| + |c|
    fits in int64, as the matmul accumulator needs too; ThresholdLayer
    refuses any row past that bound.

    Wider rows (selectors, memorization bank, output OR) multiply their
    unpacked input. On {0,1} inputs a row's pre-activation is bounded by
    the sum of its absolute weights, so int32 is exact whenever that bound
    plus the bias stays below 2^31; otherwise int64 is used.
    """

    def __init__(self, W, biases: np.ndarray):
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

        wide = W[self.wide_rows]
        neg_bias = -biases[self.wide_rows]
        row_bound = np.abs(wide).sum(axis=1) + np.abs(neg_bias)
        if row_bound.size == 0 or row_bound.max() < np.iinfo(np.int32).max:
            wide, neg_bias = wide.astype(np.int32), neg_bias.astype(np.int32)
        self.wide = wide
        self.wide_neg_bias = neg_bias[:, None]

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
        # after the expansion layer one chunk of K is live per sample, so the
        # input is sparse: its set bits are read from the nonzero words only
        # and enter the product as a sparse matrix
        r, w = np.nonzero(P)
        at = np.flatnonzero(np.unpackbits(P[r, w].view(np.uint8), bitorder="little"))
        rows = r[at >> 6]
        cols = (w[at >> 6] << 6) | (at & 63)
        indptr = np.zeros(P.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=P.shape[0]), out=indptr[1:])
        X = sparse.csr_array((np.ones(rows.size, dtype=self.wide.dtype), cols, indptr),
                             shape=(P.shape[0], P.shape[1] * 64))
        return _pack((self.wide @ X).toarray() >= self.wide_neg_bias)


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


def _apply_layer(layer: ThresholdLayer, Z: np.ndarray) -> np.ndarray:
    """One layer on an (in_dim, B) block of unpacked values; (out_dim, B) bool.

    Real layers run here, and an integer layer whose input is not all bits.
    """
    if layer.domain == REAL:
        P = layer.weights @ Z.astype(np.float64, copy=False)
        P += layer.biases[:, None]
        if np.any(np.abs(P) <= TIE_TOLERANCE):
            warnings.warn(
                "real-layer pre-activation within tie tolerance of zero; "
                "the resulting bit is numerically fragile",
                ThresholdTieWarning,
                stacklevel=4,
            )
        return P >= 0
    return layer.weights @ Z.astype(np.int64, copy=False) >= -layer.biases[:, None]


def _apply_chunked(layer: ThresholdLayer, Z: np.ndarray) -> np.ndarray:
    """_apply_layer on each EVAL_CHUNK columns of Z in turn."""
    out = np.empty((layer.out_dim, Z.shape[1]), dtype=bool)
    for c in range(0, Z.shape[1], EVAL_CHUNK):
        out[:, c : c + EVAL_CHUNK] = _apply_layer(
            layer, np.ascontiguousarray(Z[:, c : c + EVAL_CHUNK]))
    return out


def evaluate_layers(layers: Sequence[ThresholdLayer], xs) -> np.ndarray:
    """Bits produced by a layer stack on a batch of inputs.

    xs has shape (N, in_dim); the result has shape (N, out_dim) with int8
    entries in {0, 1}. Real layers see fixed EVAL_CHUNK-column blocks, so
    the output is identical however the caller splits the batch. Integer
    layers on {0,1} inputs run on bits packed 64 samples to a word,
    PACK_BLOCK samples at a time. Raises ValueError on NaN or infinite
    inputs, which no threshold compares meaningfully.
    """
    X = np.asarray(xs)
    if X.ndim != 2 or X.shape[1] != layers[0].in_dim:
        raise ValueError(
            f"batch shape {X.shape} incompatible with layer input dim {layers[0].in_dim}"
        )
    if X.dtype.kind in "fc" and not np.isfinite(X).all():
        raise ValueError("batch contains NaN or infinite inputs")
    input_bits = layers[0].is_integer and bool(((X == 0) | (X == 1)).all())
    out = np.empty((X.shape[0], layers[-1].out_dim), dtype=np.int8)
    for start in range(0, X.shape[0], PACK_BLOCK):
        Z = X[start : start + PACK_BLOCK].T
        B = Z.shape[1]
        P = None  # Z's bits, packed, once an integer layer has run on them
        bits = input_bits
        for layer in layers:
            if layer.is_integer and bits:
                if P is None:
                    P = _pack(Z.astype(bool, copy=False))
                P = layer._packed_plan().apply(P)
            else:
                if P is not None:
                    Z, P = _unpack(P, B), None
                Z = _apply_chunked(layer, Z)
            bits = True
        out[start : start + B] = (Z if P is None else _unpack(P, B)).T
    return out


def forward(net: ThresholdNetwork, x) -> int:
    """Single-input evaluation; returns the output bit."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input shape {x.shape} != ({net.input_dim},)")
    return int(evaluate_layers(net.layers, x[None, :])[0, 0])


def forward_batch(net: ThresholdNetwork, xs) -> np.ndarray:
    """Elementwise forward over a batch; order-preserving."""
    return evaluate_layers(net.layers, np.asarray(xs, dtype=np.float64))[:, 0]


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


def audit(net: ThresholdNetwork) -> NetworkAudit:
    per_layer = []
    for layer in net.layers:
        max_int = None
        if layer.is_integer:
            max_int = int(layer.max_abs_weight())
        per_layer.append(
            LayerAudit(
                domain=layer.domain,
                neurons=layer.out_dim,
                weight_entries=layer.weight_entries(),
                biases=layer.out_dim,
                max_abs_integer_weight=max_int,
            )
        )
    neurons = sum(a.neurons for a in per_layer)
    entries = sum(a.weight_entries for a in per_layer)
    biases = sum(a.biases for a in per_layer)
    int_maxes = [a.max_abs_integer_weight for a in per_layer if a.max_abs_integer_weight is not None]
    return NetworkAudit(
        neurons=neurons,
        weight_entries=entries,
        bias_count=biases,
        weights=entries + biases,
        max_abs_integer_weight=max(int_maxes) if int_maxes else None,
        layers=tuple(per_layer),
    )


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


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection for the duration of the block.

    A network document holds hundreds of thousands of small entry lists,
    none of them in a reference cycle. Collections triggered while they
    are allocated free nothing, yet rescan the whole growing document; on
    the largest networks that took about a third of serialize and of
    deserialize.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def serialize(net: ThresholdNetwork) -> bytes:
    doc = {"input_dim": net.input_dim, "layers": []}
    for layer in net.layers:
        if layer.domain == REAL:
            rows, cols = np.nonzero(layer.weights)
            vals = layer.weights[rows, cols]
            entries = list(map(list, zip(rows.tolist(), cols.tolist(), vals.tolist())))
        else:
            # the constructor leaves the CSR canonical: row-major, columns
            # sorted within each row, no duplicates
            W = layer.weights
            rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
            entries = np.column_stack((rows, W.indices, W.data)).tolist()
        doc["layers"].append(
            {
                "domain": layer.domain,
                "rows": int(layer.out_dim),
                "cols": int(layer.in_dim),
                "entries": entries,
                "bias": layer.biases.tolist(),
            }
        )
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _expect(cond: bool, where: str, what: str):
    if not cond:
        raise SerializationError(f"{where}: {what}")


#: JSON numbers parse to these types; bool counts as an int, as in isinstance
_INT_TYPES = {int, bool}
_NUMBER_TYPES = {int, float, bool}


def _int64_array(values) -> Optional[np.ndarray]:
    """Python ints as an int64 vector; None if any value is not an int in range.

    numpy infers int64 (or bool) exactly when every value is an int that
    fits; an int past int64, a float, a string or a nested list gives
    another dtype or shape.
    """
    try:
        a = np.array(values)
    except ValueError:  # nested lists of unequal length
        return None
    if a.ndim != 1 or a.dtype.kind not in "bi":
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


def _is_finite_number(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _entry_arrays(entries: list, rows_n: int, cols_n: int, domain: str):
    """(rows, cols, values) of a layer's entries, or None if any entry is bad.

    Applies every rule of _raise_first_bad_entry to whole arrays at once.
    """
    if not entries:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, (empty if domain == INTEGER else empty.astype(np.float64))
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}):
        return None
    flat = list(chain.from_iterable(entries))
    rows, cols = _int64_array(flat[0::3]), _int64_array(flat[1::3])
    if rows is None or cols is None:
        return None
    if rows.min() < 0 or rows.max() >= rows_n or cols.min() < 0 or cols.max() >= cols_n:
        return None
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    if ((r[1:] == r[:-1]) & (c[1:] == c[:-1])).any():
        return None
    if domain == INTEGER:
        vals = _int64_array(flat[2::3])
        if vals is None or not vals.all():
            return None
    else:
        vals = _finite_float_array(flat[2::3])
        if vals is None:
            return None
    return rows, cols, vals


def _raise_first_bad_entry(entries: list, rows_n: int, cols_n: int, domain: str, where: str):
    """Raise SerializationError for the lowest-index entry that breaks a rule.

    Called only after _entry_arrays has rejected the layer, to name the
    entry and the rule as an entry-by-entry reading would.
    """
    seen = set()
    for ei, e in enumerate(entries):
        ew = f"{where}.entries[{ei}]"
        _expect(isinstance(e, list) and len(e) == 3, ew, "must be [row, col, value]")
        r, c, v = e
        _expect(isinstance(r, int) and 0 <= r < rows_n, ew, f"row {r!r} out of range")
        _expect(isinstance(c, int) and 0 <= c < cols_n, ew, f"col {c!r} out of range")
        _expect((r, c) not in seen, ew, f"duplicate entry at ({r}, {c})")
        seen.add((r, c))
        if domain == INTEGER:
            _expect(isinstance(v, int), ew, f"integer layer value must be an int, got {v!r}")
            _expect(v != 0, ew, "structural zero not allowed in integer layer")
            _expect(-_INT64_MAX - 1 <= v <= _INT64_MAX, ew, f"value {v} does not fit in int64")
        else:
            _expect(isinstance(v, (int, float)), ew, f"value must be a number, got {v!r}")
            _expect(_is_finite_number(v), ew, f"value {v!r} is not a finite float64")
    raise RuntimeError(f"{where}.entries: rejected as a whole, but no entry breaks a rule")


@_gc_paused()
def deserialize(data: bytes) -> ThresholdNetwork:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _expect(isinstance(doc, dict), "$", "document must be an object")
    _expect(isinstance(doc.get("input_dim"), int), "$.input_dim", "missing or non-integer")
    raw_layers = doc.get("layers")
    _expect(isinstance(raw_layers, list) and raw_layers, "$.layers", "missing or empty list")
    layers = []
    for li, entry in enumerate(raw_layers):
        where = f"$.layers[{li}]"
        _expect(isinstance(entry, dict), where, "layer must be an object")
        domain = entry.get("domain")
        _expect(domain in (REAL, INTEGER), f"{where}.domain", f"must be 'real' or 'integer', got {domain!r}")
        rows_n = entry.get("rows")
        cols_n = entry.get("cols")
        for key, size in (("rows", rows_n), ("cols", cols_n)):
            _expect(isinstance(size, int) and 1 <= size <= _INT64_MAX, f"{where}.{key}",
                    "must be a positive integer that fits in int64")
        # a real layer is stored densely; a document that declares one larger
        # than itself cannot hold its weights, and would only exhaust memory
        _expect(domain == INTEGER or rows_n * cols_n <= len(data), where,
                f"a real layer of {rows_n} x {cols_n} weights does not fit "
                f"in a {len(data)}-byte document")
        bias = entry.get("bias")
        _expect(isinstance(bias, list) and len(bias) == rows_n, f"{where}.bias", f"must be a list of length {rows_n}")
        entries = entry.get("entries")
        _expect(isinstance(entries, list), f"{where}.entries", "must be a list")
        arrays = _entry_arrays(entries, rows_n, cols_n, domain)
        if arrays is None:
            _raise_first_bad_entry(entries, rows_n, cols_n, domain, where)
        rows, cols, vals = arrays
        if domain == REAL:
            _expect(set(map(type, bias)) <= _NUMBER_TYPES, f"{where}.bias", "must be numbers")
            b = _finite_float_array(bias)
            _expect(b is not None, f"{where}.bias", "must be finite float64 numbers")
            W = np.zeros((rows_n, cols_n))
            W[rows, cols] = vals
            layers.append(ThresholdLayer.real(W, b))
        else:
            _expect(set(map(type, bias)) <= _INT_TYPES, f"{where}.bias", "must be integers")
            b = _int64_array(bias)
            _expect(b is not None, f"{where}.bias", "integers must fit in int64")
            try:
                layers.append(ThresholdLayer.integer_from_entries(rows_n, cols_n, rows, cols, vals, b))
            except ValueError as exc:
                raise SerializationError(f"{where}: {exc}") from exc
    try:
        return ThresholdNetwork(layers, input_dim=doc["input_dim"])
    except ValueError as exc:
        raise SerializationError(f"$.layers: {exc}") from exc


def save_network(net: ThresholdNetwork, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(net))


def load_network(path) -> ThresholdNetwork:
    with open(path, "rb") as fh:
        return deserialize(fh.read())

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
import re
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
            # a NaN or infinity would be saved as a document load refuses
            if not (np.isfinite(weights).all() and np.isfinite(biases).all()):
                raise ValueError("real layer weights and biases must be finite")
            weights.flags.writeable = False
            biases.flags.writeable = False
        else:
            if not sparse.issparse(weights):
                weights = sparse.csr_array(np.asarray(weights))
            weights = sparse.csr_array(weights)
            _check_int64_values(weights.data, "weight")
            weights = weights.astype(np.int64)
            weights.eliminate_zeros()
            weights.sum_duplicates()
            biases = np.asarray(biases)
            _check_int64_values(biases, "bias")
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


def _check_int64_values(values: np.ndarray, what: str) -> None:
    """Refuse a value the int64 cast would not keep: a fraction, a NaN, or
    a float at or past 2^63, which the cast turns into -2^63."""
    if np.issubdtype(values.dtype, np.integer):
        return
    bad = ~((values == np.round(values)) & (np.abs(values) < 2.0**63))
    if bad.any():
        raise ValueError(f"integer layer {what} {values[bad][0]} is not an integer "
                         "of magnitude below 2^63")


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
    Both compute in float64, which is exact for an integer layer while every
    term stays below 2^53.
    """
    P = layer.weights @ Z.astype(np.float64, copy=False)
    P += layer.biases[:, None]
    if layer.domain == REAL and np.any(np.abs(P) <= TIE_TOLERANCE):
        warnings.warn(
            "real-layer pre-activation within tie tolerance of zero; "
            "the resulting bit is numerically fragile",
            ThresholdTieWarning,
            stacklevel=4,
        )
    return P >= 0


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
            max_abs_integer_weight=int(layer.max_abs_weight()) if layer.is_integer else None,
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
# order above, each integer layer's text formatted straight from its CSR
# arrays and each real layer's through json. deserialize first tries a
# strict reader of that form, which parses integer layers into int64
# arrays with no Python object per entry and accepts one only if the
# writer gives back its bytes exactly. Any other document, valid or not,
# goes to the general reader, which parses with json and checks every
# rule; it alone names the first error.

#: The canonical text around one integer layer's entries and biases, and
#: the patterns the canonical reader matches it and the document with.
_INTEGER_LAYER = b'{"domain":"integer","rows":%d,"cols":%d,"entries":[%s],"bias":[%s]}'
_DOC_HEAD = re.compile(rb'\{"input_dim":([1-9][0-9]{0,18}),"layers":\[')
_INTEGER_HEAD = re.compile(
    rb'\{"domain":"integer","rows":([1-9][0-9]{0,18}),"cols":([1-9][0-9]{0,18}),"entries":\[')
_REAL_HEAD = b'{"domain":"real",'


def _decimal_cells(x: np.ndarray) -> np.ndarray:
    """(n,) integers as an (n, w) uint8 matrix: each value's decimal text
    right-aligned, after a '-' column if any value is negative, and zero
    bytes wherever a shorter value leaves a cell empty."""
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


def _int_text(fields: Sequence[np.ndarray], open_: bytes = b"", close: bytes = b"") -> bytes:
    """Rows of the parallel integer vectors `fields` as json writes them,
    with no Python object per value: each row is open_, its values joined
    by commas and close, and the rows are joined by commas.

    Every row is laid out in one uint8 matrix at fixed columns, and one
    boolean compaction drops the empty cells.
    """
    layout = [open_]
    for k, x in enumerate(fields):
        layout += [_decimal_cells(x), b"," if k < len(fields) - 1 else close + b","]
    blocks = [np.frombuffer(b, dtype=np.uint8) if isinstance(b, bytes) else b for b in layout]
    widths = [b.shape[-1] for b in blocks]
    out = np.zeros((len(fields[0]), sum(widths)), dtype=np.uint8)
    for block, stop, width in zip(blocks, np.cumsum(widths).tolist(), widths):
        out[:, stop - width : stop] = block
    return out[out != 0].tobytes()[:-1]  # the last row's trailing comma


def _integer_layer_text(layer: ThresholdLayer) -> bytes:
    # the constructor leaves the CSR canonical: row-major, columns sorted
    # within each row, no duplicates
    W = layer.weights
    rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    return _INTEGER_LAYER % (W.shape[0], W.shape[1], _int_text((rows, W.indices, W.data), b"[", b"]"),
                             _int_text((layer.biases,)))


def _real_layer_text(layer: ThresholdLayer) -> bytes:
    rows, cols = np.nonzero(layer.weights)
    vals = layer.weights[rows, cols]
    doc = {
        "domain": REAL,
        "rows": int(layer.out_dim),
        "cols": int(layer.in_dim),
        "entries": list(map(list, zip(rows.tolist(), cols.tolist(), vals.tolist()))),
        "bias": layer.biases.tolist(),
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def serialize(net: ThresholdNetwork) -> bytes:
    layers = [_integer_layer_text(layer) if layer.is_integer else _real_layer_text(layer)
              for layer in net.layers]
    return b'{"input_dim":%s,"layers":[%s]}' % (json.dumps(net.input_dim).encode("utf-8"),
                                                  b",".join(layers))


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


def _load_layer(entry, where: str, doc_bytes: int) -> ThresholdLayer:
    """One parsed layer object as a ThresholdLayer; SerializationError names
    the first rule it breaks."""
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
    _expect(domain == INTEGER or rows_n * cols_n <= doc_bytes, where,
            f"a real layer of {rows_n} x {cols_n} weights does not fit "
            f"in a {doc_bytes}-byte document")
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
        return ThresholdLayer.real(W, b)
    _expect(set(map(type, bias)) <= _INT_TYPES, f"{where}.bias", "must be integers")
    b = _int64_array(bias)
    _expect(b is not None, f"{where}.bias", "integers must fit in int64")
    try:
        return ThresholdLayer.integer_from_entries(rows_n, cols_n, rows, cols, vals, b)
    except ValueError as exc:
        raise SerializationError(f"{where}: {exc}") from exc


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection for the duration of the block.

    json.loads of a network document allocates hundreds of thousands of
    small entry lists, none of them in a reference cycle. Collections
    triggered while they are allocated free nothing, yet rescan the whole
    growing document; they took about a third of the general reader's
    json.loads on the benchmark's networks.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_general(data: bytes) -> ThresholdNetwork:
    """Any JSON document of the network shape; raises SerializationError
    naming the first rule it breaks."""
    try:
        with _gc_paused():
            doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise SerializationError(
            f"invalid {exc.encoding} text at byte {exc.start}: {exc.reason}") from exc
    _expect(isinstance(doc, dict), "$", "document must be an object")
    _expect(isinstance(doc.get("input_dim"), int), "$.input_dim", "missing or non-integer")
    raw_layers = doc.get("layers")
    _expect(isinstance(raw_layers, list) and raw_layers, "$.layers", "missing or empty list")
    layers = [_load_layer(entry, f"$.layers[{li}]", len(data)) for li, entry in enumerate(raw_layers)]
    try:
        return ThresholdNetwork(layers, input_dim=doc["input_dim"])
    except ValueError as exc:
        raise SerializationError(f"$.layers: {exc}") from exc


def _parse_ints(text: bytes) -> Optional[np.ndarray]:
    """Comma-separated integers as int64, or None where numpy cannot read
    them all. numpy also reads forms json does not write ('01', '+1', ' 1')
    and saturates past int64, so callers re-encode what it returns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.fromstring(text, dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None


def _read_integer_layer(data: bytes, pos: int):
    """(layer, end) for the canonical integer layer at data[pos:end], or None."""
    head = _INTEGER_HEAD.match(data, pos)
    if head is None:
        return None
    rows_n, cols_n = int(head[1]), int(head[2])
    e0 = head.end()
    e1 = data.find(b'],"bias":[', e0)
    if e1 < 0 or max(rows_n, cols_n) > _INT64_MAX:
        return None
    b0 = e1 + len(b'],"bias":[')
    b1 = data.find(b"]}", b0)
    if b1 < 0:
        return None
    entries, bias = _parse_ints(data[e0:e1].translate(None, b"[]")), _parse_ints(data[b0:b1])
    if entries is None or bias is None or entries.size % 3 or bias.size != rows_n:
        return None
    rows, cols, vals = entries.reshape(-1, 3).T
    # re-encoding gives back the text only if it is canonical: no leading
    # zero, '+', '-0' or space, every entry of length 3, nothing past int64
    view = memoryview(data)
    if (_int_text((rows, cols, vals), b"[", b"]") != view[e0:e1]
            or _int_text((bias,)) != view[b0:b1]):
        return None
    if rows.size and (rows.min() < 0 or rows.max() >= rows_n or cols.min() < 0
                      or cols.max() >= cols_n or not vals.all()):
        return None
    # (row, col) strictly increasing: sorted, and no entry repeated
    if not ((rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))).all():
        return None
    try:
        layer = ThresholdLayer.integer_from_entries(rows_n, cols_n, rows, cols, vals, bias)
    except ValueError:
        return None
    return layer, b1 + 2


def _read_canonical(data: bytes) -> Optional[ThresholdNetwork]:
    """The network in a document exactly as serialize writes it, or None.

    Accepts only what the general reader accepts, and then the same
    network; a real layer goes through the general reader's own checks.
    """
    head = _DOC_HEAD.match(data) if isinstance(data, bytes) else None
    if head is None:
        return None
    pos, layers = head.end(), []
    while True:
        if data.startswith(_REAL_HEAD, pos):
            # serialize writes no '}' inside a real layer (no string, no
            # object), and a prefix of an object's text that parses as an
            # object is all of it
            end = data.find(b"}", pos) + 1
            try:
                layer = _load_layer(json.loads(data[pos:end]), "", len(data))
            except ValueError:
                return None
        else:
            found = _read_integer_layer(data, pos)
            if found is None:
                return None
            layer, end = found
        layers.append(layer)
        if data.startswith(b",", end):
            pos = end + 1
        elif end == len(data) - 2 and data.endswith(b"]}"):
            break
        else:
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

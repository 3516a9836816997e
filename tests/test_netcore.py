import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from threshmem import netcore
from threshmem.cli import main
from threshmem.construct import ConstructionConfig, construct_memorizer
from threshmem.geometry import SeparationMode, generate_separated_dataset
from threshmem.netcore import (
    EVAL_CHUNK,
    PACK_BLOCK,
    IntCSR,
    SerializationError,
    ThresholdLayer,
    ThresholdNetwork,
    ThresholdTieWarning,
    _read_canonical,
    _read_general,
    audit,
    deserialize,
    evaluate_layers,
    forward,
    forward_batch,
    load_network,
    serialize,
)


#: a child Python process imports the package from this checkout's src
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))


def single_layer_net(W, b, domain="real"):
    if domain == "real":
        layer = ThresholdLayer.real(np.atleast_2d(W), np.atleast_1d(b))
    else:
        layer = ThresholdLayer.integer(np.atleast_2d(W), np.atleast_1d(b))
    return ThresholdNetwork([layer], input_dim=layer.in_dim)


def xor_gadget_net():
    """Two integer layers computing a XOR b via the three-neuron gadget."""
    half = ThresholdLayer.integer(np.array([[1, -1], [-1, 1]]), np.array([-1, -1]))
    combine = ThresholdLayer.integer(np.array([[1, 1]]), np.array([-1]))
    return ThresholdNetwork([half, combine], input_dim=2)


def test_sigma_at_zero_is_one():
    # ties activate; an exact zero in a real layer is also the fragile case
    # the tie warning exists for
    net = single_layer_net([[1.0]], [0.0])
    with pytest.warns(ThresholdTieWarning):
        assert forward(net, [0.0]) == 1


def test_negative_preactivation_is_zero():
    net = single_layer_net([[1.0]], [-1.0])
    assert forward(net, [0.5]) == 0


def test_xor_gadget_truth_table():
    # exhaustive oracle over the four Boolean inputs
    net = xor_gadget_net()
    for a, b in itertools.product((0, 1), repeat=2):
        assert forward(net, [a, b]) == a ^ b


def test_forward_batch_matches_forward():
    net = xor_gadget_net()
    xs = np.array(list(itertools.product((0, 1), repeat=2)), dtype=float)
    batch = forward_batch(net, xs)
    assert [forward(net, x) for x in xs] == list(batch)


def test_batch_partition_independence():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    layer2 = ThresholdLayer.integer(np.ones((1, 5), dtype=int), np.array([-3]))
    net = ThresholdNetwork([ThresholdLayer.real(W, b), layer2], input_dim=3)
    xs = rng.standard_normal((700, 3))
    full = forward_batch(net, xs)
    split = np.concatenate([forward_batch(net, xs[:311]), forward_batch(net, xs[311:])])
    assert np.array_equal(full, split)
    one_by_one = np.array([forward(net, x) for x in xs])
    assert np.array_equal(full, one_by_one)


def test_real_layer_bits_do_not_depend_on_the_split():
    # pre-activation j of sample j is zero in the whole batch's product; a
    # product that rounds it another way, as BLAS may when it is only a few
    # columns wide, flips that bit
    rng = np.random.default_rng(5)
    W = rng.standard_normal((64, 64))
    X = rng.standard_normal((256, 64))
    layers = [ThresholdLayer.real(W, -np.diag((W @ X.T)[:, :64]))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThresholdTieWarning)
        whole = evaluate_layers(layers, X)
        for k in (1, 3, 100):
            parts = [evaluate_layers(layers, X[s:s + k]) for s in range(0, len(X), k)]
            assert np.array_equal(np.concatenate(parts), whole), k


def test_dimension_mismatch_raises():
    net = xor_gadget_net()
    with pytest.raises(ValueError):
        forward(net, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        forward_batch(net, np.zeros((3, 5)))


def test_integer_exactness_under_column_permutation():
    # permuting input coordinates together with weight columns cannot
    # change any output: integer evaluation has no rounding to reorder
    rng = np.random.default_rng(12)
    for _ in range(20):
        in_dim = int(rng.integers(2, 30))
        out_dim = int(rng.integers(1, 8))
        W = rng.integers(-50, 51, (out_dim, in_dim))
        b = rng.integers(-50, 51, out_dim)
        layer = ThresholdLayer.integer(W, b)
        z = rng.integers(0, 2, (4, in_dim))
        perm = rng.permutation(in_dim)
        permuted = ThresholdLayer.integer(W[:, perm], b)
        a = evaluate_layers([layer], z)
        bb = evaluate_layers([permuted], z[:, perm])
        assert np.array_equal(a, bb)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_crafted_zero_preactivation_fires(out_dim, in_dim, data):
    # rows are built so that W z + b == 0 exactly on the drawn input
    z = np.array(data.draw(st.lists(st.integers(0, 1), min_size=in_dim, max_size=in_dim)))
    rng_rows = data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=in_dim, max_size=in_dim),
        min_size=out_dim, max_size=out_dim))
    W = np.array(rng_rows)
    b = -(W @ z)
    layer = ThresholdLayer.integer(W, b)
    out = evaluate_layers([layer], z[None, :])
    assert np.all(out == 1)


def test_real_tie_warning():
    net = single_layer_net([[1.0, -1.0]], [0.0])
    with pytest.warns(ThresholdTieWarning):
        forward(net, [0.25, 0.25])


def test_audit_counts_dense_single_layer():
    d = 7
    net = single_layer_net([np.arange(1.0, d + 1.0)], [0.5])
    totals = audit(net)
    assert totals.neurons == 1
    assert totals.weights == d + 1  # structural nonzeros plus the bias
    assert totals.max_abs_integer_weight is None


def test_audit_counts_sparse_integer_layers():
    W = IntCSR((2, 3), [0, 1], [1, 0], [3, -4])
    layer = ThresholdLayer.integer(W, np.array([0, -2]))
    net = ThresholdNetwork(
        [layer, ThresholdLayer.integer(np.array([[1, 1]]), np.array([-1]))], input_dim=3
    )
    totals = audit(net)
    assert totals.neurons == 3
    assert totals.weight_entries == 2 + 2
    assert totals.bias_count == 3
    assert totals.weights == 7
    assert totals.max_abs_integer_weight == 4


def test_integer_layer_rejects_non_integers():
    with pytest.raises(ValueError):
        ThresholdLayer.integer(np.array([[0.5]]), np.array([0]))
    with pytest.raises(ValueError):
        ThresholdLayer.integer(np.array([[1]]), np.array([0.25]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_real_layer_rejects_non_finite_values(bad):
    # such a layer would serialize to a document that load refuses
    with pytest.raises(ValueError, match="finite"):
        ThresholdLayer.real([[bad, 1.0]], [0.0])
    with pytest.raises(ValueError, match="finite"):
        ThresholdLayer.real([[0.5, 1.0]], [bad])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, 1e30, 2.0**63, 2**70])
def test_integer_layer_rejects_float_past_int64(bad):
    # the int64 cast would warn and turn the value into -2^63, and the row
    # bound would then report a sum of that made-up value; numpy holds the
    # Python int 2**70 in an object array, which np.round refuses
    with pytest.raises(ValueError, match=f"weight {re.escape(str(bad))} is not an integer"):
        ThresholdLayer.integer(np.array([[bad, 1.0]]), np.array([0]))
    with pytest.raises(ValueError, match=f"bias {re.escape(str(bad))} is not an integer"):
        ThresholdLayer.integer(np.array([[1, 1]]), np.array([bad]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [2**63, 2**64 - 1])
def test_integer_layer_rejects_uint64_past_int64(bad):
    # the int64 cast wrapped these: 2^64 - 1 became the weight -1, and a
    # bias of 2^63 was refused with a made-up row sum that did not name it
    W = np.array([[bad, 1]], dtype=np.uint64)
    for build in (lambda: ThresholdLayer.integer(W, np.array([0])),
                  lambda: ThresholdLayer.integer_from_entries(1, 2, [0, 0], [0, 1], W[0], [0])):
        with pytest.raises(ValueError, match=f"weight {bad} is not an integer"):
            build()
    with pytest.raises(ValueError, match=f"bias {bad} is not an integer"):
        ThresholdLayer.integer(np.array([[1, 1]]), np.array([bad], dtype=np.uint64))
    top = ThresholdLayer.integer(np.array([[INT64_MAX]], dtype=np.uint64), np.array([0]))
    assert top.weights.data.tolist() == [INT64_MAX]


NOT_NUMBERS = {"string": "1", "complex": 1 + 5j}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_integer_layer_refuses_non_numbers(bad):
    # "1" raised TypeError from np.round, and 1 + 5j was kept as 1
    for what, build in [
        ("weight", lambda: ThresholdLayer.integer(np.array([[bad]]), np.array([0]))),
        ("bias", lambda: ThresholdLayer.integer(np.array([[1]]), np.array([bad]))),
        ("weight", lambda: ThresholdLayer.integer_from_entries(1, 1, [0], [0], [bad], [0])),
    ]:
        with pytest.raises(ValueError, match=f"integer layer {what} dtype .* is not bool, integer or float"):
            build()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["0.5", 1 + 2j, 10**400], ids=["string", "complex", "past-float"])
def test_real_layer_refuses_non_numbers(bad):
    # the float64 cast read "0.5" as 0.5, kept the 1.0 of 1 + 2j and
    # raised OverflowError on 10**400
    with pytest.raises(ValueError, match="real layer weights dtype .* is not bool, integer or float"):
        ThresholdLayer.real(np.array([[bad, 1]]), [0.0])
    with pytest.raises(ValueError, match="real layer biases dtype .* is not bool, integer or float"):
        ThresholdLayer.real([[1.0]], np.array([bad]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [0.5, 1.7, "1", 1e30, 2**70, 1 + 0j],
                         ids=["half", "fraction", "string", "past-int64-float", "past-int64-int", "complex"])
@pytest.mark.parametrize("axis", ["row", "column"])
def test_entries_refuse_indices_that_are_not_integers(axis, bad):
    # the int64 cast truncated 0.5 and 1.7, parsed "1", and raised
    # OverflowError on 1e30 and 2**70
    rows, cols = ([bad], [0]) if axis == "row" else ([0], [bad])
    for build in (lambda: IntCSR((2, 2), rows, cols, [3]),
                  lambda: ThresholdLayer.integer_from_entries(2, 2, rows, cols, [3], [0, 0])):
        with pytest.raises(ValueError, match=f"integer layer {axis} index .*(not an integer of magnitude "
                                             r"below 2\^63|not bool, integer or float)"):
            build()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", [[], np.array([1]), np.array([1], dtype=np.uint64),
                                   np.array([1], dtype=object), [1.0]],
                         ids=["empty", "int64", "uint64", "object", "whole-float"])
def test_entries_take_integer_indices_of_any_number_type(index):
    # an empty list reads as float64, and must still give an empty matrix
    W = IntCSR((2, 2), index, index, [3] * len(index))
    assert W.toarray().tolist() == ([[0, 0], [0, 3]] if len(index) else [[0, 0], [0, 0]])


@pytest.mark.parametrize("value, ok", [
    (np.int64(3), True), (np.uint8(3), True), (np.float64(3.0), True),
    (np.float64(0.5), False), (np.uint64(2**63), False), (np.int64(-(2**63)), False),
    (np.float32(np.inf), False),
], ids=["int64", "uint8", "whole-float64", "half-float64", "uint64-2^63", "int64-min", "inf"])
def test_object_values_take_numpy_scalars_by_the_integer_rule(value, ok):
    # the object branch took Python ints and floats only, so np.int64(3)
    # was refused as "not an integer"
    vals = np.array([value], dtype=object)
    if ok:
        assert IntCSR((2, 2), [0], [1], vals).toarray().tolist() == [[0, 3], [0, 0]]
    else:
        with pytest.raises(ValueError, match=r"integer layer weight .* is not an integer of "
                                             r"magnitude below 2\^63"):
            IntCSR((2, 2), [0], [1], vals)


def test_network_shape_validation():
    l1 = ThresholdLayer.integer(np.array([[1, 1]]), np.array([0]))
    l2 = ThresholdLayer.integer(np.array([[1, 1]]), np.array([0]))  # expects 2 inputs
    with pytest.raises(ValueError):
        ThresholdNetwork([l1, l2], input_dim=2)
    wide = ThresholdLayer.integer(np.array([[1], [1]]), np.array([0, 0]))
    with pytest.raises(ValueError, match="one output"):
        ThresholdNetwork([wide], input_dim=1)


def test_serialize_round_trip_real_and_integer():
    rng = np.random.default_rng(4)
    real = ThresholdLayer.real(rng.standard_normal((3, 4)), rng.standard_normal(3))
    mid = ThresholdLayer.integer(rng.integers(-6, 7, (5, 3)), rng.integers(-6, 7, 5))
    out = ThresholdLayer.integer(np.ones((1, 5), dtype=int), np.array([-2]))
    net = ThresholdNetwork([real, mid, out], input_dim=4)
    back = deserialize(serialize(net))
    assert back == net
    # serialized decimals parse to the identical doubles
    assert np.array_equal(back.layers[0].weights, net.layers[0].weights)


def test_serialize_round_trip_idempotent():
    net = xor_gadget_net()
    blob = serialize(net)
    assert serialize(deserialize(blob)) == blob


def test_deserialize_reports_location():
    with pytest.raises(SerializationError, match="line 1"):
        deserialize(b"{not json")
    with pytest.raises(SerializationError, match=r"\$\.input_dim"):
        deserialize(b'{"layers": []}')
    with pytest.raises(SerializationError, match=r"\$\.layers\[0\]\.domain"):
        deserialize(b'{"input_dim": 1, "layers": [{"domain": "complex", "rows": 1, "cols": 1, "entries": [], "bias": [0]}]}')
    with pytest.raises(SerializationError, match=r"entries\[0\]"):
        deserialize(
            b'{"input_dim": 1, "layers": [{"domain": "integer", "rows": 1, "cols": 1,'
            b' "entries": [[0, 5, 1]], "bias": [0]}]}'
        )
    # in compact form, so the canonical reader sees it too: refused before
    # anything of the declared size is allocated
    with pytest.raises(SerializationError, match=r"\$\.layers\[0\]\.bias: must be a list of length"):
        deserialize(b'{"input_dim":1,"layers":[{"domain":"integer","rows":1000000000000000000,'
                    b'"cols":1,"entries":[],"bias":[0]}]}')


def test_deserialize_rejects_integer_layer_float_values():
    doc = (
        b'{"input_dim": 1, "layers": [{"domain": "integer", "rows": 1, "cols": 1,'
        b' "entries": [[0, 0, 1.5]], "bias": [0]}]}'
    )
    with pytest.raises(SerializationError, match="must be an int"):
        deserialize(doc)


# ---------------------------------------------------------------------------
# JSON I/O against the entry-at-a-time reference implementation


def reference_serialize(net):
    """The original one-entry-at-a-time serializer: the byte-exact reference."""
    doc = {"input_dim": net.input_dim, "layers": []}
    for layer in net.layers:
        if layer.domain == "real":
            rows, cols = np.nonzero(layer.weights)
            vals = [float(v) for v in layer.weights[rows, cols]]
            bias = [float(b) for b in layer.biases]
        else:
            W = layer.weights
            row = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
            order = np.lexsort((W.indices, row))
            rows, cols = row[order], W.indices[order]
            vals = [int(v) for v in W.data[order]]
            bias = [int(b) for b in layer.biases]
        doc["layers"].append(
            {
                "domain": layer.domain,
                "rows": int(layer.out_dim),
                "cols": int(layer.in_dim),
                "entries": [[int(r), int(c), v] for r, c, v in zip(rows, cols, vals)],
                "bias": bias,
            }
        )
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def reference_entry_error(doc):
    """The original per-entry validation loop, on a parsed document whose
    layer headers are valid; returns the first error message or None."""
    for li, entry in enumerate(doc["layers"]):
        where = f"$.layers[{li}]"
        domain, rows_n, cols_n = entry["domain"], entry["rows"], entry["cols"]
        seen = set()
        for ei, e in enumerate(entry["entries"]):
            ew = f"{where}.entries[{ei}]"
            if not (isinstance(e, list) and len(e) == 3):
                return f"{ew}: must be [row, col, value]"
            r, c, v = e
            if not (isinstance(r, int) and 0 <= r < rows_n):
                return f"{ew}: row {r!r} out of range"
            if not (isinstance(c, int) and 0 <= c < cols_n):
                return f"{ew}: col {c!r} out of range"
            if (r, c) in seen:
                return f"{ew}: duplicate entry at ({r}, {c})"
            seen.add((r, c))
            if domain == "integer":
                if not isinstance(v, int):
                    return f"{ew}: integer layer value must be an int, got {v!r}"
                if v == 0:
                    return f"{ew}: structural zero not allowed in integer layer"
            elif not isinstance(v, (int, float)):
                return f"{ew}: value must be a number, got {v!r}"
    return None


INT64_MAX = 2**63 - 1
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def bounded_int_row(draw, width):
    """(weights, bias) of one integer row, zeros common, whose absolute
    values sum to at most 2^63 - 1, the most an integer layer accepts."""
    budget = INT64_MAX
    values = []
    for _ in range(width + 1):
        small = min(3, budget)
        v = draw(st.one_of(st.just(0), st.integers(-small, small),
                           st.integers(-budget, budget)))
        budget -= abs(v)
        values.append(v)
    return values[1:], values[0]


@st.composite
def networks(draw):
    """Mixed real and integer layers; zeros are common, so layers with no
    entries and single-row layers both occur."""
    dims = [draw(st.integers(1, 5))]
    depth = draw(st.integers(1, 4))
    dims += [draw(st.integers(1, 5)) for _ in range(depth - 1)] + [1]
    layers = []
    for k in range(depth):
        shape = (dims[k + 1], dims[k])
        if draw(st.booleans()):
            value = st.one_of(st.just(0.0), FINITE)
            W = np.array(draw(st.lists(value, min_size=shape[0] * shape[1],
                                       max_size=shape[0] * shape[1]))).reshape(shape)
            b = draw(st.lists(FINITE, min_size=shape[0], max_size=shape[0]))
            layers.append(ThresholdLayer.real(W, b))
        else:
            rows = [draw(bounded_int_row(shape[1])) for _ in range(shape[0])]
            W = np.array([w for w, _ in rows], dtype=np.int64)
            b = np.array([c for _, c in rows], dtype=np.int64)
            layers.append(ThresholdLayer.integer(W, b))
    return ThresholdNetwork(layers, input_dim=dims[0])


@given(networks())
@settings(max_examples=150, deadline=None)
def test_serialize_matches_reference_and_round_trips(net):
    blob = serialize(net)
    assert blob == reference_serialize(net)
    assert deserialize(blob) == net


CORRUPTIONS = ("row_range", "col_range", "duplicate", "zero_value", "float_value",
               "wrong_length", "non_int_row")


def corrupt(doc, kind, data):
    """Apply one corruption of `kind` to a random entry; False if the
    document has no entry it applies to."""
    integer_only = kind in ("zero_value", "float_value")
    targets = [layer for layer in doc["layers"] if layer["entries"]
               and (layer["domain"] == "integer" or not integer_only)]
    if not targets:
        return False
    layer = data.draw(st.sampled_from(targets))
    entries = layer["entries"]
    whole = [k for k, e in enumerate(entries) if len(e) == 3]  # not already cut short
    if not whole:
        return False
    k = data.draw(st.sampled_from(whole))
    e = entries[k]
    if kind == "row_range":
        e[0] = data.draw(st.sampled_from([-1, layer["rows"], layer["rows"] + 7]))
    elif kind == "col_range":
        e[1] = data.draw(st.sampled_from([-1, layer["cols"]]))
    elif kind == "duplicate":
        entries.insert(data.draw(st.integers(k + 1, len(entries))), list(e))
    elif kind == "zero_value":
        e[2] = 0
    elif kind == "float_value":
        e[2] = data.draw(st.sampled_from([1.5, 2.0, -0.25]))
    elif kind == "wrong_length":
        if data.draw(st.booleans()):
            e.append(0)
        else:
            e.pop()
    else:
        row = e[0] if type(e[0]) is int else 0  # an earlier corruption may have replaced it
        e[0] = data.draw(st.sampled_from([float(row), str(row), None, [row]]))
    return True


@given(networks(), st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3), st.data())
@settings(max_examples=150, deadline=None)
def test_deserialize_reports_the_reference_first_error(net, kinds, data):
    doc = json.loads(serialize(net))
    applied = [corrupt(doc, kind, data) for kind in kinds]
    if not any(applied):
        return
    expected = reference_entry_error(doc)
    assert expected is not None
    # the compact form is the one the canonical reader parses
    for separators in ((", ", ": "), (",", ":")):
        with pytest.raises(SerializationError) as info:
            deserialize(json.dumps(doc, separators=separators).encode())
        assert str(info.value) == expected


NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?")
ENTRY = re.compile(rb"\[[^\[\]]*\]")
#: number tokens serialize never writes: forms numpy's integer parser reads
#: anyway, non-integers, and values at or past the int64 bounds
ODD_TOKENS = (b"01", b"+1", b"-0", b"00", b" 1", b"1 ", b"1.0", b"1e3", b"0x1",
              b"99999999999999999999", b"-9223372036854775809", b"9223372036854775807",
              b"1.50", b"1E3", b"NaN", b"Infinity", b"true", b"null", b'"1"', b"[1]", b"{}")


@st.composite
def mutated(draw, blob):
    """`blob` with one byte-level fault; the result may still be valid JSON,
    even a valid network."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "delete", "token",
                                 "duplicate", "swap", "shift", "tail"]))
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "truncate":
        return blob[:at]
    if kind == "tail":
        return draw(st.sampled_from([blob[:-1], blob[:-2], blob + b" ", blob + b"}", blob + b",{}"]))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ (1 << draw(st.integers(0, 7)))]) + blob[at + 1:]
    if kind == "insert":
        return blob[:at] + draw(st.sampled_from([b" ", b"0", b"-", b",", b"[", b"]"])) + blob[at:]
    if kind == "delete":
        return blob[:at] + blob[at + 1:]
    if kind == "token":
        spans = [m.span() for m in NUMBER.finditer(blob)]
        i, j = draw(st.sampled_from(spans))
        return blob[:i] + draw(st.sampled_from(ODD_TOKENS)) + blob[j:]
    spans = [m.span() for m in ENTRY.finditer(blob)]
    if not spans:
        return blob[:at]
    k = draw(st.integers(0, len(spans) - 1))
    i, j = spans[k]
    if kind == "duplicate":
        return blob[:j] + b"," + blob[i:j] + blob[j:]
    if kind == "swap" and k + 1 < len(spans) and spans[k + 1][0] == j + 1:
        i2, j2 = spans[k + 1]
        return blob[:i] + blob[i2:j2] + b"," + blob[i:j] + blob[j2:]
    # "shift" (or a swap with no adjacent entry): move an entry's last
    # value into the next entry, "[a,b],[c,d,e,f]"
    return blob[:i] + re.sub(rb",([^,]*)\],\[", rb"],[\1,", blob[i:], count=1)


def general_or_none(blob):
    try:
        return _read_general(blob)
    except SerializationError:
        return None


@given(networks(), st.data())
@settings(max_examples=300, deadline=None)
def test_canonical_reader_equals_general_reader(net, data):
    blob = serialize(net)
    assert _read_canonical(blob) == net
    # the same document, not compact: the canonical reader declines it
    spaced = json.dumps(json.loads(blob)).encode()
    assert _read_canonical(spaced) is None and deserialize(spaced) == net
    bad = data.draw(mutated(blob))
    fast = _read_canonical(bad)
    assert fast is None or fast == general_or_none(bad)


@pytest.mark.parametrize("entries", [b"[0,0,1.5],[0,1,2.5e+16]0", b"[0,0,1.5]2,[0,1,3]",
                                     b"[0,0,1.5],1[0,1,3]", b"[0,0,1.5],[0,1]", b"5", b"0"])
def test_canonical_reader_keeps_real_entries_apart(entries):
    # a reader that deleted the brackets would join 2.5e+16]0 into
    # 2.5e+160, and 1.5]2 into 1.52
    doc = (b'{"input_dim":2,"layers":[{"domain":"real","rows":1,"cols":2,"entries":[%s],'
           b'"bias":[0.0]}]}' % entries)
    assert _read_canonical(doc) is None
    with pytest.raises(SerializationError):
        deserialize(doc)


def _must_not_run(*args):
    raise AssertionError("called")


@given(networks())
@settings(max_examples=100, deadline=None)
def test_canonical_reader_reads_every_layer_itself(net):
    blob = serialize(net)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netcore, "_load_layer", _must_not_run)
        assert deserialize(blob) == net


@pytest.mark.parametrize("mode", ["distance", "angular"])
def test_canonical_reader_reads_built_networks_itself(tmp_path, monkeypatch, mode):
    data, net = tmp_path / "ds.csv", tmp_path / "net.json"
    assert main(["generate", "--n", "128", "--d", "8", "--delta", "0.2", "--seed", "2",
                 "--mode", mode, "--out", str(data)]) == 0
    assert main(["build", "--dataset", str(data), "--mode", mode, "--delta", "0.2",
                 "--out", str(net), "--report", str(tmp_path / "r.json")]) == 0
    monkeypatch.setattr(netcore, "_load_layer", _must_not_run)
    assert serialize(load_network(net)) == net.read_bytes()


def test_canonical_reader_refuses_real_layer_larger_than_document(monkeypatch):
    # the compact form of test_deserialize_refuses_real_layer_larger_than_document's
    # document, which the canonical reader sees: refused before any layer is built
    monkeypatch.setattr(netcore, "_make_layer", _must_not_run)
    doc = (b'{"input_dim":200000000,"layers":[{"domain":"real","rows":1,"cols":200000000,'
           b'"entries":[],"bias":[0.0]}]}')
    assert _read_canonical(doc) is None
    with pytest.raises(SerializationError, match=r"^\$\.layers\[0\]: a real layer of 1 x 200000000"):
        deserialize(doc)


@pytest.mark.parametrize("layers, message", [
    # an integer row whose sum |w| + |b| passes 2^63 - 1: _make_layer refuses it
    ([{"domain": "integer", "rows": 1, "cols": 2, "entries": [[0, 0, 2**62], [0, 1, 2**62]],
       "bias": [-1]}], r"^\$\.layers\[0\]: integer layer row 0: .*past the int64 maximum"),
    # two layers whose dimensions do not chain: ThresholdNetwork refuses them
    ([{"domain": "integer", "rows": 1, "cols": 2, "entries": [[0, 0, 1]], "bias": [0]},
      {"domain": "integer", "rows": 1, "cols": 2, "entries": [[0, 1, 1]], "bias": [0]}],
     r"^\$\.layers: layer 1 input dim 2 != layer 0 output dim 1$"),
    # a real entry that is not a number: the general reader names it
    ([{"domain": "real", "rows": 1, "cols": 2, "entries": [[0, 0, None]], "bias": [0.0]}],
     r"^\$\.layers\[0\]\.entries\[0\]: value must be a number, got None$"),
])
def test_canonical_reader_declines_what_the_layer_or_network_refuses(layers, message):
    doc = json.dumps({"input_dim": 2, "layers": layers}, separators=(",", ":")).encode()
    assert _read_canonical(doc) is None
    with pytest.raises(SerializationError, match=message):
        deserialize(doc)


def _doc(domain, entries, bias, rows=1, cols=2):
    return json.dumps({"input_dim": cols, "layers": [
        {"domain": domain, "rows": rows, "cols": cols, "entries": entries, "bias": bias}]}).encode()


@pytest.mark.parametrize("doc, where", [
    (_doc("integer", [[0, 0, 1], [0, 1, 2**63]], [0]), r"\$\.layers\[0\]\.entries\[1\]: "),
    (_doc("integer", [[0, 0, -(2**63) - 1]], [0]), r"\$\.layers\[0\]\.entries\[0\]: "),
    (_doc("integer", [[0, 0, 1]], [2**63]), r"\$\.layers\[0\]\.bias: "),
    (_doc("real", [[0, 0, 1.0], [0, 1, 10**400]], [0.0]), r"\$\.layers\[0\]\.entries\[1\]: "),
    (_doc("real", [[0, 0, 1.0]], [10**400]), r"\$\.layers\[0\]\.bias: "),
])
def test_deserialize_rejects_numbers_past_range(doc, where):
    # these used to escape as OverflowError
    with pytest.raises(SerializationError, match=where):
        deserialize(doc)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_deserialize_rejects_non_finite_real_values(token):
    # Python's json parses these tokens; a NaN weight used to load silently
    entry = b'{"input_dim": 2, "layers": [{"domain": "real", "rows": 1, "cols": 2,' \
        b' "entries": [[0, 0, 0.5], [0, 1, %s]], "bias": [0.0]}]}' % token.encode()
    with pytest.raises(SerializationError, match=r"\$\.layers\[0\]\.entries\[1\]: "):
        deserialize(entry)
    bias = b'{"input_dim": 2, "layers": [{"domain": "real", "rows": 1, "cols": 2,' \
        b' "entries": [], "bias": [%s]}]}' % token.encode()
    with pytest.raises(SerializationError, match=r"\$\.layers\[0\]\.bias: "):
        deserialize(bias)


def test_int64_extremes_round_trip():
    # each row sits exactly at the row bound 2^63 - 1
    layer = ThresholdLayer.integer(
        np.array([[INT64_MAX, 0], [0, -INT64_MAX], [0, 0]]), np.array([0, 0, -INT64_MAX]))
    out = ThresholdLayer.integer(np.array([[1, 1, 1]]), np.array([-1]))
    net = ThresholdNetwork([layer, out], input_dim=2)
    assert deserialize(serialize(net)) == net
    assert _read_canonical(serialize(net)) == net  # not the general reader


@pytest.mark.parametrize("W, b", [
    ([[2**62, 2**62, 1]], [-1]),  # evaluated to 0 on (1, 1, 0), not 1
    ([[2**62, 2**62]], [-1]),     # evaluated to 0 on (1, 1), not 1
    ([[-(2**63), 0]], [0]),       # np.abs(-2^63) wraps to itself
    ([[1, 0]], [-(2**63)]),
    ([[1, 1], [2**61, 2**61]], [0, 2**62]),
])
def test_integer_layer_refuses_row_bound_past_int64(W, b):
    with pytest.raises(ValueError, match="past the int64 maximum"):
        ThresholdLayer.integer(np.array(W, dtype=np.int64), np.array(b, dtype=np.int64))
    rows = [[r, c, v] for r, row in enumerate(W) for c, v in enumerate(row) if v]
    with pytest.raises(SerializationError, match=r"^\$\.layers\[0\]: .*past the int64 maximum"):
        deserialize(_doc("integer", rows, b, rows=len(W), cols=len(W[0])))


@pytest.mark.parametrize("x", list(itertools.product([0, 1], repeat=4)))
def test_rows_at_the_int64_bound_evaluate_exactly(x):
    # a fan-in-2 row (truth table) and a fan-in-4 row (sparse product), each
    # with sum |w| + |b| = 2^63 - 1, against Python's exact integers
    W = [[2**62, -(2**62 - 2), 0, 0], [2**61, 2**61, -(2**61), 2**61 - 2]]
    b = [-1, -1]
    layer = ThresholdLayer.integer(np.array(W), np.array(b))
    expected = [int(sum(w * xi for w, xi in zip(row, x)) + c >= 0) for row, c in zip(W, b)]
    assert evaluate_layers([layer], np.array([x]))[0].tolist() == expected


@pytest.mark.parametrize("entry", ["forward", "forward_batch", "evaluate_layers"])
@pytest.mark.parametrize("x", [-0.5, 2**62, 2])
def test_integer_first_layer_refuses_non_bit_input(entry, x):
    # a fraction, a whole number past float64's exact integers, and a small one
    net = ThresholdNetwork([ThresholdLayer.integer([[1]], [0])], 1)
    call = {"forward": lambda: forward(net, [x]),
            "forward_batch": lambda: forward_batch(net, np.array([[0], [x]])),
            "evaluate_layers": lambda: evaluate_layers(net.layers, np.array([[x], [1]]))}[entry]
    with pytest.raises(ValueError, match="is not 0 or 1"):
        call()


@pytest.mark.parametrize("at", [1, 2])
def test_real_layer_after_the_first_is_refused(at):
    # behind an integer first layer on bits, and behind a real one
    layers = [ThresholdLayer.integer([[1]], [0]) for _ in range(3)]
    layers[at] = ThresholdLayer.real([[1.0]], [-0.5])
    net = ThresholdNetwork(layers, 1)
    real_first = [ThresholdLayer.real([[1.0]], [0.5])] + layers[1:]
    for call in (lambda: forward(net, [1]), lambda: forward_batch(net, np.ones((3, 1))),
                 lambda: evaluate_layers(real_first, np.full((3, 1), 0.25))):
        with pytest.raises(ValueError, match="only the first layer may be real"):
            call()


def test_tie_warning_points_at_the_caller():
    layer = ThresholdLayer.real([[1.0]], [0.0])
    with pytest.warns(ThresholdTieWarning) as record:
        evaluate_layers([layer, ThresholdLayer.integer([[1]], [-1])], np.zeros((EVAL_CHUNK + 1, 1)))
    assert record[0].filename == __file__


def test_deserialize_refuses_real_layer_larger_than_document():
    # run in a child whose address space is capped at 1 GiB: the declared
    # 1 x 200,000,000 layer would need 1.49 GiB of float64
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from threshmem.netcore import SerializationError, deserialize\n"
        "doc = (b'{\"input_dim\": 200000000, \"layers\": [{\"domain\": \"real\", '\n"
        "       b'\"rows\": 1, \"cols\": 200000000, \"entries\": [], \"bias\": [0.0]}]}')\n"
        "try:\n"
        "    deserialize(doc)\n"
        "except SerializationError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("$.layers[0]: a real layer of 1 x 200000000 weights")


# ---------------------------------------------------------------------------
# Evaluation against the per-chunk matmul reference


def scipy_csr(W):
    """An integer layer's weights as a scipy matrix, for the scipy references."""
    return sparse.csr_array((W.data, W.indices, W.indptr), shape=W.shape)


def _reference_apply(layer, Z):
    if layer.domain == "real":
        P = layer.weights @ Z.astype(np.float64, copy=False)
        P += layer.biases[:, None]
        return P >= 0
    weights = scipy_csr(layer.weights)
    row_bound = np.abs(weights).sum(axis=1) + np.abs(layer.biases)
    if row_bound.size == 0 or row_bound.max() < np.iinfo(np.int32).max:
        W, neg_bias = weights.astype(np.int32), (-layer.biases).astype(np.int32)
    else:
        W, neg_bias = weights, -layer.biases
    return W @ Z.astype(W.dtype, copy=False) >= neg_bias[:, None]


def reference_evaluate(layers, xs):
    """The original evaluator: every layer a matmul over EVAL_CHUNK columns,
    integer layers in int32 unless a row bound reaches 2^31. The bit-exact
    reference for the packed evaluator."""
    X = np.asarray(xs)
    out_blocks = []
    for start in range(0, X.shape[0], EVAL_CHUNK):
        Z = np.ascontiguousarray(X[start : start + EVAL_CHUNK].T)
        for layer in layers:
            Z = _reference_apply(layer, Z)
        out_blocks.append(Z.T.astype(np.int8))
    return np.concatenate(out_blocks, axis=0)


SMALL_WEIGHT = st.integers(-3, 3).filter(bool)
#: weights whose row bound passes 2^31, so the matmul reference takes int64,
#: while every sum of a few of them still fits in int64
BIG_WEIGHT = st.integers(2**31, 2**40) | st.integers(-(2**40), -(2**31))


@st.composite
def integer_rows(draw, in_dim, weight):
    """(cols, weights, bias) of one row: fan-in 0, 1 or 2 with any signs, or
    wide. The bias ranges over every threshold the weights can meet."""
    fan_in = draw(st.sampled_from([0, 1, 2, 2, 3, in_dim]))
    fan_in = min(fan_in, in_dim)
    cols = draw(st.lists(st.integers(0, in_dim - 1), min_size=fan_in, max_size=fan_in,
                         unique=True))
    weights = [draw(weight) for _ in cols]
    reach = sum(abs(w) for w in weights) + 1
    bias = draw(st.integers(-reach, reach) | st.sampled_from(
        [-sum(w for w in weights if w > 0), -sum(w for w in weights if w < 0) - 1]))
    return cols, weights, bias


@st.composite
def integer_stacks(draw):
    """Integer layers, optionally behind a real first layer, and a batch of
    inputs for them: real numbers for a real first layer, else bits."""
    big = draw(st.booleans())
    weight = SMALL_WEIGHT | BIG_WEIGHT if big else SMALL_WEIGHT
    real_first = draw(st.booleans())
    dims = [draw(st.integers(1, 6))]
    layers = []
    if real_first:
        dims.append(draw(st.integers(1, 8)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        layers.append(ThresholdLayer.real(rng.standard_normal((dims[1], dims[0])),
                                          rng.standard_normal(dims[1])))
    for _ in range(draw(st.integers(1, 4))):
        in_dim = dims[-1]
        out_dim = draw(st.integers(1, 10))
        rows = [draw(integer_rows(in_dim, weight)) for _ in range(out_dim)]
        r = [i for i, (cols, _, _) in enumerate(rows) for _ in cols]
        c = [col for cols, _, _ in rows for col in cols]
        v = [w for _, ws, _ in rows for w in ws]
        b = np.array([bias for _, _, bias in rows], dtype=np.int64)
        layers.append(ThresholdLayer.integer_from_entries(out_dim, in_dim, r, c, v, b))
        dims.append(out_dim)
    n = draw(st.sampled_from([1, 63, 64, 65, 255, 256, 257,
                              PACK_BLOCK - 1, PACK_BLOCK, PACK_BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if real_first:
        X = rng.standard_normal((n, dims[0]))
    else:
        X = rng.integers(0, 2, (n, dims[0])).astype(draw(st.sampled_from([np.int8, float, bool])))
    return layers, X


@given(integer_stacks(), st.data())
@settings(max_examples=150, deadline=None)
def test_evaluate_layers_matches_reference(stack, data):
    layers, X = stack
    got = evaluate_layers(layers, X)
    assert got.dtype == np.int8
    assert np.array_equal(got, reference_evaluate(layers, X))
    # the same batch split anywhere, a packing block boundary included
    cut = data.draw(st.sampled_from(sorted({0, 1, len(X) // 2, min(64, len(X)),
                                            min(PACK_BLOCK - 1, len(X)), len(X)})))
    split = np.concatenate([evaluate_layers(layers, X[:cut]), evaluate_layers(layers, X[cut:])])
    assert np.array_equal(split, got)


@pytest.mark.parametrize("mode", [SeparationMode.distance(0.3), SeparationMode.angular(0.4)])
def test_built_network_matches_reference(mode):
    ds = generate_separated_dataset(PACK_BLOCK + 77, 12, mode, seed=3)
    net, report = construct_memorizer(ds, ConstructionConfig(mode=mode, seed=5))
    assert np.array_equal(evaluate_layers(net.layers, ds.features),
                          reference_evaluate(net.layers, ds.features))
    # an integer-only slice on int8 bits, as a per-layer profile calls it
    codes = evaluate_layers(net.layers[:1], ds.features)
    assert np.array_equal(evaluate_layers(net.layers[1:], codes),
                          reference_evaluate(net.layers[1:], codes))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(bad):
    net = single_layer_net([[1.0, 1.0]], [0.0])
    with pytest.raises(ValueError, match="NaN or infinite"):
        forward(net, [bad, 0.0])
    xs = np.zeros((300, 2))
    xs[299, 1] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        forward_batch(net, xs)


@pytest.mark.parametrize("entry", ["forward", "forward_batch", "evaluate_layers"])
@pytest.mark.parametrize("batch", [np.array([[-1 + 5j]]), np.array([[None]], dtype=object),
                                   np.array([["1"]])], ids=["complex", "object", "string"])
def test_non_real_input_is_rejected(entry, batch):
    # a cast to float64 dropped the imaginary part and read "1" as 1; an
    # object None passed the finite check and evaluated to bit 0
    net = ThresholdNetwork([ThresholdLayer.real([[1.0]], [0.0]),
                            ThresholdLayer.integer([[1]], [-1])], 1)
    call = {"forward": lambda: forward(net, batch[0]),
            "forward_batch": lambda: forward_batch(net, batch),
            "evaluate_layers": lambda: evaluate_layers(net.layers, batch)}[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way to the refusal
        with pytest.raises(ValueError, match="is not bool, integer or float"):
            call()


def test_evaluate_layers_refuses_an_empty_stack():
    # layers[0] raised IndexError
    with pytest.raises(ValueError, match="no layers to evaluate"):
        evaluate_layers([], np.zeros((1, 1)))


def test_empty_batch_gives_empty_result():
    net = xor_gadget_net()
    assert forward_batch(net, np.zeros((0, 2))).shape == (0,)
    assert evaluate_layers(net.layers[:1], np.zeros((0, 2))).shape == (0, 2)


# ---------------------------------------------------------------------------
# The owned CSR and the integer products against scipy and exact integers


@st.composite
def entry_lists(draw):
    """(shape, rows, cols, values) of entries in any order: duplicates,
    explicit zeros and sums that cancel, values of every size an int64,
    uint64 or object array holds, and now and then an index outside."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    dtype = draw(st.sampled_from([np.int64, np.uint64, object]))
    big = {np.int64: st.integers(-(2**63), INT64_MAX), np.uint64: st.integers(0, 2**64 - 1),
           object: st.integers(-(2**64), 2**64)}[dtype]
    small = st.integers(0, 3) if dtype is np.uint64 else st.integers(-3, 3)
    k = draw(st.integers(0, 12))
    rows = draw(st.lists(st.integers(0, shape[0] - 1), min_size=k, max_size=k))
    cols = draw(st.lists(st.integers(0, shape[1] - 1), min_size=k, max_size=k))
    vals = draw(st.lists(small | big if draw(st.booleans()) else small, min_size=k, max_size=k))
    if k and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, k - 1))
        (rows if draw(st.booleans()) else cols)[at] = draw(st.sampled_from([-1, 5]))
    return shape, rows, cols, np.array(vals, dtype=dtype)


@given(entry_lists())
@example(((1, 1), [-1] + [0] * 10, [0] * 11, np.array([0] * 10 + [2**63], dtype=np.uint64)))
@settings(max_examples=400, deadline=None)
def test_owned_csr_matches_scipy(case):
    shape, rows, cols, vals = case
    # an int64 array holds int64 values; any other needs magnitudes below 2^63
    if vals.dtype != np.int64 and any(abs(int(v)) >= 2**63 for v in vals.tolist()):
        with pytest.raises(ValueError, match=r"weight -?\d+ is not an integer of magnitude below 2\^63"):
            IntCSR(shape, rows, cols, vals)
        return
    ints = vals.astype(np.int64)
    try:
        ref = sparse.coo_array((ints, (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
                               shape=shape).tocsr()
    except ValueError:  # an index outside the shape
        with pytest.raises(ValueError, match="entry index outside"):
            IntCSR(shape, rows, cols, vals)
        return
    ref.sum_duplicates()
    ref.eliminate_zeros()
    got = IntCSR(shape, rows, cols, vals)
    assert got.shape == ref.shape and got.nnz == ref.nnz
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == np.int64
        assert getattr(got, name).tolist() == getattr(ref, name).tolist()
    assert np.array_equal(got.toarray(), ref.toarray())
    # a layer of the same entries, given as entries or dense, holds the same
    # arrays; its row bound refusal comes exactly when a row's |weights|
    # pass int64
    zeros = np.zeros(shape[0], dtype=np.int64)
    builds = [lambda: ThresholdLayer.integer_from_entries(*shape, rows, cols, vals, zeros),
              lambda: ThresholdLayer.integer(ref.toarray(), zeros)]
    bound = max((sum(abs(v) for v in ref.data[ref.indptr[r]:ref.indptr[r + 1]].tolist())
                 for r in range(shape[0])), default=0)
    for build in builds:
        if bound > INT64_MAX:
            with pytest.raises(ValueError, match="past the int64 maximum"):
                build()
        else:
            W = build().weights
            assert (W.indptr.tolist(), W.indices.tolist(), W.data.tolist()) == (
                ref.indptr.tolist(), ref.indices.tolist(), ref.data.tolist())


@pytest.mark.parametrize("cols_n", [7, 2**62])
def test_owned_csr_orders_entries_of_any_shape(cols_n):
    # entries are ordered by row, then column, even where a flat index
    # row * cols_n + col would pass int64
    W = IntCSR((2, cols_n), [1, 0, 1, 0, 1], [0, cols_n - 1, 0, 3, 5],
                [4, 2, -4, 9, 1])
    assert (W.indptr.tolist(), W.indices.tolist(), W.data.tolist()) == (
        [0, 2, 3], [3, cols_n - 1, 5], [9, 2, 1])


def test_layer_holds_a_canonical_copy_of_a_hand_built_csr():
    # row 0 lists column 2 before 0, column 0 twice and a stored zero
    rows, cols = np.array([0, 0, 0, 0, 1]), np.array([2, 0, 0, 1, 1])
    vals = np.array([3, 1, 4, 0, -2])
    biases = np.zeros(2, dtype=np.int64)
    layer = ThresholdLayer.integer(IntCSR((2, 3), rows, cols, vals), biases)
    W = layer.weights
    assert (W.indptr.tolist(), W.indices.tolist(), W.data.tolist()) == ([0, 2, 3], [0, 2, 1], [5, 3, -2])
    # the arrays a caller passes stay its own and writable, also where they
    # are int64 and could have been held as they are
    for a in (cols, biases):
        assert a.flags.writeable
        a[0] = 1
    vals[0] = 9
    assert W.toarray().tolist() == [[5, 0, 3], [0, -2, 0]]
    assert layer.biases.tolist() == [0, 0]


def test_owned_csr_owns_read_only_arrays_and_takes_rows():
    layer = ThresholdLayer.integer(np.array([[2, 3, 0, 1], [-4, 0, 0, 0], [1, 1, 1, 1]]),
                                   np.array([-4, 0, -3]))
    W = layer.weights
    for a in (W.indptr, W.indices, W.data, layer.biases):
        with pytest.raises(ValueError):
            a[0] = 7
    # entry arrays that are canonical already stay the caller's own
    rows, cols, vals = np.array([0, 1]), np.array([1, 0]), np.array([5, 6])
    own = IntCSR((2, 2), rows, cols, vals)
    cols[0], vals[0] = 0, 7
    assert own.toarray().tolist() == [[0, 5], [6, 0]]
    # the packed plan takes the wide rows 0 and 2 and lists their entries
    # by input, then row
    plan = layer._packed_plan()
    assert (plan.pair_rows.tolist(), plan.wide_rows.tolist()) == ([1], [0, 2])
    assert plan.readers.tolist() == [0, 1, 0, 1, 1, 0, 1]
    assert plan.reader_weights.tolist() == [2, 1, 3, 1, 1, 1, 1]
    assert plan.wide_neg_bias.ravel().tolist() == [4, 3]
    X = np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.int8)
    assert (evaluate_layers([layer], X) == (X @ W.toarray().T + layer.biases >= 0)).all()


def dense_evaluate(layers, X):
    """Every layer as exact Python-int sums over its dense matrix."""
    Z = np.asarray(X).astype(object)
    for layer in layers:
        W = layer.weights.toarray().astype(object)
        Z = ((Z @ W.T + layer.biases.astype(object)) >= 0).astype(np.int64).astype(object)
    return Z.astype(np.int8)


@st.composite
def bound_reaching_stacks(draw):
    """Integer layers whose rows reach up to the int64 row bound, their
    sums of |weights| on both sides of 2^53, and bits for them."""
    dims = [draw(st.integers(3, 8))]
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        in_dim, out_dim = dims[-1], draw(st.integers(1, 8))
        top = draw(st.sampled_from([3, 2**50, 2**51, 2**53, 2**59]))
        r, c, v, b = [], [], [], []
        for row in range(out_dim):
            fan_in = draw(st.integers(0, in_dim))
            cols = draw(st.lists(st.integers(0, in_dim - 1), min_size=fan_in, max_size=fan_in,
                                 unique=True))
            ws = [draw(st.integers(-top, top).filter(bool)) for _ in cols]
            reach = sum(abs(w) for w in ws)
            room = INT64_MAX - reach  # in_dim * 2^59 <= 2^62 leaves room
            b.append(draw(st.integers(-reach - 1, reach + 1) | st.sampled_from([-room, room])))
            r += [row] * fan_in
            c += cols
            v += ws
        layers.append(ThresholdLayer.integer_from_entries(out_dim, in_dim, r, c, v,
                                                          np.array(b, dtype=np.int64)))
        dims.append(out_dim)
    n = draw(st.sampled_from([1, 63, 64, 65, PACK_BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.random((n, dims[0])) < draw(st.sampled_from([0.05, 0.5, 0.95]))
    return layers, X.astype(draw(st.sampled_from([np.int8, float, bool])))


@given(bound_reaching_stacks())
@settings(max_examples=150, deadline=None)
def test_evaluate_layers_matches_dense_integers(stack):
    layers, X = stack
    assert np.array_equal(evaluate_layers(layers, X), dense_evaluate(layers, X))


@pytest.mark.parametrize("top", [2**50, 2**60])
def test_wide_rows_sum_exactly_on_both_sides_of_2_53(top):
    # on (1, 1, 0, 0) row 0 scores top - 1 - top = -1; a float64 sum of
    # 2^60 - 1 rounds to 2^60 and would score 0
    W = np.array([[top, -1, 1, 1], [-top, 1, 1, -1]])
    b = np.array([-top, top - 2])
    layer = ThresholdLayer.integer(W, b)
    assert layer._packed_plan().wide_rows.tolist() == [0, 1]
    X = np.array(list(itertools.product([0, 1], repeat=4)))
    assert np.array_equal(evaluate_layers([layer], X), dense_evaluate([layer], X))

"""Command-line entry point wiring all modules.

Commands: generate, build, eval, audit, lowerbound, separate, bits, sweep.
Every command writes machine-readable artifacts (CSV/JSON) plus a manifest
recording the full parameter set, and keeps human chatter on stderr. Reruns
driven by a manifest reproduce integer artifacts bit-exactly.

Exit codes: 0 ok, 1 I/O failure, 2 input-contract violation,
3 construction retry exhaustion, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__, capacity, construct, geometry, lowerbound, netcore

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONTRACT = 2
EXIT_RETRY = 3
EXIT_INVARIANT = 4

#: The one map from library exceptions to exit codes. ValueError covers
#: DatasetNotSeparatedError, SerializationError and json.JSONDecodeError.
#: No class here subclasses another, and anything else propagates.
EXIT_CODES = {
    OSError: EXIT_IO,
    ValueError: EXIT_CONTRACT,
    geometry.InfeasibleGenerationError: EXIT_CONTRACT,
    construct.ConstructionRetryError: EXIT_RETRY,
    construct.MemorizationCheckError: EXIT_INVARIANT,
    MemoryError: EXIT_CONTRACT,
}

SEED_ENV_VAR = "THRESHMEM_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _mode(kind: str, delta: float) -> geometry.SeparationMode:
    return geometry.SeparationMode(kind, float(delta))


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_json(path):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from None


#: The output flags, in the order a manifest lists them; the first one
#: given anchors the default manifest path.
OUTPUTS = ("out", "report", "summary")

#: Parsed attributes that are not parameters of the run.
NOT_PARAMS = frozenset({"command", "func", "manifest", "from_manifest", *OUTPUTS})


def _write_manifest(args, wall_clock_s: float) -> None:
    """Record a finished command: its parameters are its parsed flags
    minus the outputs, which are its artifacts."""
    flags = vars(args)
    params = {key: value for key, value in flags.items() if key not in NOT_PARAMS}
    params.setdefault("seed", None)
    artifacts = {key: str(flags[key]) for key in OUTPUTS if flags.get(key) is not None}
    manifest = {
        "command": args.command,
        "version": __version__,
        "params": params,
        "seed": params["seed"],
        "artifacts": artifacts,
        "wall_clock_s": round(wall_clock_s, 6),
    }
    if args.manifest:
        path = Path(args.manifest)
    elif artifacts:
        out = Path(next(iter(artifacts.values())))
        path = out.with_name(out.stem + ".manifest.json")
    else:
        return  # stdout-only invocation with no anchor for a manifest
    _write_json(path, manifest)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands


def cmd_generate(args) -> None:
    ds = geometry.generate_separated_dataset(args.n, args.d, _mode(args.mode, args.delta), args.seed)
    geometry.save_dataset_csv(ds, args.out)
    _info(f"generated {ds.n} points in d={ds.dim} -> {args.out}")


_HINTS = typing.get_type_hints(construct.ConstructionConfig)

#: A build's tunable parameters: every ConstructionConfig field but mode
#: (--mode, --delta) and seed (--seed). Each has the types of its annotation,
#: (X, NoneType) for Optional[X], and the flag --name with `_` as `-`.
TUNABLE = [(f, typing.get_args(_HINTS[f.name]) or (_HINTS[f.name],))
           for f in dataclasses.fields(construct.ConstructionConfig)
           if f.name not in ("mode", "seed")]

#: The parameters a build manifest records, with the JSON types a replay
#: accepts for each: those its flag's type would parse.
BUILD_PARAMS = {
    "dataset": (str,),
    "mode": (str,),
    "delta": (int, float),
    "seed": (int,),
    **{f.name: (int, *types) if float in types else types for f, types in TUNABLE},
}


def _replay_manifest(args) -> None:
    """Fill args from a build manifest; its --out/--report yield to the flags."""
    manifest = _read_json(args.from_manifest)
    if not isinstance(manifest, dict) or manifest.get("command") != "build":
        raise ValueError(f"{args.from_manifest}: manifest does not describe a build command")
    if manifest.get("version") != __version__:
        # another version may build another network from the same parameters
        raise ValueError(f"{args.from_manifest}: manifest version {manifest.get('version')!r} "
                         f"is not this threshmem's version {__version__!r}")
    params, artifacts = manifest.get("params"), manifest.get("artifacts")
    if not (isinstance(params, dict) and isinstance(artifacts, dict)):
        raise ValueError(f"{args.from_manifest}: manifest needs params and artifacts objects")
    for key, value in params.items():
        if key not in BUILD_PARAMS:
            raise ValueError(f"{args.from_manifest}: unknown build parameter {key!r}")
        types = BUILD_PARAMS[key]
        if isinstance(value, bool) or not isinstance(value, types):
            expected = " or ".join(t.__name__ for t in types)
            raise ValueError(f"{args.from_manifest}: params.{key} must be {expected}, "
                             f"got {value!r}")
        if float in types and isinstance(value, int):  # as its flag converts it
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"{args.from_manifest}: params.{key} is past the float range") from None
        setattr(args, key, value)
    for key in ("out", "report"):
        if key in artifacts and not isinstance(artifacts[key], str):
            # an int or a bool would be opened as a file descriptor
            raise ValueError(f"{args.from_manifest}: artifacts.{key} must be str, "
                             f"got {artifacts[key]!r}")
        setattr(args, key, getattr(args, key) or artifacts.get(key))


def cmd_build(args) -> None:
    if args.from_manifest:
        _replay_manifest(args)
    if args.out is None or args.report is None or args.dataset is None or args.delta is None:
        raise ValueError("build requires --dataset, --delta, --out and --report")

    ds = geometry.load_dataset_csv(args.dataset)
    cfg = construct.ConstructionConfig(mode=_mode(args.mode, args.delta), seed=args.seed,
                                       **{f.name: getattr(args, f.name) for f, _ in TUNABLE})
    net, report = construct.construct_memorizer(ds, cfg)
    netcore.save_network(net, args.out)
    _write_json(args.report, report.to_json_dict())
    _info(
        f"memorized {report.n} points: {report.total_neurons} neurons "
        f"(bound {report.neuron_bound}), d1={report.d1} d2={report.d2} K={report.K}"
    )


def cmd_eval(args) -> None:
    net = netcore.load_network(args.network)
    ds = geometry.load_dataset_csv(args.dataset)
    if ds.dim != net.input_dim:
        raise ValueError(f"dataset dim {ds.dim} != network input dim {net.input_dim}")
    preds = netcore.forward_batch(net, ds.features)
    # the bytes of csv.writer's default dialect: bare commas, CRLF ends
    rows = zip(range(ds.n), ds.labels.tolist(), preds.tolist())
    with open(args.out, "w", newline="") as fh:
        fh.write("index,label,prediction\r\n" + "".join(f"{i},{y},{p}\r\n" for i, y, p in rows))
    correct = int((preds == ds.labels).sum())
    summary = {"n": ds.n, "correct": correct, "accuracy": correct / ds.n}
    _write_json(args.summary, summary)
    _info(f"accuracy {correct}/{ds.n} = {correct / ds.n:.4f}")


def cmd_audit(args) -> None:
    totals = netcore.audit(netcore.load_network(args.network))
    _write_json(args.out, dataclasses.asdict(totals))
    _info(f"{totals.neurons} neurons, {totals.weights} weights (incl. biases)")


def cmd_lowerbound(args) -> None:
    cds = lowerbound.build_cluster_dataset(args.n, args.d, args.delta, args.seed)
    lowerbound.save_clustered_csv(cds, args.out)
    _info(f"clustered dataset: {cds.num_clusters} clusters x {cds.num_clusters} points -> {args.out}")


def _plane(entry, where: str, dim: int) -> lowerbound.Hyperplane:
    normal = entry.get("normal") if isinstance(entry, dict) else None
    offset = entry.get("offset") if isinstance(entry, dict) else None
    # type(), not isinstance(): a JSON true or false is a bool, and a bool is an int
    if not (isinstance(normal, list) and all(type(v) in (int, float) for v in [*normal, offset])):
        raise ValueError(f'{where}: expected {{"normal": [numbers], "offset": number}}')
    if len(normal) != dim:
        raise ValueError(f"{where}: normal has {len(normal)} entries, the points have {dim}")
    try:
        return lowerbound.Hyperplane.from_general(normal, offset)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past float64
        raise ValueError(f"{where}: {exc}") from None


def cmd_separate(args) -> None:
    ds, _ = geometry.load_clustered_csv(args.points)
    raw = _read_json(args.planes)
    if not isinstance(raw, dict) or not isinstance(raw.get("planes"), list):
        raise ValueError(f'{args.planes}: expected {{"planes": [...]}}')
    planes = [_plane(entry, f"{args.planes}: plane {k}", ds.dim)
              for k, entry in enumerate(raw["planes"])]
    result = lowerbound.count_separated_pairs(ds.features, ds.labels, planes, args.mode)
    payload = {
        "mode": args.mode,
        "separated": result.separated,
        "total": result.total,
        "on_plane_incidents": result.on_plane_incidents,
    }
    _write_json(args.out, payload)
    _info(f"separated {result.separated}/{result.total} required pairs")


def cmd_bits(args) -> None:
    query = capacity.CapacityQuery(args.n, args.d, args.delta)
    pb = capacity.packing_bounds(query.d, query.delta)
    lower = capacity.bits_lower_bound(query)
    upper = capacity.bits_upper_bound(query)
    payload = {
        "n": query.n,
        "d": query.d,
        "delta": query.delta,
        "lower_bits": lower.bits,
        "upper_bits": upper.bits,
        "packing_lower_log2": pb.lower_log2,
        "packing_upper_log2": pb.upper_log2,
        "flags": {
            "lower_degenerate": lower.degenerate,
            "packing_lower_clamped": pb.lower_clamped,
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, payload)


def cmd_sweep(args) -> None:
    deltas = args.deltas
    if not deltas:
        raise ValueError("sweep needs a nonempty --deltas list")
    if args.seeds < 1:
        raise ValueError("sweep needs at least one seed")

    recorded = tuple(cls for cls, code in EXIT_CODES.items()
                     if code in (EXIT_CONTRACT, EXIT_RETRY))
    rows = []
    widths = []
    for delta_idx, delta in enumerate(deltas):
        for seed in range(args.seeds):
            cell_seed = int(np.random.default_rng(
                np.random.SeedSequence(args.seed, spawn_key=(seed, delta_idx))
            ).integers(0, 2**62))
            row = {"delta": delta, "seed": seed}
            try:
                mode = _mode(args.mode, delta)
                ds = geometry.generate_separated_dataset(args.n, args.d, mode, cell_seed)
                cfg = construct.ConstructionConfig(mode=mode, seed=cell_seed)
                net, report = construct.construct_memorizer(ds, cfg)
                row.update(
                    first_layer_neurons=report.d1,
                    total_neurons=report.total_neurons,
                    total_weights=report.total_weights,
                    retries=report.retries["first_layer"] + report.retries["compression"],
                    error="",
                )
                widths.append((delta, report.d1))
            # a cell's bad input or exhausted retries is recorded and the
            # sweep goes on; an I/O failure or invariant breach ends it
            except recorded as exc:
                row.update(first_layer_neurons="", total_neurons="",
                           total_weights="", retries="", error=str(exc))
            rows.append(row)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "delta", "seed", "first_layer_neurons", "total_neurons",
            "total_weights", "retries", "error"])
        writer.writeheader()
        writer.writerows(rows)

    slope = None
    distinct = sorted({d for d, _ in widths})
    if len(distinct) >= 2:
        xs = np.log([1.0 / d for d, _ in widths])
        ys = np.log([w for _, w in widths])
        slope = float(np.polyfit(xs, ys, 1)[0])
    summary = {"n": args.n, "d": args.d, "deltas": deltas, "rows": len(rows),
               "loglog_slope_first_layer_vs_inv_delta": slope}
    _write_json(args.summary, summary)
    _info(f"swept {len(rows)} cells; slope={slope}")


# ---------------------------------------------------------------------------
# Parser


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshmem",
        description="Constructive memorization with threshold networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest",
                        help="manifest path (default: <stem>.manifest.json beside the first output)")

    modes = dict(choices=[geometry.ANGULAR, geometry.DISTANCE], default=geometry.DISTANCE)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, help="generate a separated dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", **modes)
    p.add_argument("--delta", type=float, required=True)
    _add_seed(p)
    p.add_argument("--out", required=True)

    p = command("build", cmd_build, help="construct a memorizing network")
    p.add_argument("--dataset")
    p.add_argument("--mode", **modes)
    p.add_argument("--delta", type=float)
    _add_seed(p)
    for f, types in TUNABLE:
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=f.default,
                       type=next(t for t in types if t is not type(None)))
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--from-manifest", dest="from_manifest",
                   help="rerun a previous build from its manifest")

    p = command("eval", cmd_eval, help="evaluate a network on a dataset CSV")
    p.add_argument("--network", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="per-point predictions CSV")
    p.add_argument("--summary", required=True, help="accuracy summary JSON")

    p = command("audit", cmd_audit, help="size accounting of a network JSON")
    p.add_argument("--network", required=True)
    p.add_argument("--out", required=True)

    p = command("lowerbound", cmd_lowerbound, help="build a clustered lower-bound dataset")
    p.add_argument("--n", type=int, required=True, help="perfect square >= 4")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_seed(p)
    p.add_argument("--out", required=True)

    p = command("separate", cmd_separate, help="count hyperplane-separated pairs")
    p.add_argument("--points", required=True, help="dataset CSV (cluster column optional)")
    p.add_argument("--planes", required=True, help='JSON {"planes": [{"normal": [...], "offset": b}]}')
    p.add_argument("--mode", choices=[lowerbound.ALL_PAIRS, lowerbound.OPPOSITE_LABEL_PAIRS],
                   default=lowerbound.OPPOSITE_LABEL_PAIRS)
    p.add_argument("--out", required=True)

    p = command("bits", cmd_bits, help="bit-complexity bounds for a query")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", help="also write the JSON here")

    p = command("sweep", cmd_sweep, help="size scaling across deltas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", **modes)
    p.add_argument("--deltas", type=_delta_list, required=True,
                   help="comma-separated list, e.g. 0.4,0.2,0.1,0.05")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds per delta")
    _add_seed(p)
    p.add_argument("--out", required=True, help="sweep table CSV")
    p.add_argument("--summary", required=True, help="slope summary JSON")

    return parser


def _delta_list(text: str) -> list:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad delta list {text!r}")
    return values


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        started = time.monotonic()
        args.func(args)
        _write_manifest(args, time.monotonic() - started)
        return EXIT_OK
    except tuple(EXIT_CODES) as exc:
        code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        error = {"code": code, "type": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "worst_pair"):  # a failed separation check or retry budget
            error["worst_pair"] = list(exc.worst_pair) if exc.worst_pair else None
            error["worst_value"] = exc.worst_value
        print(json.dumps({"error": error}, sort_keys=True))
        _info(f"error: {exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: decompose, qaoa, route, verify, report.  Outputs are JSON files
written atomically; reruns with identical inputs are byte-identical.  Exit
codes: 0 success, 1 domain error (JSON diagnostics on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

import numpy as np

from . import qaoa, routing, weyl
from .decompose import count_gates, decompose_gellmann, decompose_weyl
from .errors import TritcircError
from .gates import (
    TWO_QUTRIT_KINDS,
    Circuit,
    _json_int,
    _json_object,
    circuit_from_dict,
    dump_gate_records,
    gate_to_dict,
    load_json,
)
from .sim import circuit_diagonal, diagonal_distance

DEFAULT_SEED = 12345
DEFAULT_TOLERANCE = 1e-9


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _generator_from_args(args) -> dict:
    if args.generator:
        return load_json(args.generator)
    if args.gellmann:
        return {
            "type": "gellmann",
            "indices": _parse_int_list(args.gellmann),
            "theta": args.theta,
        }
    if args.weyl_s:
        return {
            "type": "weyl",
            "s": _parse_int_list(args.weyl_s),
            "c": {"re": args.weyl_c_re, "im": args.weyl_c_im},
            "theta": args.theta,
        }
    raise TritcircError("provide --generator, --gellmann, or --weyl-s")


def _parse_generator(gen) -> tuple[weyl.GellMannString | weyl.WeylZString, float]:
    """The string operator and angle a generator dict names.

    JSON values of the wrong type (a top-level list, ``"indices": 3``,
    ``"c": 1``), a fractional or boolean index or exponent, and a theta or c
    that is not finite raise ``TritcircError`` like every other malformed
    input.
    """
    if not isinstance(gen, dict):
        raise TritcircError(
            f"generator must be a JSON object, got {type(gen).__name__}"
        )
    try:
        theta = float(gen["theta"])
        if gen["type"] == "gellmann":
            op = weyl.GellMannString(tuple(_json_int(i, "indices") for i in gen["indices"]))
        elif gen["type"] == "weyl":
            c = complex(gen["c"]["re"], gen["c"].get("im", 0.0))
            op = weyl.WeylZString(c, tuple(_json_int(e, "s") for e in gen["s"]))
        else:
            raise TritcircError(f"unknown generator type {gen.get('type')!r}")
    except TypeError as exc:
        raise TritcircError(f"malformed generator: {exc}") from None
    if not math.isfinite(theta):
        raise TritcircError(f"malformed generator: theta must be finite, got {theta}")
    if isinstance(op, weyl.WeylZString) and not cmath.isfinite(op.c):
        raise TritcircError(f"malformed generator: c must be finite, got {op.c}")
    return op, theta


def _compile_generator(op, theta: float) -> Circuit:
    if isinstance(op, weyl.GellMannString):
        return decompose_gellmann(op, theta)
    return decompose_weyl(op, theta)


def _exact_generator_phases(op, theta: float) -> np.ndarray:
    """Diagonal of the generator's exact exponential."""
    with np.errstate(all="ignore"):  # a huge finite theta or c overflows to inf or NaN
        if isinstance(op, weyl.GellMannString):
            phases = np.exp(-1j * theta * weyl.gellmann_string_diagonal(op))
        else:
            phases = np.exp(-1j * (theta / 2.0) * weyl.weyl_string_diagonal(op))
    if not np.isfinite(phases).all():
        raise TritcircError("generator phases are not finite: theta or c is too large")
    return phases


def _dump_circuit(circuit: Circuit, path: str) -> None:  # circuit_to_dict's JSON
    dump_gate_records(path, "gates", circuit.gates, gate_to_dict, n=circuit.num_qutrits)


def _cmd_decompose(args) -> int:
    circuit = _compile_generator(*_parse_generator(_generator_from_args(args)))
    if args.out:
        _dump_circuit(circuit, args.out)
    counts = count_gates(circuit)
    summary = {
        "cx_count": counts.cx_count,
        "rotation_count": counts.rotation_count,
        "single_qutrit_count": counts.single_qutrit_count,
        "depth": counts.depth,
        "num_qutrits": circuit.num_qutrits,
        "num_gates": len(circuit),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    circuit = circuit_from_dict(load_json(args.circuit))
    exact = _exact_generator_phases(*_parse_generator(load_json(args.generator)))
    diag, method = circuit_diagonal(circuit)
    dist = diagonal_distance(diag, exact)
    payload = {"method": method, "phase_distance": dist,
               "tolerance": args.tolerance, "ok": dist <= args.tolerance}
    print(json.dumps(payload, sort_keys=True))
    return 0 if payload["ok"] else 1


def _cmd_qaoa(args) -> int:
    graph = _json_object(load_json(args.graph), "graph")
    try:
        edges = tuple(tuple(_json_int(v, "edges") for v in e) for e in graph["edges"])
        problem = qaoa.ColoringProblem(_json_int(graph["nodes"], "nodes"), edges, args.k)
    except TypeError as exc:
        raise TritcircError(f"malformed graph: {exc}") from None
    spec = qaoa.QaoaLayerSpec(
        tuple(_parse_float_list(args.gammas)), tuple(_parse_float_list(args.betas))
    )
    circuit = qaoa.build_qaoa_circuit(problem, spec)
    if args.out:
        _dump_circuit(circuit, args.out)
    counts = count_gates(circuit)
    print(json.dumps({
        "num_qutrits": circuit.num_qutrits,
        "num_gates": len(circuit),
        "cx_count": counts.cx_count,
        "depth": counts.depth,
        "layers": spec.layers,
    }, sort_keys=True))
    return 0


def _cmd_route(args) -> int:
    pmap = routing.parity_map_from_dict(load_json(args.parity))
    topology = routing.topology_from_dict(load_json(args.topology))
    result = routing.steiner_gauss_synthesize(pmap, topology)
    implementing = result.implementing_circuit
    _, ok, sample_ok = routing.check_implementation(pmap, implementing, args.samples, args.seed)
    failed = ok != pmap.n or sample_ok != args.samples
    if args.out and not failed:
        _dump_circuit(implementing, args.out)
        dump_gate_records(args.log or args.out + ".rowops.json", "row_ops",
                          result.row_ops, routing.row_op_to_dict)
    cx_count = sum(g.kind in TWO_QUTRIT_KINDS for g in implementing.gates)
    print(f"OK {ok}/{pmap.n} basis vectors, {sample_ok}/{args.samples} random samples; "
          f"cx_count {cx_count}")
    if failed:
        raise TritcircError("synthesized circuit does not reproduce the parity map")
    return 0


def _cmd_report(args) -> int:
    rows = qaoa.resource_report(_parse_int_list(args.k), args.degree)
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print(qaoa.format_report(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritcirc", description="Qutrit circuit compilation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compile a string exponential to gates")
    p.add_argument("--generator", help="generator JSON file")
    p.add_argument("--gellmann", help="comma-separated indices, e.g. 3,3,8")
    p.add_argument("--weyl-s", help="comma-separated exponents, e.g. 2,1,2")
    p.add_argument("--weyl-c-re", type=float, default=1.0)
    p.add_argument("--weyl-c-im", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--out", help="circuit JSON output path")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="compare a circuit against its generator")
    p.add_argument("--circuit", required=True)
    p.add_argument("--generator", required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("qaoa", help="build a ternary k-coloring QAOA circuit")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gammas", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_qaoa)

    p = sub.add_parser("route", help="synthesize a parity map on a topology")
    p.add_argument("--parity", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--out")
    p.add_argument("--log", help="row-operation log path")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("report", help="per-edge coloring-circuit resources")
    p.add_argument("--k", default="3,9,27")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TritcircError, OSError, KeyError, ValueError, OverflowError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: distances, duals, divergences, the gap demo, verify.

Instance files are JSON documents; complex entries are ``[re, im]`` pairs.
Reports are printed human-readable and, with ``--out``, appended as one JSON
record per line.  Every float in a record is rounded to 12 significant
digits at construction, so serializing, re-parsing and re-serializing a
record is the identity and golden files diff deterministically.

Exit codes: 0 on success, 2 on parse or usage errors, 3 on solver or
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import closedform as cf
from . import cost as cost_mod
from . import linalg, sdp, suites, transport

__all__ = ["main", "ReportRecord", "parse_instance", "parse_report"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3


class InstanceError(ValueError):
    """Invalid instance file contents, or a file the command cannot read or
    write."""


def _round12(value: Any) -> Any:
    """Round floats to 12 significant digits, recursively through containers.
    ``float(f"{x:.12g}")`` returns zeros and non-finite values as they are."""
    # plain floats and lists of them first: a parsed instance document is
    # mostly those
    if type(value) is float:
        return float(f"{value:.12g}")
    if type(value) is list:
        return [float(f"{v:.12g}") if type(v) is float else _round12(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    raise TypeError(f"cannot serialize value of type {type(value)!r}")


@dataclass(frozen=True)
class ReportRecord:
    """One machine-readable result row; floats carry 12 significant digits."""

    command: str
    instance: dict
    status: str
    seconds: float
    primal: float | None = None
    dual: float | None = None
    gap: float | None = None
    distance: float | None = None
    dp: float | None = None
    divergence: float | None = None
    divergence_squared: float | None = None
    certificate: dict | None = None
    closed_form: dict | None = None
    extra: dict | None = None

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _round12(getattr(self, f.name)))

    def to_json_line(self) -> str:
        # the fields hold only what __post_init__ rounded: plain numbers,
        # strings and fresh lists and dicts, so they serialize as they are
        payload = {k: v for k, v in vars(self).items() if v is not None}
        return json.dumps(payload, sort_keys=True)


def parse_report(line: str) -> ReportRecord:
    data = json.loads(line)
    known = {f.name for f in dataclasses.fields(ReportRecord)}
    unknown = set(data) - known
    if unknown:
        raise InstanceError(f"unknown report fields: {sorted(unknown)}")
    return ReportRecord(**data)


# ---------------------------------------------------------------------------
# Instance parsing.
# ---------------------------------------------------------------------------


def _complex_matrix(entries: Any, what: str) -> np.ndarray:
    try:
        rows = []
        for row in entries:
            parsed = []
            for cell in row:
                if isinstance(cell, (int, float)):
                    parsed.append(complex(cell))
                else:
                    re, im = cell
                    parsed.append(complex(float(re), float(im)))
            rows.append(parsed)
        return np.array(rows, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"malformed {what}: {exc}") from exc


def _parse_state(obj: Any, name: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InstanceError(f"state {name!r} must be an object with 'bloch' or 'matrix'")
    if "bloch" in obj:
        try:
            return cf.state_from_bloch([float(v) for v in obj["bloch"]])
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"state {name!r}: {exc}") from exc
    if "matrix" in obj:
        # validated once, where the instance is built (its errors name the state)
        return _complex_matrix(obj["matrix"], f"state {name!r}")
    raise InstanceError(f"state {name!r} must provide 'bloch' or 'matrix'")


def _parse_observables(obj: Any) -> cost_mod.ObservableSet:
    if obj == "pauli-triple" or obj is None:
        return cost_mod.pauli_triple()
    if obj == "sigma-z":
        return cost_mod.sigma_z_observable()
    if isinstance(obj, dict) and "matrices" in obj:
        mats = [_complex_matrix(m, "observable") for m in obj["matrices"]]
        try:
            return cost_mod.observable_set(mats)
        except ValueError as exc:
            raise InstanceError(str(exc)) from exc
    raise InstanceError(f"unknown observable selector {obj!r}")


def _cost_kind(data: dict, args: argparse.Namespace | None) -> str:
    """The ``--cost`` flag when given, else the file's cost selector."""
    return getattr(args, "cost", None) or data.get("cost", "symm")


_FIXED_OBSERVABLES = {"symm": cost_mod.pauli_triple, "z": cost_mod.sigma_z_observable}


def _parse_states_and_cost(
    data: Any, args: argparse.Namespace | None
) -> tuple[np.ndarray, np.ndarray, str, cost_mod.ObservableSet | None]:
    """The two states of an instance document, its cost selector and the
    file's observables; ``None`` for the fixed ``symm`` and ``z`` sets, which
    are built only where they are read."""
    if not isinstance(data, dict):
        raise InstanceError("instance file must hold a JSON object")
    rho = _parse_state(data.get("rho"), "rho")
    omega = _parse_state(data.get("omega"), "omega")
    cost_kind = _cost_kind(data, args)
    if cost_kind in _FIXED_OBSERVABLES:
        return rho, omega, cost_kind, None
    if cost_kind in ("factorized", "general"):
        return rho, omega, cost_kind, _parse_observables(data.get("observables"))
    raise InstanceError(f"unknown cost selector {cost_kind!r}")


def parse_instance(data: dict, args: argparse.Namespace | None = None) -> transport.TransportInstance:
    """Build a transport instance from a parsed JSON document.

    Command-line flags override the file's cost selector, exponent and mode.
    A plan larger than ``sdp.MAX_VARIABLE_DIM`` raises ``InstanceError``.
    """
    rho, omega, cost_kind, observables = _parse_states_and_cost(data, args)
    try:
        p = float(data.get("p", 2.0))
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"exponent p: {exc}") from exc
    if getattr(args, "p", None) is not None:
        p = float(args.p)
    mode = data.get("mode")
    if getattr(args, "mode", None) is not None:
        mode = args.mode

    try:
        if cost_kind == "symm":
            if mode == transport.MODE_LINEARIZED:
                return transport.factorized_instance(
                    rho, omega, cost_mod.pauli_triple(), p, transport.MODE_LINEARIZED
                )
            return transport.symm_instance(rho, omega, p)
        if cost_kind == "z":
            return transport.z_instance(rho, omega, p)
        if cost_kind == "factorized":
            return transport.factorized_instance(
                rho, omega, observables, p, mode or transport.MODE_NONLINEAR
            )
        classical = cost_mod.lp_power_cost(observables.size, p)
        return transport.general_instance(
            rho, omega, observables, classical, p, mode or transport.MODE_LINEARIZED
        )
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def _load_instance_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return data


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _matrix_payload(m: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(m)]


def _append_lines(path: str, lines: list[str]) -> None:
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise InstanceError(f"cannot write {path}: {exc}") from exc


def _emit(record: ReportRecord, args: argparse.Namespace) -> None:
    if getattr(args, "out", None):
        _append_lines(args.out, [record.to_json_line()])


def _print_fields(pairs: list[tuple[str, Any]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        if isinstance(value, float):
            print(f"{key:<{width}}  {value:.12g}")
        else:
            print(f"{key:<{width}}  {value}")


def _trace_summary(trace: tuple[dict, ...]) -> dict:
    """The solve's trace in brief: the final ``mu``; over the stepping rows
    (every row but the last, whose iteration stopped) the largest
    ``schur_ratio``, the smallest step length and the number of shifted
    Schur factors; and the route, ``slot`` or ``qr`` when every stepping row
    took it, ``switched at k`` when iteration ``k`` switched to QR, None
    when no row stepped."""
    stepping = [row for row in trace if "route" in row]
    routes = [row["route"] for row in stepping]
    if "switched" in routes:
        route = f"switched at {routes.index('switched')}"
    else:
        route = routes[0] if routes else None
    return {
        "final_mu": trace[-1]["mu"] if trace else None,
        "max_schur_ratio": max((row["schur_ratio"] for row in stepping), default=None),
        "min_step": min((min(row["ap"], row["ad"]) for row in stepping), default=None),
        "shifts": sum(row["shifted"] for row in stepping),
        "route": route,
    }


def _certificate_dict(res: transport.TransportResult) -> dict:
    """The record's certificate: the certificate's verdict and minima, every
    diagnostic of the result (so both of its on-read units run), the cut
    masses, and the solve's iterations, stop reason and trace summary."""
    c = res.certificate
    return {
        "passed": c.passed,
        "max_equality_residual": c.max_equality_residual,
        "dual_residual": c.dual_residual,
        "min_eig_x": c.min_eig_x,
        "min_eig_s": c.min_eig_s,
        "dual_attained": res.dual_attained,
        "degenerate_face": res.degenerate_face,
        "cut_rho": res.cut_rho,
        "cut_omega": res.cut_omega,
        "iterations": res.solution.iterations,
        "reason": res.solution.reason,
        "trace": _trace_summary(res.solution.trace),
    }


def _solve_for_args(
    args: argparse.Namespace,
) -> tuple[dict, transport.TransportInstance, transport.TransportResult, dict, float]:
    """The instance document, the instance, its result, the record's
    certificate and the seconds of the solve: the certificate is built
    first, so that the seconds count the decode and the face probe."""
    data = _load_instance_file(args.instance)
    instance = parse_instance(data, args)
    result = transport.wasserstein_distance(instance, tol=args.tol)
    if args.verbose:
        for it, row in enumerate(result.solution.trace):
            print(f"iter {it:3d}  mu {row['mu']:.3e}  rp {row['rp']:.3e}  rd {row['rd']:.3e}  "
                  f"gap {row['gap']:.3e}", file=sys.stderr)
    certificate = _certificate_dict(result)
    return data, instance, result, certificate, sum(result.timings.values())


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_distance(args: argparse.Namespace) -> int:
    data, instance, result, certificate, seconds = _solve_for_args(args)
    comparison = None
    # the D^p formulas are optima over one joint plan, not a correlated one
    if instance.mode == transport.MODE_JOINT:
        found = cf.closed_form_dp(instance.rho, instance.omega, _cost_kind(data, args), instance.p)
        if found is not None:
            comparison = {"family": found[0], "dp": found[1]}
    record = ReportRecord(
        command="distance",
        instance=data,
        status=result.status,
        seconds=seconds,
        primal=result.primal_objective,
        dual=result.dual_objective,
        gap=result.gap,
        distance=result.distance,
        dp=result.dp,
        certificate=certificate,
        closed_form=comparison,
    )
    _emit(record, args)
    fields = [
        ("status", result.status),
        ("primal", result.primal_objective),
        ("dual", result.dual_objective),
        ("gap", result.gap),
        ("D^p", result.dp),
        ("distance", result.distance),
        ("seconds", seconds),
    ]
    if comparison:
        fields.append((f"closed form ({comparison['family']})", comparison["dp"]))
        fields.append(("closed form deviation", abs(comparison["dp"] - result.dp)))
    _print_fields(fields)
    return EXIT_OK if result.status == "optimal" else EXIT_SOLVER


def cmd_dual(args: argparse.Namespace) -> int:
    data, instance, result, certificate, seconds = _solve_for_args(args)
    # read on the support face, where the solve certified the dual; off it
    # the full-space dual need not be attained
    slack = instance.support.restrict(
        transport.potential_slack(instance.plan_cost(), result.potentials)
    )
    record = ReportRecord(
        command="dual",
        instance=data,
        status=result.status,
        seconds=seconds,
        primal=result.primal_objective,
        dual=result.dual_objective,
        gap=result.gap,
        certificate=certificate,
        extra={
            "potential_objective": transport.potential_objective(
                instance.rho, instance.omega, result.potentials
            ),
            "slack_min_eig": linalg.min_eigenvalue(slack),
            "x": [_matrix_payload(m) for m in result.potentials.xs],
            "y": [_matrix_payload(m) for m in result.potentials.ys],
        },
    )
    _emit(record, args)
    _print_fields(
        [
            ("status", result.status),
            ("dual objective", result.dual_objective),
            ("potential objective", record.extra["potential_objective"]),
            ("slack min eigenvalue", record.extra["slack_min_eig"]),
            ("dual attained", result.dual_attained),
            ("gap", result.gap),
            ("seconds", seconds),
        ]
    )
    return EXIT_OK if result.status == "optimal" else EXIT_SOLVER


def cmd_divergence(args: argparse.Namespace) -> int:
    data = _load_instance_file(args.instance)
    rho, omega, cost_kind, observables = _parse_states_and_cost(data, args)
    if cost_kind == "general":
        raise InstanceError("divergence needs a quadratic cost selector (symm, z, factorized)")
    if observables is None:
        observables = _FIXED_OBSERVABLES[cost_kind]()
    t0 = time.perf_counter()
    try:
        parts = transport.divergence_parts(rho, omega, observables)  # validates the pair
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc
    seconds = time.perf_counter() - t0

    # the closed form reads the states as validated, symmetrized
    found = cf.closed_form_d_squared(*linalg.hermitian([rho, omega]), cost_kind)
    comparison = None if found is None else {"family": found[0], "d_squared": found[1]}
    record = ReportRecord(
        command="divergence",
        instance=data,
        status=parts.status,
        seconds=seconds,
        gap=parts.gap,
        divergence=parts.d,
        divergence_squared=parts.d_squared,
        closed_form=comparison,
        certificate={"max_equality_residual": parts.max_equality_residual},
        extra={
            "cross": parts.cross,
            "self_rho": parts.self_rho,
            "self_omega": parts.self_omega,
        },
    )
    _emit(record, args)
    fields = [
        ("status", parts.status),
        ("D^2(rho, omega)", parts.cross),
        ("D^2(rho, rho)", parts.self_rho),
        ("D^2(omega, omega)", parts.self_omega),
        ("d^2", parts.d_squared),
        ("d", parts.d),
        ("gap", parts.gap),
        ("seconds", seconds),
    ]
    if comparison:
        fields.append((f"closed form ({comparison['family']})", comparison["d_squared"]))
    _print_fields(fields)
    return EXIT_OK if parts.status == "optimal" else EXIT_SOLVER


def cmd_gap_demo(args: argparse.Namespace) -> int:
    exponents = args.p if args.p else [1.0, 2.0, 3.0]
    print(f"{'p':>4}  {'nonlinear':>16}  {'linearized':>16}  {'difference':>16}")
    for p in exponents:
        t0 = time.perf_counter()
        result = transport.gap_demo(float(p))
        seconds = time.perf_counter() - t0
        record = ReportRecord(
            command="gap-demo",
            instance={"p": float(p)},
            status=result.status,
            seconds=seconds,
            gap=result.gap,
            extra={
                "nonlinear": result.nonlinear,
                "linearized": result.linearized,
                "difference": result.difference,
                "factor_values": list(result.factor_values),
            },
        )
        _emit(record, args)
        print(
            f"{p:>4g}  {result.nonlinear:>16.12g}  {result.linearized:>16.12g}"
            f"  {result.difference:>16.12g}"
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        outcome = suites.run_suite(
            args.suite, density=args.density, samples=args.samples, seed=args.seed
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_PARSE
    if args.out:
        rows = [*outcome.cases, outcome.summary()]
        _append_lines(args.out, [json.dumps(_round12(row), sort_keys=True) for row in rows])
    failing = [c for c in outcome.cases if not c["ok"]]
    for case in failing[:20]:
        print(json.dumps(_round12(case), sort_keys=True))
    summary = outcome.summary()
    _print_fields(sorted(summary.items()))
    return EXIT_OK if outcome.passed else EXIT_SOLVER


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


# argparse reports a ValueError from a type function as an invalid value.
def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def _int_at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value
    return integer


def _exponent(text: str) -> float:
    try:
        return cost_mod.check_exponent(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# built on first use and reused by every later main() call in the process
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qot",
        description="Quantum optimal transport distances via semidefinite programming.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # Flag groups; each subcommand takes exactly the groups it reads.
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("instance", help="path to a JSON instance file")
    instance.add_argument("--cost", choices=["symm", "z"], default=None,
                          help="override the file's cost selector")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--p", type=float, default=None, help="override the exponent")
    solver.add_argument("--mode", choices=["joint", "linearized", "nonlinear"], default=None)
    solver.add_argument("--tol", type=_positive_float, default=sdp.TOL,
                        help="solver tolerance; a larger one still ends optimal only if certified")
    solver.add_argument("--verbose", action="store_true", help="print the solve's trace to stderr")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="append JSON records to this path")

    sub = subs.add_parser("distance", parents=[instance, solver, out],
                          help="solve one transport instance")
    sub.set_defaults(func=cmd_distance)

    sub = subs.add_parser("dual", parents=[instance, solver, out],
                          help="report the dual side: potentials and slack")
    sub.set_defaults(func=cmd_dual)

    sub = subs.add_parser("divergence", parents=[instance, out],
                          help="quadratic divergence of an instance")
    sub.set_defaults(func=cmd_divergence)

    sub = subs.add_parser("gap-demo", parents=[out],
                          help="strict linearization-gap demonstration")
    sub.add_argument("--p", type=_exponent, action="append", default=None,
                     help="exponent; may repeat (default: 1 2 3)")
    sub.set_defaults(func=cmd_gap_demo)

    sub = subs.add_parser("verify", parents=[out], help="run a named verification suite")
    sub.add_argument("suite", help="one of: " + ", ".join(suites.suite_names()))
    sub.add_argument("--density", type=_int_at_least(1), default=None,
                     help="grid density override")
    sub.add_argument("--samples", type=_int_at_least(1), default=None,
                     help="sample count override")
    sub.add_argument("--seed", type=_int_at_least(0), default=0)
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            # an unwritable path fails before any solve or printed line, creating no file
            if os.path.exists(args.out):
                _append_lines(args.out, [])
            elif not os.access(os.path.dirname(args.out) or ".", os.W_OK | os.X_OK):
                raise InstanceError(f"cannot write {args.out}: its directory is not writable")
        return args.func(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except transport.SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Thin shell over the library: builds measures and functions from presets or
CSV, runs the norm solver, the convergence sweeps, the proof-bound checks,
the axiom verifier and the comparison machinery, and writes CSV or JSON
reports.  No numeric logic lives here; every emitted number is reproduced
exactly by the corresponding library call.

Exit codes: 0 success, 1 invalid input or flags, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError, OrliczError
from .limits import (
    classical_p_sweep,
    convergence_rows,
    delta_relation_check,
    liminf_bound_check,
    limit_sweep,
)
from .measure import (
    DiscreteMeasure,
    SampledFunction,
    load_csv,
    quadrature_from_samples,
)
from .norm import DEFAULT_TOL, luxemburg_norm
from .young import _LOG_MAX, E0, E, YoungFunction, check_young, compare, default_grid

__all__ = ["main", "build_preset", "parse_schedule"]

_SHIFTS = {"e0": E0, "e": E}


def parse_schedule(spec: str) -> tuple[float, ...]:
    """Expand 'start:stop:points:log' (or ':lin') to a strictly increasing grid."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise InputError(f"schedule must be start:stop:points:(log|lin), got {spec!r}")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"malformed schedule {spec!r}") from exc
    spacing = parts[3].lower()
    if spacing not in ("log", "lin"):
        raise InputError(f"schedule spacing must be log or lin, got {parts[3]!r}")
    if n < 2:
        raise InputError("schedule needs at least 2 points")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise InputError(f"schedule start and stop must be finite, got {spec!r}")
    if not math.isfinite(stop - start):
        raise InputError(f"schedule span stop - start overflows, got {spec!r}")
    if not start < stop:
        raise InputError("schedule requires start < stop")
    if spacing == "log":
        if start <= 0:
            raise InputError("log schedule requires start > 0")
        vals = np.geomspace(start, stop, n)
    else:
        vals = np.linspace(start, stop, n)
    out = tuple(float(v) for v in vals)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InputError(f"schedule {spec!r} is not strictly increasing after expansion")
    return out


def build_preset(spec: str) -> tuple[DiscreteMeasure, SampledFunction]:
    """Presets covering the proof's test cases.

    indicator:m      one atom of mass m, value 1
    geometric:r:n    values r**i for i < n, unit weights
    step:L           plateau values 1..L, unit weights
    ramp:n           trapezoid quadrature of f(x) = x on [0, 1], n samples
    """
    name, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []

    def number(kind, text):
        try:
            return kind(text)
        except ValueError as exc:
            raise InputError(f"malformed preset {spec!r}") from exc

    if name == "indicator" and len(args) == 1:
        m = number(float, args[0])
        if not m > 0:
            raise InputError("indicator mass must be positive")
        return DiscreteMeasure([0.0], [m]), SampledFunction([1.0])
    if name == "geometric" and len(args) == 2:
        r, n = number(float, args[0]), number(int, args[1])
        if not r > 0 or n < 1:
            raise InputError("geometric preset needs ratio > 0 and n >= 1")
        if (n - 1) * math.log(r) > _LOG_MAX:
            raise InputError(
                f"geometric preset overflows: {r:g}**{n - 1} exceeds the double range"
            )
        coords = np.arange(n, dtype=float)
        return (
            DiscreteMeasure(coords, np.ones(n)),
            SampledFunction(r ** coords),
        )
    if name == "step" and len(args) == 1:
        levels = number(int, args[0])
        if levels < 1:
            raise InputError("step preset needs at least one level")
        coords = np.arange(levels, dtype=float)
        return (
            DiscreteMeasure(coords, np.ones(levels)),
            SampledFunction(coords + 1.0),
        )
    if name == "ramp" and len(args) == 1:
        n = number(int, args[0])
        if n < 2:
            raise InputError("ramp preset needs at least 2 samples")
        xs = np.linspace(0.0, 1.0, n)
        return quadrature_from_samples(xs, xs)
    raise InputError(
        f"unknown preset {spec!r}; expected indicator:m, geometric:r:n, step:L or ramp:n"
    )


def _load_data(args: argparse.Namespace) -> tuple[DiscreteMeasure, SampledFunction]:
    if args.preset is not None:
        return build_preset(args.preset)
    return load_csv(args.input_path)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(rows: list[dict], columns: list[str], args: argparse.Namespace) -> None:
    if args.fmt == "json":
        text = json.dumps(
            [{c: row.get(c) for c in columns} for row in rows], indent=2
        ) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row.get(c)) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)


def _run_norm(args: argparse.Namespace) -> tuple[list[dict], list[str]]:
    mu, f = _load_data(args)
    A = YoungFunction(args.p, args.q, _SHIFTS[args.shift])
    res = luxemburg_norm(A, f, mu, args.tol)
    row = {
        "value": res.value,
        "bracket_lo": res.bracket_lo,
        "bracket_hi": res.bracket_hi,
        "residual": res.residual,
        "iterations": res.iterations,
        "status": res.status.value,
    }
    return [row], list(row)


def _run_sweep(args: argparse.Namespace) -> tuple[list[dict], list[str]]:
    mu, f = _load_data(args)
    report = limit_sweep(f, mu, args.p, parse_schedule(args.q_grid), args.tol)
    rows = convergence_rows(report, key="q")
    return rows, list(rows[0])


def _run_classical(args: argparse.Namespace) -> tuple[list[dict], list[str]]:
    mu, f = _load_data(args)
    report = classical_p_sweep(f, mu, parse_schedule(args.p_grid))
    rows = convergence_rows(report, key="p")
    return rows, list(rows[0])


def _run_bounds(args: argparse.Namespace) -> tuple[list[dict], list[str]]:
    columns = [
        "q", "lambda", "lower_bound", "vacuous", "liminf_pass",
        "delta", "identity_pass", "bernoulli_pass", "pass",
    ]
    rows = []
    for q in parse_schedule(args.q_grid):
        rec = liminf_bound_check(args.m, args.p, q)
        row = {
            "q": q,
            "lambda": rec.norm_value,
            "lower_bound": rec.lower_bound,
            "vacuous": rec.vacuous,
            "liminf_pass": rec.passed,
        }
        ok = rec.passed
        if not rec.vacuous:
            dr = delta_relation_check(rec.norm_value, args.p, q)
            row.update(
                delta=dr.delta,
                identity_pass=dr.identity_ok,
                bernoulli_pass=dr.bernoulli_ok,
            )
            ok = ok and dr.passed
        row["pass"] = ok
        rows.append(row)
    return rows, columns


def _run_check_young(args: argparse.Namespace) -> tuple[list[dict], list[str]]:
    grid = parse_schedule(args.grid) if args.grid else default_grid()
    report = check_young(YoungFunction(args.p, args.q, _SHIFTS[args.shift]), grid)
    rows = [
        {"axiom": c.name, "passed": c.passed, "violation_t": c.violation_t}
        for c in report.checks
    ]
    return rows, ["axiom", "passed", "violation_t"]


def _run_compare(args: argparse.Namespace) -> tuple[list[dict], list[str]]:
    grid = parse_schedule(args.grid) if args.grid else default_grid()
    A_e0, A_e = YoungFunction(args.p, args.q, E0), YoungFunction(args.p, args.q, E)
    rows = []
    for label, a, b in (("e0_in_e", A_e0, A_e), ("e_in_e0", A_e, A_e0)):
        res = compare(a, b, grid)
        rows.append(
            {"direction": label, "c_estimate": res.c_estimate, "certified": res.certified}
        )
    return rows, ["direction", "c_estimate", "certified"]


_OPTIONS = {
    "--tol": dict(type=float, default=DEFAULT_TOL, help="solver tolerance"),
    "--m": dict(type=float, default=1.0, help="mass of the characteristic function"),
    "--p": dict(type=float, default=1.0),
    "--q": dict(type=float, default=1.0),
    "--shift": dict(choices=tuple(_SHIFTS), default="e0"),
}


def _add_command(subs, name, run, help, options=(), data=False, schedule=None, grid=None):
    """Subcommand `name`, handled by run(args), with the shared `options` in
    the order given; schedule "q" or "p" adds a required --q-grid or --p-grid,
    and grid the help of an optional --grid."""
    sub = subs.add_parser(name, help=help)
    if data:
        src = sub.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", help="indicator:m | geometric:r:n | step:L | ramp:n")
        src.add_argument("--input", dest="input_path", help="CSV file (x,weight,value or x,value)")
    if schedule is not None:
        sub.add_argument(f"--{schedule}-grid", required=True,
                         help=f"{schedule} schedule start:stop:points:(log|lin)")
    sub.add_argument("--output", help="report file (default: stdout)")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    for flag in options:
        sub.add_argument(flag, **_OPTIONS[flag])
    if grid is not None:
        sub.add_argument("--grid", help=f"{grid} grid start:stop:points:(log|lin)")
    sub.set_defaults(run=run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz",
        description="Luxemburg norms for the log-bump Young family and the q -> infinity limit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_command(subs, "norm", _run_norm, "Luxemburg norm of a function",
                 ("--tol", "--p", "--q", "--shift"), data=True)
    _add_command(subs, "sweep", _run_sweep, "norms along a q schedule (shift e0)",
                 ("--tol", "--p"), data=True, schedule="q")
    _add_command(subs, "classical", _run_classical, "p-norms along a p schedule",
                 data=True, schedule="p")
    _add_command(subs, "bounds", _run_bounds,
                 "characteristic-function lower bound and delta chain",
                 ("--m", "--p"), schedule="q")
    _add_command(subs, "check-young", _run_check_young, "verify the Young axioms on a grid",
                 ("--p", "--q", "--shift"), grid="verification")
    _add_command(subs, "compare", _run_compare,
                 "grid constants between the e0- and e-shift families; "
                 "certified covers the 64-point grid only (all t: equivalence_norm_check)",
                 ("--p", "--q"), grid="comparison")
    return parser


def main(argv=None) -> int:
    """Run one orlicz command; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _emit(*args.run(args), args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrliczError as exc:  # InputError and DomainError; any other exception is a bug
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError
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
from .norm import luxemburg_norm
from .young import E0, E, YoungFunction, check_young, compare, default_grid

__all__ = ["RunConfig", "run", "main", "build_preset", "parse_schedule"]

_SHIFTS = {"e0": E0, "e": E}


@dataclass
class RunConfig:
    """Parsed invocation: one command plus the knobs it consumes.

    Exactly one of preset / input_path may be set for data-driven commands.
    """

    command: str
    p: float = 1.0
    q: float = 1.0
    shift: str = "e0"
    q_grid: str | None = None
    p_grid: str | None = None
    grid: str | None = None
    m: float = 1.0
    tol: float = 1e-10
    preset: str | None = None
    input_path: str | None = None
    output: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if self.tol <= 0.0:
            raise InputError(f"tol must be positive, got {self.tol}")
        if self.shift not in _SHIFTS:
            raise InputError(f"shift must be one of {sorted(_SHIFTS)}, got {self.shift}")
        if self.command in ("norm", "sweep", "classical"):
            if (self.preset is None) == (self.input_path is None):
                raise InputError("exactly one of --preset or --input is required")


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
    try:
        if name == "indicator" and len(args) == 1:
            m = float(args[0])
            if m <= 0:
                raise InputError("indicator mass must be positive")
            return DiscreteMeasure([0.0], [m]), SampledFunction([1.0])
        if name == "geometric" and len(args) == 2:
            r, n = float(args[0]), int(args[1])
            if r <= 0 or n < 1:
                raise InputError("geometric preset needs ratio > 0 and n >= 1")
            coords = np.arange(n, dtype=float)
            return (
                DiscreteMeasure(coords, np.ones(n)),
                SampledFunction(r ** coords),
            )
        if name == "step" and len(args) == 1:
            levels = int(args[0])
            if levels < 1:
                raise InputError("step preset needs at least one level")
            coords = np.arange(levels, dtype=float)
            return (
                DiscreteMeasure(coords, np.ones(levels)),
                SampledFunction(coords + 1.0),
            )
        if name == "ramp" and len(args) == 1:
            n = int(args[0])
            if n < 2:
                raise InputError("ramp preset needs at least 2 samples")
            xs = np.linspace(0.0, 1.0, n)
            return quadrature_from_samples(xs, xs)
    except ValueError as exc:
        raise InputError(f"malformed preset {spec!r}") from exc
    raise InputError(
        f"unknown preset {spec!r}; expected indicator:m, geometric:r:n, step:L or ramp:n"
    )


def _load_data(cfg: RunConfig) -> tuple[DiscreteMeasure, SampledFunction]:
    if cfg.preset is not None:
        return build_preset(cfg.preset)
    return load_csv(cfg.input_path)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(rows: list[dict], columns: list[str], cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        text = json.dumps(
            [{c: row.get(c) for c in columns} for row in rows], indent=2
        ) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row.get(c)) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        Path(cfg.output).write_text(text)


def _run_norm(cfg: RunConfig) -> tuple[list[dict], list[str]]:
    mu, f = _load_data(cfg)
    A = YoungFunction.log_bump(cfg.p, cfg.q, shift=_SHIFTS[cfg.shift])
    res = luxemburg_norm(A, f, mu, cfg.tol)
    row = {
        "value": res.value,
        "bracket_lo": res.bracket_lo,
        "bracket_hi": res.bracket_hi,
        "residual": res.residual,
        "iterations": res.iterations,
        "status": res.status.value,
    }
    return [row], list(row)


def _run_sweep(cfg: RunConfig) -> tuple[list[dict], list[str]]:
    mu, f = _load_data(cfg)
    report = limit_sweep(f, mu, cfg.p, parse_schedule(cfg.q_grid), cfg.tol)
    rows = convergence_rows(report, key="q")
    return rows, list(rows[0])


def _run_classical(cfg: RunConfig) -> tuple[list[dict], list[str]]:
    mu, f = _load_data(cfg)
    report = classical_p_sweep(f, mu, parse_schedule(cfg.p_grid))
    rows = convergence_rows(report, key="p")
    return rows, list(rows[0])


def _run_bounds(cfg: RunConfig) -> tuple[list[dict], list[str]]:
    columns = [
        "q", "lambda", "lower_bound", "vacuous", "liminf_pass",
        "delta", "identity_pass", "bernoulli_pass", "pass",
    ]
    rows = []
    for q in parse_schedule(cfg.q_grid):
        rec = liminf_bound_check(cfg.m, cfg.p, q)
        row = {
            "q": q,
            "lambda": rec.norm_value,
            "lower_bound": rec.lower_bound,
            "vacuous": rec.vacuous,
            "liminf_pass": rec.passed,
        }
        ok = rec.passed
        if not rec.vacuous:
            dr = delta_relation_check(rec.norm_value, cfg.p, q)
            row.update(
                delta=dr.delta,
                identity_pass=dr.identity_ok,
                bernoulli_pass=dr.bernoulli_ok,
            )
            ok = ok and dr.passed
        row["pass"] = ok
        rows.append(row)
    return rows, columns


def _run_check_young(cfg: RunConfig) -> tuple[list[dict], list[str]]:
    grid = parse_schedule(cfg.grid) if cfg.grid else default_grid()
    if cfg.q > 0:
        A = YoungFunction.log_bump(cfg.p, cfg.q, shift=_SHIFTS[cfg.shift])
    else:
        A = YoungFunction.power(cfg.p)
    report = check_young(A, grid)
    rows = [
        {"axiom": c.name, "passed": c.passed, "violation_t": c.violation_t}
        for c in report.checks
    ]
    return rows, ["axiom", "passed", "violation_t"]


def _run_compare(cfg: RunConfig) -> tuple[list[dict], list[str]]:
    grid = parse_schedule(cfg.grid) if cfg.grid else default_grid()
    A_e0 = YoungFunction.log_bump(cfg.p, cfg.q, shift=E0)
    A_e = YoungFunction.log_bump(cfg.p, cfg.q, shift=E)
    rows = []
    for label, a, b in (("e0_in_e", A_e0, A_e), ("e_in_e0", A_e, A_e0)):
        res = compare(a, b, grid)
        rows.append(
            {"direction": label, "c_estimate": res.c_estimate, "certified": res.certified}
        )
    return rows, ["direction", "c_estimate", "certified"]


_COMMANDS = {
    "norm": _run_norm,
    "sweep": _run_sweep,
    "classical": _run_classical,
    "bounds": _run_bounds,
    "check-young": _run_check_young,
    "compare": _run_compare,
}


def run(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    try:
        cfg.validate()
        _emit(*_COMMANDS[cfg.command](cfg), cfg)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _add_common(sub, data: bool, schedule: str | None = None) -> None:
    if data:
        src = sub.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", help="indicator:m | geometric:r:n | step:L | ramp:n")
        src.add_argument("--input", dest="input_path", help="CSV file (x,weight,value or x,value)")
    if schedule == "q":
        sub.add_argument("--q-grid", required=True, help="q schedule start:stop:points:(log|lin)")
    elif schedule == "p":
        sub.add_argument("--p-grid", required=True, help="p schedule start:stop:points:(log|lin)")
    sub.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    sub.add_argument("--output", help="report file (default: stdout)")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz",
        description="Luxemburg norms for the log-bump Young family and the q -> infinity limit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("norm", help="Luxemburg norm of a function")
    _add_common(s, data=True)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--q", type=float, default=1.0)
    s.add_argument("--shift", choices=("e0", "e"), default="e0")

    s = subs.add_parser("sweep", help="norms along a q schedule (shift e0)")
    _add_common(s, data=True, schedule="q")
    s.add_argument("--p", type=float, default=1.0)

    s = subs.add_parser("classical", help="p-norms along a p schedule")
    _add_common(s, data=True, schedule="p")

    s = subs.add_parser("bounds", help="characteristic-function lower bound and delta chain")
    _add_common(s, data=False, schedule="q")
    s.add_argument("--m", type=float, default=1.0, help="mass of the characteristic function")
    s.add_argument("--p", type=float, default=1.0)

    s = subs.add_parser("check-young", help="verify the Young axioms on a grid")
    _add_common(s, data=False)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--q", type=float, default=1.0)
    s.add_argument("--shift", choices=("e0", "e"), default="e0")
    s.add_argument("--grid", help="verification grid start:stop:points:(log|lin)")

    s = subs.add_parser("compare", help="grid constants between the e0- and e-shift families")
    _add_common(s, data=False)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--q", type=float, default=1.0)
    s.add_argument("--grid", help="comparison grid start:stop:points:(log|lin)")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    fields = {k: v for k, v in vars(ns).items() if v is not None}
    cfg = RunConfig(**fields)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

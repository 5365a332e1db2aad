"""Young functions of power and log-bump type.

The log-bump family is A(t) = t**p * log(shift + t)**q; q = 0 is the power
t**p.  With shift = e - 1 the logarithm equals 1 at t = 1, so A(1) = 1 for
every (p, q); that normalization is what makes the q -> infinity norm limit
an equality rather than an equivalence.  Every log-bump is evaluated in the
log domain, as exp(p*log(t) + q*log(log(shift + t))): the direct product
leaves the double-precision exponent range long before the quantities of
interest stop being meaningful.  A log-bump needs shift > 1, so that the
log factor is positive on the whole axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericError

__all__ = [
    "E0",
    "E",
    "YoungFunction",
    "YoungAxiomReport",
    "ComparisonResult",
    "check_young",
    "compare",
    "default_grid",
]

E0 = math.e - 1.0  # log(E0 + 1) == 1
E = math.e

_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)  # exp overflows past it, and underflows to 0 silently
_GRID_SLACK = math.log1p(1e-9)  # check_young's and compare's relative slack 1e-9, in logs


@dataclass(frozen=True)
class YoungFunction:
    """A(t) = t**p * log(shift+t)**q; q = 0 is the power t**p.

    Instances are immutable and safe to share across threads.  p >= 1 and
    q >= 0 are required.  shift must be positive; the canonical choices are
    E0 = e-1 and E = e.  It does not enter when q = 0.  For q > 0 it must
    exceed 1: with shift <= 1 the log factor is nonpositive near t = 0, so
    A is not a Young function on [0, inf) and construction raises
    DomainError.
    """

    p: float
    q: float = 0.0
    shift: float = E0

    def __post_init__(self):
        p, q, shift = float(self.p), float(self.q), float(self.shift)
        if not (math.isfinite(p) and p >= 1.0):
            raise DomainError(f"exponent p must be finite and >= 1, got {self.p}")
        if not (math.isfinite(q) and q >= 0.0):
            raise DomainError(f"exponent q must be finite and >= 0, got {self.q}")
        if not (math.isfinite(shift) and shift > 0.0):
            raise DomainError(f"shift must be finite and > 0, got {self.shift}")
        if q > 0.0 and not shift > 1.0:
            raise DomainError(
                f"a log-bump (q > 0) needs shift > 1 so that log(shift + t) > 0, "
                f"got {self.shift}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "shift", shift)

    @classmethod
    def power(cls, p: float) -> "YoungFunction":
        return cls(p)

    @classmethod
    def log_bump(cls, p: float, q: float) -> "YoungFunction":
        return cls(p, q)

    def value(self, t: float) -> float:
        """A(t) for scalar t >= 0.  Values beyond the double range come back
        as math.inf (overflow) or 0.0 (underflow)."""
        return float(self.value_array(np.asarray([t], dtype=float))[0])

    def value_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized A(t) in a fresh array, t untouched; same semantics as value().

        shift > 1 keeps log(log(shift + t)) finite, so log(0) = -inf gives
        A(0) = 0 exactly.
        """
        t = np.asarray(t, dtype=float)
        if t.size and not t.min() >= 0.0:  # a NaN makes the min NaN
            raise DomainError("A(t) requires t >= 0")
        t = np.add(t, 0.0, out=np.empty_like(t))  # a copy with -0.0 made +0.0
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            if self.q == 0.0:
                return np.power(t, self.p, out=t)
            log_a = self.p * np.log(t) + self.q * np.log(np.log(t + self.shift))
            return np.exp(log_a, out=t)

    def log_value(self, t: float) -> float:
        """log A(t) for t > 0: p*log(t) + q*log(log(shift+t))."""
        if not t > 0.0:
            raise DomainError(f"log A(t) requires t > 0, got {t}")
        lv = self.p * math.log(t)
        if self.q == 0.0:
            return lv
        return lv + self.q * math.log(math.log(self.shift + t))

    def inverse(self, y: float) -> float:
        """Solve A(t) = y for finite y >= 0, to a log-residual of at most
        0.5e-12 (|A(t) - y| <= 1e-12 y), or to one ULP where the evaluation
        noise, about q * 1e-16 relative at extreme q, is larger.  Every root
        up to the largest double is found by Newton steps in log t (_solve_log),
        within 130 evaluations; a root out of reach raises NumericError.
        """
        if not 0.0 <= y < math.inf:
            raise DomainError(f"inverse requires finite y >= 0, got {y}")
        if y == 0.0:
            return 0.0
        return _solve_log(self, math.log(y))[0]


def _log_step(x: float, step: float) -> float:
    """x * exp(step), the solvers' one log-scale move, clamped against overflow only."""
    return x * math.exp(min(step, _LOG_MAX))


def _root(g, lo, hi, tol, x=None):
    """Root of increasing g on [lo, hi], 0 <= lo, where g(lo) <= 0 <= g(hi).

    The package's one root loop: evaluate a point, let the sign of g there
    replace one end of the bracket, pick the next point.  g(x) returns
    (g(x), step): the Newton step in log x, or None to bisect, and may add a
    bound on |g| at the point the step proposes.  x, when given, is evaluated
    first.  The next point is _log_step(x, step), or the next double toward
    the root where that rounds to x.  Strictly inside the bracket it is
    returned unevaluated, with the bound for g, if that meets tol; outside (nan
    included) it gives way to hi if hi was never evaluated, else to the
    midpoint, sqrt(lo * hi), so that a bracket over many decades shrinks as
    fast in relative width as a narrow one, or the arithmetic one where that
    is not strictly inside (lo = 0, or near-adjacent doubles).  Returns (x,
    g(x), lo, hi, evaluations) with the final bracket: x is the first point
    with |g(x)| <= tol, or, once no midpoint lies strictly inside the
    bracket, the end with the smaller known |g|, evaluated there if it never
    was.  From the 64th evaluation on only midpoints are taken; each halves
    the bracket's log-width, and 64 halvings take [ulp(0), DBL_MAX] to
    adjacent doubles, so with lo > 0 the loop ends within 130 evaluations.
    """
    g_lo = g_hi = math.inf  # the mark of an end never evaluated (or where g overflowed)
    evaluations = 0
    while True:
        if x is None:
            x = math.sqrt(lo) * math.sqrt(hi)
            if not lo < x < hi:
                x = lo + 0.5 * (hi - lo)
            if not lo < x < hi:
                x, g_x = (lo, g_lo) if abs(g_lo) <= abs(g_hi) else (hi, g_hi)
                if g_x == math.inf:
                    g_x = g(x)[0]
                    evaluations += 1
                return x, g_x, lo, hi, evaluations
        out = g(x)  # indexed, as a starred unpacking costs each evaluation about 0.15 us
        g_x, step = out[0], out[1]
        evaluations += 1
        if abs(g_x) <= tol:
            return x, g_x, lo, hi, evaluations
        if g_x < 0.0:
            lo, g_lo = x, g_x
        else:
            hi, g_hi = x, g_x
        if step is None or evaluations >= 64:
            x = None
            continue
        s = _log_step(x, step)  # x itself for a step below half an ULP: the next double
        x = s if s != x else math.nextafter(x, 0.0 if g_x > 0.0 else math.inf)
        if not lo < x < hi:  # nan is never inside
            x = hi if g_hi == math.inf and lo < hi else None
        elif len(out) > 2 and out[2] <= tol:  # certified by g's bound: not evaluated
            return x, out[2], lo, hi, evaluations


def _solve_log(A: YoungFunction, target: float, tol_log: float = 0.5e-12) -> tuple[float, float]:
    """(t, log A(t) - target): t > 0 with log A(t) = target, to |residual| <= tol_log or one ULP.

    One _root call on [ulp(0), DBL_MAX], Newton steps in log t from t = 1 with
    the slope d log A / d log t = p + q t / ((shift + t) log(shift + t)) >= p,
    whose first lands on the root when q = 0.  A root past either end raises
    NumericError.
    """
    def g(t):
        """(log A(t) - target, the Newton step in log t from t)."""
        r = A.log_value(t) - target
        slope = A.p + (A.q * (t / (A.shift + t)) / math.log(A.shift + t) if A.q > 0.0 else 0.0)
        return r, -r / slope

    t, res, lo, hi, _ = _root(g, math.ulp(0.0), sys.float_info.max, tol_log, x=1.0)
    if abs(res) > max(tol_log, 1e-6):
        # bracket collapsed far from the target, or the root is outside the double range
        raise NumericError(
            f"inverse did not converge: log-residual {res:.3e} at t={t!r} "
            f"(bracket [{lo!r}, {hi!r}])"
        )
    return t, res


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    violation_t: float | None = None


@dataclass(frozen=True)
class YoungAxiomReport:
    """Grid verification of the Young-function axioms."""

    zero_at_zero: AxiomCheck
    strictly_increasing: AxiomCheck
    midpoint_convex: AxiomCheck
    superlinear: AxiomCheck

    @property
    def checks(self) -> tuple[AxiomCheck, ...]:
        return (
            self.zero_at_zero,
            self.strictly_increasing,
            self.midpoint_convex,
            self.superlinear,
        )

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def default_grid() -> tuple[float, ...]:
    """64 log-spaced points from 1e-6 to 1e6, spanning both sides of the t = 1 knee."""
    return tuple(float(x) for x in np.geomspace(1e-6, 1e6, 64))


def _validate_grid(
    values, name: str = "grid", min_len: int = 1, require_sorted: bool = True
) -> list[float]:
    """Floats of values: at least min_len, finite and positive, and strictly
    increasing when require_sorted.  Raises InputError naming `name`."""
    pts = [float(t) for t in values]
    if len(pts) < min_len:
        raise InputError(f"{name} needs at least {min_len} entries")
    if any(not math.isfinite(t) or t <= 0.0 for t in pts):
        raise InputError(f"{name} entries must be finite and positive")
    if require_sorted and any(b <= a for a, b in zip(pts, pts[1:])):
        raise InputError(f"{name} must be strictly increasing")
    return pts


def check_young(A: YoungFunction, grid) -> YoungAxiomReport:
    """Verify the Young axioms of A on a sorted positive grid.

    Checks, in the log domain so that extreme q cannot overflow:
    value 0 at 0; strict increase across the grid; midpoint convexity
    A((s+t)/2) <= (A(s)+A(t))/2 on consecutive pairs, with relative slack
    1e-9; strict increase of A(t)/t on the tail t >= 1.  Each failed axiom
    reports its first violating grid point.
    """
    pts = _validate_grid(grid)
    logs = [A.log_value(t) for t in pts]

    zero_ok = A.value(0.0) == 0.0
    zero = AxiomCheck("zero_at_zero", zero_ok, None if zero_ok else 0.0)

    mono = AxiomCheck("strictly_increasing", True)
    for i in range(len(pts) - 1):
        if logs[i + 1] <= logs[i]:
            mono = AxiomCheck("strictly_increasing", False, pts[i + 1])
            break

    convex = AxiomCheck("midpoint_convex", True)
    for i in range(len(pts) - 1):
        m = 0.5 * (pts[i] + pts[i + 1])
        log_mean = float(np.logaddexp(logs[i], logs[i + 1])) - _LN2
        if A.log_value(m) > log_mean + _GRID_SLACK:
            convex = AxiomCheck("midpoint_convex", False, m)
            break

    tail = [(t, lv - math.log(t)) for t, lv in zip(pts, logs) if t >= 1.0]
    superlinear = AxiomCheck("superlinear", True)
    for (_, r0), (t1, r1) in zip(tail, tail[1:]):
        if r1 <= r0:
            superlinear = AxiomCheck("superlinear", False, t1)
            break

    return YoungAxiomReport(zero, mono, convex, superlinear)


@dataclass(frozen=True)
class ComparisonResult:
    """Grid certificate for A(t) <= B(c t).

    c_estimate is the smallest constant that works at every grid point; it
    certifies the inequality on the grid only, not for all t > 0.
    """

    c_estimate: float
    grid: tuple[float, ...]
    certified: bool


def compare(A: YoungFunction, B: YoungFunction, grid) -> ComparisonResult:
    """Smallest grid-certified c with A(t) <= B(c t) for every grid t.

    Per point the exact c_t solves B(c_t t) = A(t); the estimate is the max
    over the grid, re-verified with relative slack 1e-9.
    """
    pts = _validate_grid(grid, require_sorted=False)
    c_best, floor = 0.0, B.log_value(sys.float_info.min)
    for t in pts:
        target = A.log_value(t)  # below floor the root has too few bits: min / t bounds c_t
        s = sys.float_info.min if target <= floor else _solve_log(B, target)[0]
        c_best = max(c_best, s / t)
    certified = all(A.log_value(t) <= B.log_value(c_best * t) + _GRID_SLACK for t in pts)
    return ComparisonResult(c_best, tuple(pts), certified)

"""Young functions of power and log-bump type.

The log-bump family is A(t) = t**p * log(shift + t)**q; q = 0 is the power
t**p.  With shift = e - 1 the logarithm equals 1 at t = 1, so A(1) = 1 for
every (p, q); that normalization is what makes the q -> infinity norm limit
an equality rather than an equivalence.  Evaluation switches to the log
domain for large q, where the direct product leaves the double-precision
exponent range long before the quantities of interest stop being meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericError

__all__ = [
    "E0",
    "E",
    "YoungFunction",
    "AxiomCheck",
    "YoungAxiomReport",
    "ComparisonResult",
    "check_young",
    "compare",
    "default_grid",
]

E0 = math.e - 1.0  # log(E0 + 1) == 1
E = math.e

_Q_SWITCH = 50.0
# direct products outside [e^-700, e^700] have lost digits to over/underflow
_DIRECT_MIN = math.exp(-700.0)
_DIRECT_MAX = math.exp(700.0)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class YoungFunction:
    """A(t) = t**p * log(shift+t)**q; q = 0 is the power t**p.

    Instances are immutable and safe to share across threads.  p >= 1 and
    q >= 0 are required.  shift must be positive; the canonical choices are
    E0 = e-1 and E = e.  It does not enter when q = 0.  For shift < 1 and
    q > 0 the log factor turns nonpositive on part of the axis and
    evaluation raises DomainError there.
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "shift", shift)

    @classmethod
    def power(cls, p: float) -> "YoungFunction":
        return cls(p)

    @classmethod
    def log_bump(cls, p: float, q: float, shift: float = E0) -> "YoungFunction":
        return cls(p, q, shift)

    def value(self, t: float) -> float:
        """A(t) for scalar t >= 0.  Values beyond the double range come back
        as math.inf (overflow) or 0.0 (underflow)."""
        return float(self.value_array(np.asarray([t], dtype=float))[0])

    def __call__(self, t: float) -> float:
        return self.value(t)

    def value_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized A(t); same semantics as value().

        For q > 50 the result is exp(log A(t)).  Otherwise it is the direct
        product, recomputed as exp(log A(t)) only on the entries where the
        product falls outside [e^-700, e^700].
        """
        t = np.asarray(t, dtype=float)
        if t.size and (np.any(np.isnan(t)) or np.any(t < 0.0)):
            raise DomainError("A(t) requires t >= 0")
        out = np.zeros_like(t)
        pos = t > 0.0
        if not np.any(pos):
            return out
        tp = t[pos]
        ell = None
        if self.q != 0.0:
            ell = np.log(self.shift + tp)
            if np.any(ell <= 0.0):
                raise DomainError(
                    f"log({self.shift} + t) <= 0 on the requested points; "
                    "the log-bump form needs shift + t > 1"
                )

        def log_a(sel):
            lv = self.p * np.log(tp[sel])
            return lv if ell is None else lv + self.q * np.log(ell[sel])

        with np.errstate(over="ignore", under="ignore"):
            if self.q > _Q_SWITCH:
                vals = np.exp(log_a(...))
            else:
                vals = tp**self.p if ell is None else tp**self.p * ell**self.q
                off = ~((vals >= _DIRECT_MIN) & (vals <= _DIRECT_MAX))
                if np.any(off):
                    vals[off] = np.exp(log_a(off))
        out[pos] = vals
        return out

    def log_value(self, t: float) -> float:
        """log A(t) for t > 0: p*log(t) + q*log(log(shift+t))."""
        if not t > 0.0:
            raise DomainError(f"log A(t) requires t > 0, got {t}")
        lv = self.p * math.log(t)
        if self.q == 0.0:
            return lv
        ell = math.log(self.shift + t)
        if ell <= 0.0:
            raise DomainError(
                f"log({self.shift} + {t}) <= 0; log-domain form undefined"
            )
        return lv + self.q * math.log(ell)

    def inverse(self, y: float, tol: float = 1e-12) -> float:
        """Solve A(t) = y for t >= 0.

        Brackets the root by doubling (or halving) away from t = 1, in the
        direction A(1) vs y indicates, then bisects the bracket on the
        strictly increasing log A.  The returned t satisfies
        |A(t) - y| <= tol * max(1, y) whenever tol sits above the evaluation
        noise floor (about q * 1e-16 relative for extreme q); below that
        floor the bracket is refined to one ULP, which is the best double
        precision admits.
        """
        if not tol > 0.0:
            raise DomainError(f"tol must be positive, got {tol}")
        if not y >= 0.0:
            raise DomainError(f"inverse requires y >= 0, got {y}")
        if y == 0.0:
            return 0.0
        return _solve_log(self, math.log(y), 0.5 * tol)


def _bisect(g, lo, hi, tol, g_lo=math.inf, g_hi=math.inf):
    """Bisect increasing g on [lo, hi], where g(lo) <= 0 <= g(hi).

    Returns (x, g(x), lo, hi, evaluations) with the final bracket.  x is the
    first midpoint with |g(x)| <= tol.  Once no double lies strictly inside
    the bracket, x is the end with the smaller known |g|; g_lo and g_hi are
    the values at the starting ends, inf when not evaluated.  Every step
    shrinks the bracket to a strictly smaller set of doubles, so the loop
    ends.
    """
    evaluations = 0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            if abs(g_lo) <= abs(g_hi):
                return lo, g_lo, lo, hi, evaluations
            return hi, g_hi, lo, hi, evaluations
        g_mid = g(mid)
        evaluations += 1
        if abs(g_mid) <= tol:
            return mid, g_mid, lo, hi, evaluations
        if g_mid < 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid


def _solve_log(A: YoungFunction, target: float, tol_log: float) -> float:
    """Find t > 0 with log A(t) = target, to |residual| <= tol_log or one ULP."""

    def g(t):
        return A.log_value(t) - target

    g1 = g(1.0)
    if g1 == 0.0:
        return 1.0
    # step away from t = 1 by x2 (or x0.5) until g changes sign
    up = g1 < 0.0
    step = 2.0 if up else 0.5
    t, g_t = 1.0, g1
    while True:
        s = t * step
        if s == 0.0 or s == math.inf:
            raise NumericError(f"inverse bracket expansion left the double range (target={target})")
        g_s = g(s)
        if (g_s >= 0.0) if up else (g_s <= 0.0):
            break
        t, g_t = s, g_s
    lo, g_lo, hi, g_hi = (t, g_t, s, g_s) if up else (s, g_s, t, g_t)

    t, res, lo, hi, _ = _bisect(g, lo, hi, tol_log, g_lo, g_hi)
    if abs(res) > max(tol_log, 1e-6):
        # bracket collapsed to adjacent doubles far from the target
        raise NumericError(
            f"inverse did not converge: log-residual {res:.3e} at t={t!r} "
            f"(bracket [{lo!r}, {hi!r}])"
        )
    return t


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


def default_grid(lo: float = 1e-6, hi: float = 1e6, n: int = 64) -> tuple[float, ...]:
    """64 log-spaced points spanning both sides of the t = 1 knee."""
    return tuple(float(x) for x in np.geomspace(lo, hi, n))


def _validate_grid(grid, require_sorted: bool) -> list[float]:
    pts = [float(t) for t in grid]
    if not pts:
        raise InputError("grid must be nonempty")
    if any(not math.isfinite(t) or t <= 0.0 for t in pts):
        raise InputError("grid points must be finite and strictly positive")
    if require_sorted and any(b <= a for a, b in zip(pts, pts[1:])):
        raise InputError("grid must be strictly increasing")
    return pts


def check_young(A: YoungFunction, grid, tol: float = 1e-9) -> YoungAxiomReport:
    """Verify the Young axioms of A on a sorted positive grid.

    Checks, in the log domain so that extreme q cannot overflow:
    value 0 at 0; strict increase across the grid; midpoint convexity
    A((s+t)/2) <= (A(s)+A(t))/2 on consecutive pairs, with relative slack
    tol; strict increase of A(t)/t on the tail t >= 1.  Each failed axiom
    reports its first violating grid point.
    """
    pts = _validate_grid(grid, require_sorted=True)
    logs = [A.log_value(t) for t in pts]

    zero = AxiomCheck("zero_at_zero", A.value(0.0) == 0.0, None if A.value(0.0) == 0.0 else 0.0)

    mono = AxiomCheck("strictly_increasing", True)
    for i in range(len(pts) - 1):
        if logs[i + 1] <= logs[i]:
            mono = AxiomCheck("strictly_increasing", False, pts[i + 1])
            break

    convex = AxiomCheck("midpoint_convex", True)
    slack = math.log1p(tol)
    for i in range(len(pts) - 1):
        m = 0.5 * (pts[i] + pts[i + 1])
        log_mean = float(np.logaddexp(logs[i], logs[i + 1])) - _LN2
        if A.log_value(m) > log_mean + slack:
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


def compare(A: YoungFunction, B: YoungFunction, grid, tol: float = 1e-9) -> ComparisonResult:
    """Smallest grid-certified c with A(t) <= B(c t) for every grid t.

    Per point the exact c_t solves B(c_t t) = A(t); the estimate is the max
    over the grid, re-verified with relative slack tol.
    """
    pts = _validate_grid(grid, require_sorted=False)
    c_best = 0.0
    for t in pts:
        s = _solve_log(B, A.log_value(t), 1e-13)
        c_best = max(c_best, s / t)
    slack = math.log1p(tol)
    certified = all(A.log_value(t) <= B.log_value(c_best * t) + slack for t in pts)
    return ComparisonResult(c_best, tuple(pts), certified)

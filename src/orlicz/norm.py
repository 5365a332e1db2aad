"""Luxemburg norm on weighted atoms.

The norm is the root of the modular equation sum_i w_i A(|f_i|/lam) = 1,
which is continuous and strictly decreasing in lam wherever it is finite.
In this discrete model the infimum in the norm definition is attained, so
the solver targets the equation directly: it bisects lam in log scale
(young._bisect, the package's one root-finding rule) from an analytically
certified bracket, since lam is a positive scale whose accuracy is
relative and the bracket can span hundreds of decades.

One kernel evaluates the modular for both modular() and the solver.  With
M = max |f|, it builds the log weights c_i = log w_i + p*(log|f_i| - log M)
once per call, and an evaluation at lam sums

    exp(c_i + p*(log M - log lam) + q*log(log(shift + |f_i|/lam)))

over blocks of 2^16 atoms in one reused buffer, with no allocation and no
weight dot product.  Each term is w_i A(|f_i|/lam) computed whole in the log
domain, so a term is inf only when w_i A(|f_i|/lam) itself overflows, and 0
when it underflows; f_i = 0 gives 0.  In an evaluation where max|f|/lam
overflows, log(shift + |f_i|/lam) is taken as
logaddexp(log|f_i| - log lam, log shift).

The solver bisects only on the atoms that can move the modular.  Inside the
bracket [lo, hi], an atom with |f_i| <= cut adds at most w_i A(cut/lo), so
the atoms below cut = lo * A^{-1}(tol / (4 * support mass)) add at most
about tol/4 together; that bound is computed exactly, charged to the
tolerance, and reported with the result.  At large q this keeps only the
atoms near ess sup |f|, the pointwise domination behind the paper's upper
bound.

With at least 8 * _COARSE_BINS = 32768 atoms kept, the solver starts from a
narrower bracket.  It merges the kept atoms into _COARSE_BINS geometric bins
of log|f_i|, solves that coarse function with the same kernel and
bisection, and evaluates the full kept modular once at the coarse root
lam_c, giving m.  Every term's d log A / d log t is at least p, so the
modular falls at least as fast as lam^(-p), and the root lies in
[lam_c, lam_c * m^(1/p)] when m >= 1 and in [lam_c * m^(1/p), lam_c] when
m < 1.  That slope-certified bracket, widened by 1e-12 against rounding and
intersected with [lo, hi], holds however good the estimate is; the estimate
only decides how narrow it is.  Bisection then proceeds from it as usual,
unless m is already within tol of 1 and lam_c is the result.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NumericError
from .measure import DiscreteMeasure, SampledFunction, check_aligned
from .young import YoungFunction, _bisect

__all__ = [
    "NormStatus",
    "NormResult",
    "modular",
    "luxemburg_norm",
    "char_norm_closed_form",
    "p_norm",
]

DEFAULT_TOL = 1e-10

_BLOCK = 1 << 16  # atoms per kernel block; its 512 KB buffer stays in cache
_COARSE_BINS = 4096  # bins of the coarse start, taken at 8 * _COARSE_BINS kept atoms
_SLOPE_MARGIN = 1e-12  # relative widening of a slope-certified bracket end


class NormStatus(Enum):
    ZERO = "zero"
    FINITE = "finite"


@dataclass(frozen=True)
class NormResult:
    """Computed norm with its final bracket and a certified residual.

    residual bounds |modular(value) - 1| from above: it is the residual of
    the modular over the atoms the solver kept plus pruned_bound, the most
    the dropped atoms (total weight pruned_mass) can add anywhere in the
    bracket.  Both pruning fields are 0.0 when no atom was dropped.  The
    residual is meaningful only for FINITE status; it meets the requested
    tolerance whenever that tolerance sits above the modular's evaluation
    noise floor (about q * 1e-16 relative).
    """

    value: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int
    status: NormStatus
    pruned_mass: float = 0.0
    pruned_bound: float = 0.0


@contextmanager
def _modular_kernel(A: YoungFunction, a: np.ndarray, w: np.ndarray):
    """Yield lam -> sum_i w_i A(a_i / lam) over fixed atoms a_i >= 0, w_i > 0,
    evaluated as the module docstring describes.  The floating-point error
    state is entered once, for every call."""
    p, q = A.p, A.q
    big = float(a.max())
    log_big = math.log(big) if big > 0.0 else 0.0  # all zeros: every c_i is -inf
    log_shift = math.log(A.shift) if q > 0.0 else 0.0
    buf = np.empty(min(len(a), _BLOCK))
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        c = np.log(w)
        blocks = []
        for start in range(0, len(a), _BLOCK):
            a_blk, c_blk = a[start : start + _BLOCK], c[start : start + _BLOCK]
            t = buf[: len(a_blk)]
            np.log(a_blk, out=t)
            t -= log_big
            t *= p
            c_blk += t
            blocks.append((a_blk, c_blk, t))

        def modular_at(lam: float) -> float:
            offset = p * (log_big - math.log(lam))
            total = 0.0
            for a_blk, c_blk, t in blocks:
                if q == 0.0:
                    np.add(c_blk, offset, out=t)
                else:
                    if big / lam == math.inf:  # log(shift + a_i/lam) from logs
                        np.log(a_blk, out=t)
                        t -= math.log(lam)
                        np.logaddexp(t, log_shift, out=t)
                        np.log(t, out=t)
                        t *= q
                    else:
                        np.divide(a_blk, lam, out=t)
                        A._log_factor_into(t, t)
                    t += c_blk
                    t += offset
                total += float(np.add.reduce(np.exp(t, out=t)))
            return total

        yield modular_at


def modular(A: YoungFunction, f: SampledFunction, mu: DiscreteMeasure, lam: float) -> float:
    """sum_i w_i A(|f_i| / lam), each term computed whole in the log domain.

    A term is math.inf only when w_i A(|f_i|/lam) itself exceeds the double
    range, even where |f_i|/lam alone does; the sum is then math.inf.  A
    term below the range is 0.0, and f_i = 0 gives 0.0.
    """
    check_aligned(f, mu)
    if not lam > 0.0:
        raise DomainError(f"modular requires lam > 0, got {lam}")
    with _modular_kernel(A, np.abs(f.values), mu.weights) as modular_at:
        return modular_at(lam)


def luxemburg_norm(
    A: YoungFunction,
    f: SampledFunction,
    mu: DiscreteMeasure,
    tol: float = DEFAULT_TOL,
) -> NormResult:
    """Luxemburg norm inf{lam > 0 : modular(lam) <= 1} by log-scale bisection.

    The starting bracket is certified in closed form: with M = ess sup |f|,
    s = mass of the support and w = weight of the first atom attaining M,

        lam_hi = M / A^{-1}(1/s)   gives modular(lam_hi) <= 1,
        lam_lo = M / A^{-1}(1/w)   gives modular(lam_lo) >= 1.

    Atoms with |f_i| <= cut = lam_lo * A^{-1}(tol / (4s)) are then dropped
    (the inverse to a loose 1e-3, since the bound is recomputed exactly):
    for every lam >= lam_lo they add at most

        pruned_bound = pruned_mass * A(cut / lam_lo),   about tol/4,

    where pruned_mass is their total weight.  The atom attaining M always
    survives, since cut < lam_lo * A^{-1}(1/w) = M, so the bracket holds for
    the kept atoms too.  From 8 * _COARSE_BINS kept atoms on, the bracket is
    first narrowed around the root of the binned atoms, and one evaluation
    certifies it by the slope bound (module docstring).  Bisection at
    geometric midpoints, whose step count grows only with the log of the
    bracket's span in decades, drives the kept modular to within
    tol - pruned_bound of 1, so the full modular meets
    |modular(lam) - 1| <= tol; it falls back to the relative bracket-width
    criterion only when double precision is exhausted first.  iterations
    counts the evaluations of the kept modular, the certifying one
    included; the coarse solve's evaluations are not counted.
    """
    check_aligned(f, mu)
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    absf = np.abs(f.values)
    weights = mu.weights
    support = absf > 0.0
    if not np.any(support):
        return NormResult(0.0, 0.0, 0.0, 0.0, 0, NormStatus.ZERO)

    big = float(absf.max())
    mass_supp = float(np.sum(weights, where=support))
    w_argmax = float(weights[int(np.argmax(absf))])
    lo = big / A.inverse(1.0 / w_argmax)
    hi = big / A.inverse(1.0 / mass_supp)
    if lo > hi:  # identical in exact arithmetic when the support is one atom
        lo, hi = hi, lo

    cut = lo * A.inverse(0.25 * tol / mass_supp, tol=1e-3)
    keep = absf > cut
    pruned_mass = pruned_bound = 0.0
    if not keep.all():  # copy only when something is dropped
        pruned_mass = float(np.sum(weights, where=support & ~keep))
        if pruned_mass > 0.0:
            pruned_bound = pruned_mass * math.exp(A.log_value(cut / lo))
            assert pruned_bound <= 0.5 * tol, (pruned_bound, tol)
        absf, weights = absf[keep], weights[keep]

    lam, h, lo, hi, evaluations = _solve(A, absf, weights, lo, hi, tol - pruned_bound)
    residual = abs(h) + pruned_bound
    if residual > tol and hi - lo > tol * lam:
        raise NumericError(
            f"luxemburg_norm stalled: bracket [{lo!r}, {hi!r}], "
            f"residual {residual:.3e} > tol {tol:g}"
        )
    return NormResult(
        lam, lo, hi, residual, evaluations, NormStatus.FINITE, pruned_mass, pruned_bound
    )


def _solve(A: YoungFunction, a: np.ndarray, w: np.ndarray, lo: float, hi: float, tol: float):
    """Root of sum_i w_i A(a_i / lam) = 1 for atoms a_i > 0 in the certified
    bracket [lo, hi], to |residual| <= tol, as luxemburg_norm describes.

    Returns (lam, 1 - modular(lam), lo, hi, evaluations) with the final
    bracket; evaluations counts this function's kernel at full size only.
    With at least 8 * _COARSE_BINS atoms it first solves the binned atoms
    (_coarse_atoms) and certifies a narrower bracket around that estimate
    with one evaluation (_slope_bracket).
    """
    start = None
    if len(a) >= 8 * _COARSE_BINS:
        start = _solve(A, *_coarse_atoms(a, w), lo, hi, tol)[0]
    g_lo = g_hi = math.inf
    evaluations = 0
    with _modular_kernel(A, a, w) as modular_at:

        def g(lam):
            return 1.0 - modular_at(lam)

        if start is not None:
            m = modular_at(start)
            evaluations = 1
            lo, hi, g_lo, g_hi = _slope_bracket(start, m, A.p, lo, hi)
            if abs(1.0 - m) <= tol:
                return start, 1.0 - m, lo, hi, evaluations
        lam, h, lo, hi, steps = _bisect(g, lo, hi, tol, g_lo, g_hi)
        evaluations += steps
        if math.isinf(h):  # exhausted before either bracket end was evaluated
            h = g(lam)
            evaluations += 1
    return lam, h, lo, hi, evaluations


def _coarse_atoms(a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge atoms a_i > 0 into at most _COARSE_BINS atoms.

    The bins split [log min a, log max a] evenly; each nonempty one becomes
    an atom carrying its members' total weight at their weight-averaged
    log a_i.  The input is read in blocks of _BLOCK atoms, so nothing of
    its size is allocated.
    """
    log_lo = math.log(float(a.min()))
    width = (math.log(float(a.max())) - log_lo) / _COARSE_BINS
    scale = 1.0 / width if width > 0.0 else 0.0  # all equal: one bin
    mass = np.zeros(_COARSE_BINS)
    moment = np.zeros(_COARSE_BINS)  # sum of w_i * (position of log a_i in its bin)
    pos = np.empty(min(len(a), _BLOCK))
    idx = np.empty(len(pos), dtype=np.intp)
    with np.errstate(under="ignore"):
        for start in range(0, len(a), _BLOCK):
            a_blk, w_blk = a[start : start + _BLOCK], w[start : start + _BLOCK]
            x, i = pos[: len(a_blk)], idx[: len(a_blk)]
            np.log(a_blk, out=x)
            x -= log_lo
            x *= scale  # in bin widths, 0..._COARSE_BINS up to rounding
            np.copyto(i, x, casting="unsafe")  # truncation
            np.minimum(i, _COARSE_BINS - 1, out=i)
            mass += np.bincount(i, weights=w_blk, minlength=_COARSE_BINS)
            x -= i  # within [0, 1], so w_i * x stays in range for every w_i
            x *= w_blk
            moment += np.bincount(i, weights=x, minlength=_COARSE_BINS)
    nonempty = np.flatnonzero(mass)
    mass = mass[nonempty]
    return np.exp(log_lo + width * (nonempty + moment[nonempty] / mass)), mass


def _slope_bracket(lam: float, m: float, p: float, lo: float, hi: float):
    """The part of [lo, hi] certified to hold the root by m = modular(lam).

    Every term's d log A / d log t is at least p, so the modular falls at
    least as fast as lam^(-p): the root lies in [lam, lam * m^(1/p)] when
    m >= 1 and in [lam * m^(1/p), lam] when m < 1.  The computed end is
    widened by _SLOPE_MARGIN against rounding.  Returns (lo, hi, g_lo, g_hi)
    for _bisect, with g = 1 - m at lam and inf at the other end.  m = inf or
    0 certifies only the side of lam, and the other end stays hi or lo.
    """
    end = lam * m ** (1.0 / p)
    if m >= 1.0:
        return lam, min(hi, end * (1.0 + _SLOPE_MARGIN)), 1.0 - m, math.inf
    return max(lo, end * (1.0 - _SLOPE_MARGIN)), lam, math.inf, 1.0 - m


def char_norm_closed_form(A: YoungFunction, m: float, tol: float = 1e-12) -> float:
    """Norm of a characteristic function of mass m: 1 / A^{-1}(1/m)."""
    if not m > 0.0:
        raise DomainError(f"mass must be positive, got {m}")
    return 1.0 / A.inverse(1.0 / m, tol=tol)


def p_norm(f: SampledFunction, mu: DiscreteMeasure, p: float) -> float:
    """Weighted p-norm (sum_i w_i |f_i|^p)^(1/p), stable for large p.

    The largest |f_i| is factored out so the power sum stays in range up to
    p around 1e4 at desk scale.
    """
    check_aligned(f, mu)
    if not p >= 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    absf = np.abs(f.values)
    big = float(absf.max())
    if big == 0.0:
        return 0.0
    with np.errstate(under="ignore"):
        s = float(mu.weights @ (absf / big) ** p)
    return big * s ** (1.0 / p)

"""Luxemburg norm on weighted atoms.

The norm is the root of the modular equation sum_i w_i A(|f_i|/lam) = 1,
which is continuous and strictly decreasing in lam wherever it is finite.
In this discrete model the infimum in the norm definition is attained, so
the solver targets the equation directly from an analytically certified
bracket rather than relying on ad-hoc expansion.
"""

from __future__ import annotations

import math
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


class NormStatus(Enum):
    ZERO = "zero"
    FINITE = "finite"


@dataclass(frozen=True)
class NormResult:
    """Computed norm with its final bracket and modular residual.

    residual = |modular(value) - 1| is meaningful only for FINITE status; it
    meets the requested tolerance whenever that tolerance sits above the
    modular's evaluation noise floor (about q * 1e-16 relative).
    """

    value: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int
    status: NormStatus


def modular(A: YoungFunction, f: SampledFunction, mu: DiscreteMeasure, lam: float) -> float:
    """sum_i w_i A(|f_i| / lam); math.inf when any term overflows."""
    check_aligned(f, mu)
    if not lam > 0.0:
        raise DomainError(f"modular requires lam > 0, got {lam}")
    terms = A.value_array(np.abs(f.values) / lam)
    return float(mu.weights @ terms) if np.all(np.isfinite(terms)) else math.inf


def luxemburg_norm(
    A: YoungFunction,
    f: SampledFunction,
    mu: DiscreteMeasure,
    tol: float = DEFAULT_TOL,
) -> NormResult:
    """Luxemburg norm inf{lam > 0 : modular(lam) <= 1} by bisection.

    The starting bracket is certified in closed form: with M = ess sup |f|,
    s = mass of the support and w = weight of the first atom attaining M,

        lam_hi = M / A^{-1}(1/s)   gives modular(lam_hi) <= 1,
        lam_lo = M / A^{-1}(1/w)   gives modular(lam_lo) >= 1.

    Bisection then drives |modular(lam) - 1| <= tol, falling back to the
    relative bracket-width criterion only when double precision is
    exhausted first.
    """
    check_aligned(f, mu)
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    absf = np.abs(f.values)
    support = absf > 0.0
    if not np.any(support):
        return NormResult(0.0, 0.0, 0.0, 0.0, 0, NormStatus.ZERO)

    big = float(absf.max())
    mass_supp = float(mu.weights[support].sum())
    w_argmax = float(mu.weights[int(np.argmax(absf))])
    lo = big / A.inverse(1.0 / w_argmax)
    hi = big / A.inverse(1.0 / mass_supp)
    if lo > hi:  # identical in exact arithmetic when the support is one atom
        lo, hi = hi, lo

    lam, h, lo, hi, evaluations = _bisect(
        lambda lam: 1.0 - modular(A, f, mu, lam), lo, hi, tol
    )
    if math.isinf(h):  # exhausted before either bracket end was evaluated
        h = 1.0 - modular(A, f, mu, lam)
        evaluations += 1
    if abs(h) > tol and hi - lo > tol * lam:
        raise NumericError(
            f"luxemburg_norm stalled: bracket [{lo!r}, {hi!r}], "
            f"residual {abs(h):.3e} > tol {tol:g}"
        )
    return NormResult(lam, lo, hi, abs(h), evaluations, NormStatus.FINITE)


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

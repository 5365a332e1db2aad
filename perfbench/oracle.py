"""Independent references for the benchmark's output checks.

Nothing here calls the library.  The Luxemburg norm lam of atoms (a_i, w_i)
under A(t) = t**p * log(e0 + t)**q solves F(v) = 0 with

    F(v) = log sum_i w_i A(a_i / (M e^v)),   M = max a_i,   lam = M e^v,

so v = log(lam / M) is the gap coordinate: lam - M = M expm1(v) keeps full
relative precision even when the gap is 1e-15 of M.  F is strictly
decreasing, and the root is found by Newton steps kept inside a bisection
bracket, stopped when the step is below a tolerance relative to v itself
(an absolute tolerance would swamp gaps of 1e-15 and below).

Two precisions share that solver: mpmath at 60 digits for small functions,
and numpy's 80-bit long double (64-bit mantissa, resolution ~1e-19) for
functions of 1e4 to 1e6 atoms, where mpmath would take minutes per point.
The shift e0 is the double nearest e - 1, the value the library's log-bump
family is defined with, so both sides solve the same equation.
"""

from __future__ import annotations

import math

import numpy as np

E0 = math.e - 1.0
_MAX_STEPS = 400


def _root(F, start, step, rel_tol):
    """Root of a strictly decreasing F(v) -> (value, derivative).

    The bracket grows from `start` by doubling steps, then Newton steps run
    inside it, falling back to bisection whenever a step leaves it.
    """
    f0, _ = F(start)
    if f0 == 0:
        return start
    direction = 1 if f0 > 0 else -1
    lo = hi = start
    for _ in range(_MAX_STEPS):
        v = start + direction * step
        fv, _ = F(v)
        if (fv > 0) == (direction > 0):
            lo, hi = (v, hi) if direction > 0 else (lo, v)
            step *= 2
            continue
        lo, hi = (lo, v) if direction > 0 else (v, hi)
        break
    else:
        raise ArithmeticError("oracle bracket expansion failed")
    v = lo + (hi - lo) / 2
    for _ in range(_MAX_STEPS):
        fv, dv = F(v)
        if fv == 0:
            return v
        if fv > 0:
            lo = v
        else:
            hi = v
        nxt = v - fv / dv
        if abs(nxt - v) <= rel_tol * abs(nxt):
            return nxt
        v = nxt if lo < nxt < hi else lo + (hi - lo) / 2
        if not hi - lo > rel_tol * abs(v):
            return v
    raise ArithmeticError("oracle root search did not converge")


def gap_mp(a, w, p, q, dps=60):
    """(lam - M) / M to `dps` digits for a small function, via mpmath."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    a = [ctx.mpf(float(x)) for x in a]
    big = max(a)
    e0 = ctx.mpf(E0)
    lw = [ctx.log(ctx.mpf(float(x))) for x in w]
    lr = [ctx.log(x / big) for x in a]
    p, q = ctx.mpf(float(p)), ctx.mpf(float(q))

    def F(v):
        logs, slopes = [], []
        for lwi, lri in zip(lw, lr):
            t = ctx.exp(lri - v)
            s = e0 + t
            ell = ctx.log(s)
            logs.append(lwi + p * (lri - v) + q * ctx.log(ell))
            slopes.append(-p - q * t / (s * ell))
        top = max(logs)
        terms = [ctx.exp(x - top) for x in logs]
        total = ctx.fsum(terms)
        return top + ctx.log(total), ctx.fsum(x * d for x, d in zip(terms, slopes)) / total

    zero = ctx.mpf(0)
    return ctx.expm1(_root(F, zero, 1 / abs(F(zero)[1]), ctx.mpf(10) ** (20 - dps)))


def _numpy_F(a, w, p, q, dtype):
    a = np.asarray(a, dtype=dtype)
    r = a / a.max()
    lw_lr = np.log(np.asarray(w, dtype=dtype)) + p * np.log(r)
    e0 = dtype(E0)

    def F(v):
        t = r * np.exp(-v)
        s = e0 + t
        ell = np.log(s)
        logs = lw_lr - p * v + q * np.log(ell)
        top = logs.max()
        terms = np.exp(logs - top)
        total = terms.sum()
        return top + np.log(total), (terms * (-p - q * t / (s * ell))).sum() / total

    return F


def gap_longdouble(a, w, p, q):
    """(lam - M) / M in long double for functions too large for mpmath.

    A double-precision solve finds the root to about 1e-10; the long-double
    solve then brackets and polishes it to 1e-14 relative in a few
    evaluations, which is near the long double's own noise floor at
    q = 1e5 and three orders below the errors being measured.
    """
    if np.finfo(np.longdouble).eps > 1e-18:
        raise RuntimeError("the large-function oracle needs an 80-bit long double")
    F = _numpy_F(a, w, p, q, np.float64)
    v = _root(F, 0.0, 1 / abs(F(0.0)[1]), 1e-10)
    ld = np.longdouble
    v = _root(_numpy_F(a, w, ld(p), ld(q), ld), ld(v), ld(abs(v) * 1e-10), ld(1e-14))
    return np.expm1(v)


def gap_rel_error(lam, a, w, p, q, precise):
    """Relative error of the gap lam - max(a) against the chosen oracle."""
    big = float(max(a))
    if precise:
        import mpmath

        g = gap_mp(a, w, p, q)
        return float(abs((mpmath.mpf(lam) - big) / big - g) / abs(g))
    g = gap_longdouble(a, w, p, q)
    return float(abs((np.longdouble(lam) - big) / big - g) / abs(g))


def modular_residual(a, w, p, q, lam):
    """|sum_i w_i A(a_i / lam) - 1| in plain double-precision numpy."""
    t = np.asarray(a, dtype=float) / lam
    logs = np.log(w) + p * np.log(t) + q * np.log(np.log(E0 + t))
    top = logs.max()
    return abs(math.expm1(top + math.log(np.exp(logs - top).sum())))


def residual_allowance(p, q, tol):
    """Largest residual the library's contract admits: tol, or the modular's
    evaluation noise floor when that is larger.  The floor is taken as
    8 (p + q) ulps; the largest residual seen above tol, over 768 q-ladder
    solves, was 1.5 (p + q) ulps."""
    return max(tol, 8.0 * (p + q) * np.finfo(float).eps)

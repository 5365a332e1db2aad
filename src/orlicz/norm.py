"""Luxemburg norm on weighted atoms.

The norm is the root of the modular equation sum_i w_i A(|f_i|/lam) = 1,
which is continuous and strictly decreasing in lam wherever it is finite.
In this discrete model the infimum in the norm definition is attained, so
the solver targets the equation directly, in log scale from an
analytically certified bracket, since lam is a positive scale whose
accuracy is relative and the bracket can span hundreds of decades.  The
package's one root loop, young._root, narrows that bracket: it bisects, or
on inputs of 2^10 atoms or more evaluates Newton proposals that land inside it.

Every pass over N atoms runs on one partition, _blocks(N): ceil(N / 2^16)
blocks of equal size, the last one shorter, which depends on N alone.  The
set-up's memory-bound passes run on the calling thread; the kernel shares
its blocks among min(CPUs, blocks) threads, so from 2^16 + 1 atoms two
CPUs share the work.  From two threads on, the kernel makes its
one thread pool, whose threads and the caller each take the next block not
yet taken, in parallel since numpy's ufuncs release the GIL.  Results come
back in block order and sums are added in it, so the thread count changes
no result.

The set-up's first pass takes each block's maximum and minimum, then the
top atom in the first block attaining M = max |f|; a second, after the
pruning cut, visits only the blocks whose maximum is above it, gathering
the kept atoms in block order, and masks none whose minimum is above it
too.  At large q only the atoms near ess sup |f| are kept: the pointwise
domination behind the paper's upper bound.

One kernel evaluates the modular for modular(), p_norm() and the solver,
on atoms >= 0: each caller passes |f_i|, an N-sized copy only where some
f_i < 0 and, in the solver, nothing is pruned.  It builds c_i = log w_i +
p*(log|f_i| - log M) once per call, and an evaluation at lam sums

    exp(c_i + p*(log M - log lam) + q*log(log(shift + |f_i|/lam)))

over the blocks with no allocation.  Each term is w_i A(|f_i|/lam) computed
whole in the log domain, so it is inf only when that itself overflows, and
0 when it underflows; f_i = 0 gives 0.  Where max|f|/lam overflows,
log(shift + |f_i|/lam) is taken as logaddexp(log|f_i| - log lam, log shift).

At q = 1, the Zygmund t^p log(shift + t), the solver's kernel stores instead
b_i = exp(c_i + p*(log M - log lo)) = w_i (|f_i|/lo)^p, lo the bracket's lower
end, and sums (lo/lam)^p * sum_i b_i L_i, L_i = log(shift + |f_i|/lam): one log
per atom and no exp.  It takes this base form where mass (M/lo)^p >= sum_i b_i
is below e^700, so that no sum of b_i L_i <= 710 b_i overflows; the factor is
normal, as p log(hi/lo) = log(mass (M/lo)^p) + log L(M/hi) <= 706.6 (A(M/lo) =
1/w_top, A(M/hi) = 1/mass).  A b_i that underflows errs by under 3e-324.

On an input of at least _NEWTON_MIN_ATOMS atoms, however few are kept,
each evaluation returns the Newton step in log lam, log S / F', which
young._root turns into a point.  By the delta substitution the slope
d log A / d log t = p + q t / ((shift + t) log(shift + t)) is closed form,
so the kernel sums the modular's slope in the same pass, and the loop
starts at lo, where the modular is >= 1, so that evaluating it cannot
move the bracket and only proposes the first step.  From _SEED_MIN_ATOMS
kept atoms that step comes instead from the modular and its slope at lo on
a strided sample of about 2^11 of them (_seed), and the loop starts there
if it lies inside the bracket: one full evaluation fewer.  Smaller inputs
bisect: the benchmark keeps a record per q-ladder call (2-32 atoms), so a
speed-up there reads as a peak_rss_mb regression, and on small inputs the
gaps |norm - M| that limit_sweep compares at large q are where bisection stops.

The last Newton point is certified, not evaluated (Newton-Kantorovich).  In
u = log(M/lam), F = log S has F'' = q^2 Var_pi(r) + q E_pi[t r'], pi_i =
term_i/S, r = t/((shift + t) log(shift + t)); x log x >= x - 1 gives 0 <= r <
1 for shift > 1, and t r' = r (shift/(shift + t) - r) lies in (-1, 1/4], so
|F''| <= B2 = q (q/4 + 1).  At the Newton point |F| <= B2 step^2/2 + e, e the
rounding of F, slope, step and point; the loop returns it unevaluated where it
is inside the bracket, expm1 of that meets tol - pruned_bound, and the last
evaluation's Taylor prediction of this one held: a wrong slope certifies nothing.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NumericError
from .measure import DiscreteMeasure, SampledFunction, check_aligned, ess_sup
from .young import YoungFunction, _log_step, _root, _solve_log

__all__ = [
    "NormStatus",
    "NormResult",
    "modular",
    "luxemburg_norm",
    "char_norm_closed_form",
    "p_norm",
]

DEFAULT_TOL = 1e-10

_BLOCK = 1 << 16  # most atoms per block; a kernel block's 512 KB buffer stays in cache
# input atoms from which the solver takes Newton steps, pruned or not; smaller
# inputs bisect for q-ladder's per-call records and limit_sweep's gaps (module docstring)
_NEWTON_MIN_ATOMS = 1 << 10
# kept atoms from which the first step comes from a strided sample of about
# _SEED_SAMPLE of them, not from an evaluation at lo (module docstring)
_SEED_MIN_ATOMS, _SEED_SAMPLE = _BLOCK + 1, 1 << 11


class NormStatus(Enum):
    ZERO = "zero"
    FINITE = "finite"


@dataclass(frozen=True)
class NormResult:
    """Computed norm with its final bracket and residual.

    residual is the computed |modular(value) - 1| over the kept atoms plus
    pruned_bound, the most the dropped atoms (total weight pruned_mass,
    atoms with f_i = 0 included) can add anywhere in the bracket;
    luxemburg_norm says how both are formed, and both are 0.0 when no atom
    was dropped.  The exact |modular(value) - 1| can exceed it by the kernel's
    evaluation error, about q * 1e-16, except at a Newton point accepted
    unevaluated, where it is the bound expm1(B2 step^2/2 + e) + pruned_bound
    (module docstring).  It is meaningful only for FINITE status, where it meets
    the requested tolerance whenever that sits above that evaluation noise floor.
    """

    value: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int
    status: NormStatus
    pruned_mass: float = 0.0
    pruned_bound: float = 0.0


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _blocks(n: int) -> list[slice]:
    """range(n) as ceil(n / _BLOCK) slices of equal size, the last one shorter."""
    size = -(-n // -(-n // _BLOCK))
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _ess_sup(f: np.ndarray) -> tuple[int, float, list, list]:
    """(top, M, maxima of |f|, minima of f per block of _blocks): M = max |f|, top
    its first atom, as np.argmax(np.abs(f)) finds it: the first argmax of |f| in the
    first block attaining M.  np.argmax would copy each block of a read-only f; the
    reductions do not."""
    blocks, maxima, minima = _blocks(len(f)), [], []
    for blk in blocks:
        minima.append(float(np.minimum.reduce(f[blk])))
        maxima.append(max(float(np.maximum.reduce(f[blk])), -minima[-1]))
    b = maxima.index(max(maxima))
    top = blocks[b].start + int(np.argmax(np.abs(f[blocks[b]])))
    return top, maxima[b], maxima, minima


@contextmanager
def _modular_kernel(A: YoungFunction, a: np.ndarray, w: np.ndarray, big: float, slope=False,
                    ref=None):
    """Yield lam -> (S, D) over fixed atoms a_i >= 0, w_i > 0 with max a_i = big:
    S = sum_i w_i A(a_i / lam), evaluated as the module docstring describes,
    and with slope D = sum_i term_i * (p + q r_i), each term times its
    d log A / d log t, from the same block buffers, else None.  S is the same
    bit for bit either way.  Callers pass |f|: the kernel takes no absolute value.
    ref, given only at q = 1, is the least lam to be evaluated: the kernel then
    takes the base form (module docstring), whose range the caller checks."""
    p, q = A.p, A.q
    log_big = math.log(big) if big > 0.0 else 0.0  # all zeros: every c_i is -inf
    log_shift = math.log(A.shift) if q > 0.0 else 0.0
    two_buffers = slope and q > 0.0  # the slope sum keeps r_i apart from the term
    c, blocks = np.empty(len(a)), _blocks(len(a))
    base = ref is not None  # b_i in place of c_i

    def thread_views():
        """Every block as (w_blk, a_blk, c_blk, t, term), t and term in one
        thread's buffers of one block: term is t unless the slope needs both."""
        buf = np.empty(blocks[0].stop)
        ell = np.empty(len(buf)) if two_buffers else None
        ts = [buf[: b.stop - b.start] for b in blocks]
        return [(w[b], a[b], c[b], t, t if ell is None else ell[: len(t)])
                for b, t in zip(blocks, ts)]

    def set_up(view):
        """c_i = log w_i + p*(log a_i - log M) over the block, or b_i in base form."""
        w_blk, a_blk, c_blk, t, _ = view
        np.log(w_blk, out=c_blk)
        np.log(a_blk, out=t)
        t -= log_big
        t *= p
        c_blk += t
        if base:
            np.exp(np.add(c_blk, p * (log_big - math.log(ref)), out=c_blk), out=c_blk)

    offset = lam = 0.0  # the point of the evaluation under way, set by modular_at

    def block_sums(view):
        """(sum of the block's terms, sum of its terms times r_i) at lam, in
        base form each without the common factor (ref/lam)^p."""
        _, a_blk, c_blk, t, term = view
        if q == 0.0:
            term = np.add(c_blk, offset, out=t)
        else:
            # with slope the term goes to the second buffer and t ends as
            # t / (shift + t), then r = t / ((shift + t) L), L = log(shift + t)
            if big / lam == math.inf:  # L = log(shift + a_i/lam) from logs
                np.log(a_blk, out=t)
                t -= math.log(lam)
                np.logaddexp(t, log_shift, out=term)
                if slope:
                    np.exp(np.subtract(t, term, out=t), out=t)
            else:
                np.divide(a_blk, lam, out=t)
                np.add(t, A.shift, out=term)
                if slope:
                    t /= term
                np.log(term, out=term)
            if base:  # b_i L_i, and b_i L_i r_i = b_i t / (shift + t)
                total = float(np.add.reduce(np.multiply(term, c_blk, out=term)))
                return total, float(np.add.reduce(np.multiply(t, c_blk, out=t))) if slope else 0.0
            if slope:
                t /= term  # r, while L is still in a buffer
            np.log(term, out=term)
            term *= q
            term += c_blk
            term += offset
        total = float(np.add.reduce(np.exp(term, out=term)))
        return total, float(np.add.reduce(np.multiply(t, term, out=t))) if two_buffers else 0.0

    threads = min(len(blocks), _cpus())
    views = [thread_views() for _ in range(threads)]
    pool = None
    if threads > 1:
        # imported here: at module level it would cost every orlicz process ~7 ms
        from concurrent.futures import ThreadPoolExecutor

        pool, lock = ThreadPoolExecutor(threads - 1), threading.Lock()

    def each_block(task):
        """task(view) for every block, in block order.  On one thread it is
        map(), run as the caller iterates; on more, the pool's threads and
        the caller each take the next block not yet taken, before return."""
        if pool is None:
            return map(task, views[0])
        results = [None] * len(views[0])
        untaken = iter(range(len(results)))

        def work(blocks):
            # numpy keeps the error state per thread: enter the kernel's
            with np.errstate(over="ignore", under="ignore", divide="ignore"):
                while True:
                    with lock:
                        k = next(untaken, None)
                    if k is None:
                        return
                    results[k] = task(blocks[k])

        futures = [pool.submit(work, blocks) for blocks in views[1:]]
        work(views[0])
        for future in futures:
            future.result()
        return results

    def modular_at(at: float):
        nonlocal offset, lam
        lam, offset = at, p * (log_big - math.log(at))
        total = weighted = 0.0
        for s, d in each_block(block_sums):  # in block order
            total += s
            weighted += d
        if base:  # times (ref/lam)^p, normal in the caller's bracket
            scale = math.exp(p * (math.log(ref) - math.log(at)))
            total, weighted = total * scale, weighted * scale
        return total, p * total + q * weighted if slope else None

    try:
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            list(each_block(set_up))  # runs every block's set-up
            yield modular_at
    finally:
        if pool is not None:
            pool.shutdown()


def modular(A: YoungFunction, f: SampledFunction, mu: DiscreteMeasure, lam: float) -> float:
    """sum_i w_i A(|f_i| / lam), each term computed whole in the log domain.

    A term is math.inf only when w_i A(|f_i|/lam) itself exceeds the double
    range, even where |f_i|/lam alone does; the sum is then math.inf.  A
    term below the range is 0.0, and f_i = 0 gives 0.0.
    """
    check_aligned(f, mu)
    if not lam > 0.0:
        raise DomainError(f"modular requires lam > 0, got {lam}")
    _, big, _, minima = _ess_sup(f.values)
    a = np.abs(f.values) if min(minima) < 0.0 else f.values
    with _modular_kernel(A, a, mu.weights, big) as modular_at:
        return modular_at(lam)[0]


def luxemburg_norm(
    A: YoungFunction,
    f: SampledFunction,
    mu: DiscreteMeasure,
    tol: float = DEFAULT_TOL,
) -> NormResult:
    """Luxemburg norm inf{lam > 0 : modular(lam) <= 1} by a bracketed root search.

    The starting bracket is certified in closed form: with M = ess sup |f|,
    s = total mass and w = weight of the first atom attaining M,

        lam_hi = M / A^{-1}(1/s)   gives modular(lam_hi) <= (support mass) / s <= 1,
        lam_lo = M / A^{-1}(1/w)   gives modular(lam_lo) >= 1.

    Each inverse t solves log A(t) = log(1/w) to a log-residual res; as
    d log A / d log t >= p, the exact inverse is within (|res| + delta)/p of
    log t, delta bounding the rounding of res: 2^-50 (|p log t| + |log w| +
    q (|log L| + 1 + 1/L)), L = log(shift + t), plus 2 (N - 1) u for s, a sum
    of N weights.  Each end moves outward by that and 2^-50 more for its own
    roundings, to at most the largest double, so lam_lo <= root <= lam_hi.

    Atoms with |f_i| <= cut = lam_lo * A^{-1}(tol / (4s)) are then dropped,
    atoms with f_i = 0 among them.  The inverse is solved to a log-residual
    of 0.5e-3 only: pruned_bound is recomputed from the cut, and at 0.5e-12
    the cut took 5.2 log_value calls, not 2.8, on the q-ladder benchmark's
    inputs, where 5 of 96 solves at q = 1e10 met the evaluation noise and
    raised NumericError.  For every lam >= lam_lo the dropped atoms add at most

        pruned_bound = pruned_mass * (1 + 4 N u) * A(cut / lam_lo),   about tol/4,

    where pruned_mass is their total weight, unrounded: the total mass less
    the kept mass, or, when more than half the mass is kept and that would
    cancel, the dropped weights summed directly.  A sum of N terms >= 0 errs
    by at most (N - 1) u relative (u = 2^-53) and the difference by at most
    3 (N - 1) u + u, so pruned_bound, taken from pruned_mass rounded up by
    4 N u, stays a bound.  A cut below the normal range has too few bits to
    bound what it drops, so it is taken as 0, dropping only atoms with f_i = 0.
    A normal cut lies below lam_lo * A^{-1}(1/w) <= M, as tol / (4s) < 1/w
    (w <= s, and a tol outside (0, 1) raises DomainError) and A^{-1}
    increases, so the atom attaining M survives and the bracket holds for
    the kept atoms too; a lam_lo that is not a positive finite double (0 on
    underflow, nan where M / A^{-1}(1/w) overflows) raises NumericError.
    The root loop (module docstring) drives the kept modular to within
    tol - pruned_bound of 1, or certifies that it does, so the full modular
    meets |modular(lam) - 1| <= tol, unless the bracket collapses to adjacent
    doubles first.  A bracket no wider than tol * lam then comes back FINITE
    with its residual, which exceeds tol where the evaluation noise (about q
    * 1e-16) does, unless hi is the capped largest double and the modular at
    lam exceeds 1 + tol: the norm exceeds the double range, and NumericError
    says so.  Otherwise NumericError comes only from the inverses or from a
    residual above tol with a bracket still wider than tol * lam, which takes
    a tol near one ULP.  A residual within tol narrows the bracket to lam
    exp(+-(r/floor + 2^-50)), r = |log S| + eps (_log_sum_error): F' >= p in u
    puts the root within r/p of lam, and there a Newton solve whose slope was
    last evaluated as F'_k at u_k has F' >= F'_k (1 - 2 eps - 2^-50) - B2 (|u -
    u_k| + r/p); floor is the larger.  iterations counts the evaluations of the
    kept modular, each over every kept atom, not the inverses behind the
    bracket and the cut, nor the seed's sample.
    """
    check_aligned(f, mu)
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must be positive and below 1, got {tol}")
    top, big, maxima, minima = _ess_sup(f.values)
    if big == 0.0:
        return NormResult(0.0, 0.0, 0.0, 0.0, 0, NormStatus.ZERO)

    mass = mu.total_mass
    lo, hi = _closed_form_bracket(A, big, float(mu.weights[top]), mass, len(f))
    if not 0.0 < lo < math.inf:  # nan where big / t overflows and its margin underflows exp
        raise NumericError(f"luxemburg_norm: bracket [{lo!r}, {hi!r}] underflows, or leaves "
                           "the double range, at its lower end")
    y = 0.25 * tol / mass
    cut = lo * _solve_log(A, math.log(y), 0.5e-3)[0] if y > 0.0 else 0.0
    if cut < sys.float_info.min:  # a subnormal cut has too few bits to bound what it drops
        cut = 0.0
    values, weights, kept_mass = f.values, mu.weights, mass  # the kernel's if nothing is dropped
    pruned_mass = pruned_bound = 0.0
    kept = []  # per block above the cut: (block, indices of its atoms |f_i| > cut, None for all)
    for blk, block_max, block_min in zip(_blocks(len(f)), maxima, minima):
        if block_min > cut:  # f_i >= block_min > cut >= 0 for all: no mask
            kept.append((blk, None))
        elif block_max > cut:  # else the block holds none
            keep = np.greater(np.abs(values[blk]) if block_min < 0.0 else values[blk], cut)
            kept.append((blk, None if keep.all() else blk.start + keep.nonzero()[0]))
    keep = None  # the last block's mask is freed before the kernel allocates
    if len(kept) < len(maxima) or any(k is not None for _, k in kept):  # something dropped
        index = [np.arange(blk.start, blk.stop) if k is None else k for blk, k in kept]
        index = index[0] if len(index) == 1 else np.concatenate(index)
        values, weights = f.values[index], mu.weights[index]
        kept_mass = float(weights.sum())
        if kept_mass <= 0.5 * mass:  # at least mass/2 is dropped: no cancellation
            pruned_mass = mass - kept_mass
        else:
            dropped = np.ones(len(f), dtype=bool)
            dropped[index] = False
            pruned_mass = float(np.sum(mu.weights, where=dropped))
        if cut > 0.0:  # else only atoms with f_i = 0 were dropped, and they add 0
            rounded_up = pruned_mass * (1.0 + len(f) * 2.0**-51)  # times 1 + 4 N u
            pruned_bound = rounded_up * math.exp(A.log_value(cut / lo))
            assert pruned_bound <= 0.5 * tol, (pruned_bound, tol)
    if min(minima) < 0.0:  # the kernel takes |f|
        values = np.abs(values)

    start = lo if len(f) >= _NEWTON_MIN_ATOMS else None
    if len(values) >= _SEED_MIN_ATOMS:
        x = _seed(A, values, weights, big, float(mu.weights[top]), kept_mass, lo)
        start = x if lo < x < hi else lo
    # the kernel's base form at q = 1, where mass (M/lo)^p >= sum_i b_i is in range (module doc)
    ref = lo if A.q == 1.0 and math.log(mass) + A.p * math.log(big / lo) <= 700.0 else None
    b2, last = A.q * (0.25 * A.q + 1.0), []  # |F''| <= B2; [(lam, F, F', e)] of the last evaluation
    if start is not None:  # eps >= the rounding of log S in [lo, hi], and of a point as F' < p + q
        eps = _log_sum_error(A, big, lo, len(values), ref is not None)
        eps += (A.p * math.log(hi / lo) + 0.5 * (A.p + A.q)) * 2.0**-50
    with _modular_kernel(A, values, weights, big, start is not None, ref) as modular_at:
        def g(lam):  # (1 - S at lam, the Newton step in log lam or, to bisect, None[, a bound
            s, d = modular_at(lam)  # on |1 - S| at the step's point])
            if d is None or not 0.0 < s < math.inf:
                return 1.0 - s, None if d is None else math.nan
            f, slope, bound = math.log(s), d / s, math.inf
            step, e = f / slope, eps + abs(f) * (2.0 * eps + 2.0**-50)  # and the slope and step
            for lam0, f0, slope0, e0 in last:  # if the last evaluation's Taylor prediction held
                du = math.log(lam0 / lam)
                if abs(f - f0 - slope0 * du) <= 0.5 * b2 * du * du + e + e0:  # expm1(1) > tol
                    bound = math.expm1(min(0.5 * b2 * step * step + e, 1.0))
            last[:] = [(lam, f, slope, e)]
            return 1.0 - s, step, bound

        lam, h, lo, hi, evaluations = _root(g, lo, hi, tol - pruned_bound, x=start)
    residual = abs(h) + pruned_bound
    if hi == sys.float_info.max and h < -tol:  # S > 1 + tol below the cap: the root is past it
        raise NumericError(f"luxemburg_norm: the norm exceeds the double range: modular {1.0 - h!r}")
    if residual > tol and hi - lo > tol * lam:
        raise NumericError(
            f"luxemburg_norm stalled: bracket [{lo!r}, {hi!r}], "
            f"residual {residual:.3e} > tol {tol:g}"
        )
    if residual <= tol:  # F' >= p, so the root is within r/p of lam in u, and F' >= floor there
        eps = eps if last else _log_sum_error(A, big, lam, len(values), ref is not None)
        r, floor = abs(math.log1p(-h)) + eps, A.p
        for lam0, _, slope0, _ in last:  # F' >= F'_k - B2 |u - u_k|
            reach = abs(math.log(lam / lam0)) + 2.0**-51 + r / A.p
            floor = max(floor, slope0 * (1.0 - 2.0 * eps - 2.0**-50) - b2 * reach)
        m = r / floor + 2.0**-50
        lo, hi = max(lo, _log_step(lam, -m)), min(hi, _log_step(lam, m))
    return NormResult(
        lam, lo, hi, residual, evaluations, NormStatus.FINITE, pruned_mass, pruned_bound
    )


def _closed_form_bracket(A: YoungFunction, big: float, w_top: float, mass: float, n: int):
    """(lo, hi): big / A^{-1}(1/w) for w = w_top and for w = mass, a sum of n
    weights, each moved outward past its exact value as luxemburg_norm says."""
    ends = []
    for w, sum_error, side in ((w_top, 0.0, -1.0), (mass, (n - 1) * 2.0**-52, 1.0)):
        target = -math.log(w)
        t, res = _solve_log(A, target)
        L = math.log(A.shift + t) if A.q > 0.0 else 1.0  # a power's shift may be <= 1
        noise = abs(A.p * math.log(t)) + abs(target) + A.q * (abs(math.log(L)) + 1.0 + 1.0 / L)
        margin = (abs(res) + sum_error + 2.0**-50 * noise) / A.p + 2.0**-50
        ends.append(min(_log_step(big / t, side * margin), sys.float_info.max))
    return tuple(ends)


def _log_sum_error(A: YoungFunction, big: float, lam: float, n: int, base=True) -> float:
    """eps >= the kernel's rounding error in log S at lam over n kept atoms,
    derived as _closed_form_bracket's: 2u per rounding in the sum (n - 1 in any order, at most
    log2(size) + 20 per block of size atoms in numpy's pairwise add.reduce, which tests pin,
    and one per block sum), and for a term 2^-50 (|log w_i| + p (|log a_i| + 2 |log M| + |log
    lam|) + q (|log L_i| + 1 + 1/L_i)), |log| <= 745 for a double, log shift <= L_i <= L(M).
    base says a q = 1 solve took the base form: b_i's exponent and the factor
    exp(p (log lo - log lam)) each add p |log lo| <= 745 p."""
    noise = 745.0 + A.p * (745.0 + 2.0 * abs(math.log(big)) + abs(math.log(lam)))
    if A.q > 0.0:  # L(M) is inf where M/lam overflows, and so is eps
        low, top = math.log(A.shift), math.log(A.shift + big / lam)
        noise += A.q * (max(abs(math.log(low)), abs(math.log(top))) + 1.0 + 1.0 / low)
        noise += 1490.0 * A.p if base and A.q == 1.0 else 0.0
    blocks = -(-n // _BLOCK)
    return min(n - 1, math.log2(-(-n // blocks)) + 20.0 + blocks) * 2.0**-52 + 2.0**-50 * noise


def _seed(A, values, weights, big, w_top, kept_mass, lo):
    """The Newton point from lo on a strided sample of about _SEED_SAMPLE kept
    atoms, scaled to the kept mass less the top atom's weight, whose largest
    gives way to the top atom at its own weight.  Its kernel is freed on return."""
    k = len(values) // _SEED_SAMPLE
    a, w = values[::k].copy(), weights[::k] * ((kept_mass - w_top) / float(weights[::k].sum()))
    j = int(np.argmax(a))
    a[j], w[j] = big, w_top
    with _modular_kernel(A, a, w, big, slope=True) as sample_at:
        return _log_step(lo, _newton_step(*sample_at(lo)))


def _newton_step(s: float, d: float) -> float:
    """The Newton step log S / (D / S) in log lam from the modular S = s and its slope
    D = d, as F = log S increases in u = log(M / lam) with F' = D / S; nan where S is 0 or inf."""
    return math.log(s) / (d / s) if 0.0 < s < math.inf else math.nan


def char_norm_closed_form(A: YoungFunction, m: float) -> float:
    """Norm of a characteristic function of mass m: 1 / A^{-1}(1/m), the
    inverse solved as log A(t) = -log m, so 1/m may overflow."""
    if not 0.0 < m < math.inf:
        raise DomainError(f"mass must be positive and finite, got {m}")
    return 1.0 / _solve_log(A, -math.log(m))[0]


def p_norm(f: SampledFunction, mu: DiscreteMeasure, p: float) -> float:
    """Weighted p-norm (sum_i w_i |f_i|^p)^(1/p): M times the p-th root of one
    kernel's q = 0 modular of |f| / M at 1, M = ess sup |f|.  Each term is exp(c_i),
    c_i <= log w_i with equality at the top atom, so for every p the power sum lies
    between its weight and the total mass, up to the rounding of exp(log w_i).  On
    |f| / M the kernel's logs err by about u, not u |log M|.  p must be as for
    YoungFunction.power: finite and >= 1."""
    A, big = YoungFunction.power(p), ess_sup(f, mu)
    if big == 0.0:
        return 0.0
    with _modular_kernel(A, np.abs(f.values) / big, mu.weights, 1.0) as modular_at:
        return big * modular_at(1.0)[0] ** (1.0 / p)

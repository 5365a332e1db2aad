"""Luxemburg norm on weighted atoms.

The norm is the root of the modular equation sum_i w_i A(|f_i|/lam) = 1,
which is continuous and strictly decreasing in lam wherever it is finite.
In this discrete model the infimum in the norm definition is attained, so
the solver targets the equation directly, in log scale from an
analytically certified bracket, since lam is a positive scale whose
accuracy is relative and the bracket can span hundreds of decades.  The
package's one root loop, young._root, narrows that bracket: it bisects, or
from 2^10 kept atoms on evaluates Newton proposals that land inside it.

Every pass over the atoms runs in blocks of 2^16, on a call's block map
(_BlockMap) of up to min(CPUs, N // _SHARD_ATOMS) threads.  The set-up's
memory-bound passes run on the calling thread; the kernel uses as many
threads as its kept atoms allow.  From two on, the call makes its one
thread pool, whose threads and the caller each take the next block not yet
taken, in parallel since numpy's ufuncs release the GIL.  Results come back
in block order and sums are added in it, so the thread count changes no result.

The set-up forms no whole-array |f|: a first pass takes each block's
maximum and minimum, then the top atom in the first block attaining
M = max |f|; a second, after the pruning cut, visits only the blocks whose
maximum is above it, gathering the kept atoms in block order.  At large q
only the atoms near ess sup |f| are kept: the pointwise domination behind
the paper's upper bound.

One kernel evaluates the modular for both modular() and the solver.  It
builds c_i = log w_i + p*(log|f_i| - log M) once per call, and an
evaluation at lam sums

    exp(c_i + p*(log M - log lam) + q*log(log(shift + |f_i|/lam)))

over the blocks with no allocation.  Each term is w_i A(|f_i|/lam) computed
whole in the log domain, so it is inf only when that itself overflows, and
0 when it underflows; f_i = 0 gives 0.  Where max|f|/lam overflows,
log(shift + |f_i|/lam) is taken as logaddexp(log|f_i| - log lam, log shift).

With at least _NEWTON_MIN_ATOMS kept atoms the loop takes Newton
proposals (_solve).  By the delta substitution the slope
d log A / d log t = p + q t / ((shift + t) log(shift + t)) is closed form,
so the kernel sums the modular's slope in the same pass, and the loop
starts at lo, where the modular is >= 1.  Smaller solves bisect: the
benchmark keeps a record per q-ladder call (2-32 atoms), so that a speed-up
past 2.5x reads as a peak_rss_mb regression, and on small inputs the gaps
|norm - M| that limit_sweep compares at large q are where bisection stops.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from contextlib import closing, contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import DomainError, NumericError
from .measure import DiscreteMeasure, SampledFunction, check_aligned
from .young import YoungFunction, _root, _solve_log

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
_SHARD_ATOMS = 1 << 16  # fewest atoms per thread for which a thread pays
# kept atoms from which the solver takes Newton steps; smaller solves bisect for
# q-ladder's per-call records and limit_sweep's gaps (module docstring)
_NEWTON_MIN_ATOMS = 1 << 10


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
    was dropped.  The exact |modular(value) - 1| can exceed it by the
    kernel's evaluation error, about q * 1e-16.  The residual is meaningful
    only for FINITE status, where it meets the requested tolerance whenever
    that tolerance sits above that evaluation noise floor.
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


class _BlockMap:
    """One call's blocks and threads over n atoms (module docstring): a buffer
    of one block for each of up to min(CPUs, n // _SHARD_ATOMS) threads, and
    the pool, made on the first bind that uses two.  close() ends the pool."""

    def __init__(self, n: int):
        threads = n // _SHARD_ATOMS
        if threads > 1:
            threads = min(threads, _cpus())
        self.buffers = [np.empty(min(n, _BLOCK)) for _ in range(max(threads, 1))]
        self.pool = None

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()

    def bind(self, task, views: list):
        """A function of no arguments giving task(view) for each view in
        views[0], in block order; views[k] holds the same blocks with thread
        k's buffers.  On one thread it is map(), run as the caller iterates;
        on more, each thread takes the next block not yet taken, before return."""
        if len(views) < 2:
            return partial(map, task, views[0])
        if self.pool is None:
            # imported here: at module level it would cost every orlicz process ~7 ms
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(len(self.buffers) - 1)
            self.lock = threading.Lock()

        def run():
            results = [None] * len(views[0])
            untaken = iter(range(len(results)))

            def work(blocks):
                # numpy keeps the error state per thread: enter the kernel's
                with np.errstate(over="ignore", under="ignore", divide="ignore"):
                    while True:
                        with self.lock:
                            k = next(untaken, None)
                        if k is None:
                            return
                        results[k] = task(blocks[k])

            futures = [self.pool.submit(work, blocks) for blocks in views[1:]]
            work(views[0])
            for future in futures:
                future.result()
            return results

        return run


def _ess_sup(f: np.ndarray, buf: np.ndarray) -> tuple[int, float, list, list]:
    """(top, M, block maxima of |f|, block minima of f): M = max |f|, top its first
    atom, as np.argmax(np.abs(f)) finds it: the first argmax of |f| in the first block
    attaining M, taken in buf, a buffer of one block.  np.argmax would copy a read-only
    f; the reductions do not."""
    maxima, minima = [], []
    for i in range(0, len(f), _BLOCK):
        minima.append(float(np.minimum.reduce(f[i : i + _BLOCK])))
        maxima.append(max(float(np.maximum.reduce(f[i : i + _BLOCK])), -minima[-1]))
    b = maxima.index(max(maxima))
    blk = f[b * _BLOCK : (b + 1) * _BLOCK]
    top = b * _BLOCK + int(np.argmax(np.abs(blk, out=buf[: len(blk)])))
    return top, maxima[b], maxima, minima


@contextmanager
def _modular_kernel(
    A: YoungFunction, a: np.ndarray, w: np.ndarray, big: float, signed: bool, blocks, slope=False
):
    """Yield lam -> sum_i w_i A(|a_i| / lam) over fixed atoms a_i, w_i > 0
    with max |a_i| = big, evaluated as the module docstring describes.  With
    slope it returns (S, D) instead: S that sum, bit for bit, and
    D = sum_i term_i * (p + q r_i), each term times its d log A / d log t,
    from the same block buffers.  signed must hold if some a_i < 0; on atoms
    >= 0 neither the set-up nor an evaluation takes an absolute value."""
    p, q = A.p, A.q
    log_big = math.log(big) if big > 0.0 else 0.0  # all zeros: every c_i is -inf
    log_shift = math.log(A.shift) if q > 0.0 else 0.0
    two_buffers = slope and q > 0.0  # the slope sum keeps r_i apart from the term
    c = np.empty(len(a))

    def thread_views(buf):
        """Every block as (w_blk, a_blk, c_blk, t, term), t and term in one
        thread's buffers: term is t unless the slope needs both."""
        ell = np.empty(len(buf)) if two_buffers else buf
        views = []
        for i in range(0, len(a), _BLOCK):
            t = buf[: len(a) - i]
            blk = slice(i, i + _BLOCK)
            views.append((w[blk], a[blk], c[blk], t, ell[: len(t)] if two_buffers else t))
        return views

    def set_up(view):
        """c_i = log w_i + p*(log|a_i| - log M) over the block."""
        w_blk, a_blk, c_blk, t, _ = view
        np.log(w_blk, out=c_blk)
        np.log(np.abs(a_blk, out=t) if signed else a_blk, out=t)
        t -= log_big
        t *= p
        c_blk += t

    offset = lam = 0.0  # the point of the evaluation under way, set by modular_at

    def block_sums(view):
        """(sum of the block's terms, sum of its terms times r_i) at lam."""
        _, a_blk, c_blk, t, term = view
        if q == 0.0:
            term = np.add(c_blk, offset, out=t)
        else:
            # with slope the term goes to the second buffer and t ends as
            # r = t / ((shift + t) L), L = log(shift + t)
            if big / lam == math.inf:  # log(shift + |a_i|/lam) from logs
                np.log(np.abs(a_blk, out=t) if signed else a_blk, out=t)
                t -= math.log(lam)
                np.logaddexp(t, log_shift, out=term)
                if slope:
                    np.exp(np.subtract(t, term, out=t), out=t)
            else:
                np.divide(a_blk, lam, out=t)
                if signed:
                    np.abs(t, out=t)
                np.add(t, A.shift, out=term)
                if slope:
                    t /= term
                np.log(term, out=term)
            if slope:
                t /= term  # r, while L is still in a buffer
            np.log(term, out=term)
            term *= q
            term += c_blk
            term += offset
        total = float(np.add.reduce(np.exp(term, out=term)))
        return total, float(np.add.reduce(np.multiply(t, term, out=t))) if two_buffers else 0.0

    threads = max(1, min(len(a) // _SHARD_ATOMS, math.ceil(len(a) / _BLOCK)))
    views = [thread_views(buf) for buf in blocks.buffers[:threads]]
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        list(blocks.bind(set_up, views)())  # runs every block's set-up
        each_block = blocks.bind(block_sums, views)

        def modular_at(at: float):
            nonlocal offset, lam
            lam, offset = at, p * (log_big - math.log(at))
            total = weighted = 0.0
            for s, d in each_block():  # in block order
                total += s
                weighted += d
            return (total, p * total + q * weighted) if slope else total

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
    with closing(_BlockMap(len(f))) as blocks:
        _, big, _, minima = _ess_sup(f.values, blocks.buffers[0])
        signed = min(minima) < 0.0
        with _modular_kernel(A, f.values, mu.weights, big, signed, blocks) as modular_at:
            return modular_at(lam)


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

    Atoms with |f_i| <= cut = lam_lo * A^{-1}(tol / (4s)) are then dropped
    (the inverse to a loose 1e-3, since the bound is recomputed exactly),
    atoms with f_i = 0 among them: for every lam >= lam_lo they add at most

        pruned_bound = pruned_mass * (1 + 4 N u) * A(cut / lam_lo),   about tol/4,

    where pruned_mass is their total weight, unrounded: the total mass less
    the kept mass, or, when more than half the mass is kept and that would
    cancel, the dropped weights summed directly.  A sum of N terms >= 0 errs
    by at most (N - 1) u relative (u = 2^-53) and the difference by at most
    3 (N - 1) u + u, so pruned_bound, taken from pruned_mass rounded up by
    4 N u, stays a bound.  The atom attaining M always survives, since
    cut < lam_lo * A^{-1}(1/w) = M, so the bracket holds for the kept atoms
    too.  The root loop (module docstring) drives the kept modular to within
    tol - pruned_bound of 1, so the full modular meets |modular(lam) - 1| <=
    tol, unless the bracket collapses to adjacent doubles first.  A bracket
    no wider than tol * lam then comes back FINITE with its residual, which
    exceeds tol where the evaluation noise (about q * 1e-16) does.
    NumericError is raised only for a
    residual above tol from a bracket still wider than tol * lam, which
    takes a tol near one ULP.  iterations counts the evaluations of the
    kept modular, each over every kept atom; the inverses behind the bracket
    and the cut are not counted.
    """
    check_aligned(f, mu)
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    with closing(_BlockMap(len(f))) as blocks:
        buf = blocks.buffers[0]  # the set-up runs on one thread
        top, big, maxima, minima = _ess_sup(f.values, buf)
        if big == 0.0:
            return NormResult(0.0, 0.0, 0.0, 0.0, 0, NormStatus.ZERO)

        mass = mu.total_mass
        lo, hi = _closed_form_bracket(A, big, float(mu.weights[top]), mass, len(f))
        cut = lo * A.inverse(0.25 * tol / mass, tol=1e-3)
        values, weights = f.values, mu.weights  # the kernel's atoms if nothing is dropped
        signed, pruned_mass, pruned_bound = min(minima) < 0.0, 0.0, 0.0
        # per block above the cut: (start, indices of its atoms |f_i| > cut, None for all)
        mask, kept = np.empty(len(buf), bool), []
        for i, block_max, block_min in zip(range(0, len(values), _BLOCK), maxima, minima):
            if block_max > cut:  # else the block holds none
                absf = values[i : i + _BLOCK]
                if block_min < 0.0:
                    absf = np.abs(absf, out=buf[: len(absf)])
                keep = np.greater(absf, cut, out=mask[: len(absf)])
                kept.append((i, None if keep.all() else i + keep.nonzero()[0]))
        if len(kept) < len(maxima) or any(k is not None for _, k in kept):  # something dropped
            index = [np.arange(i, min(i + _BLOCK, len(f))) if k is None else k for i, k in kept]
            index = index[0] if len(index) == 1 else np.concatenate(index)
            values, weights, signed = np.abs(f.values[index]), mu.weights[index], False
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

        newton = len(values) >= _NEWTON_MIN_ATOMS
        with _modular_kernel(A, values, weights, big, signed, blocks, newton) as modular_at:
            lam, h, lo, hi, evaluations = _solve(modular_at, newton, lo, hi, tol - pruned_bound)
    residual = abs(h) + pruned_bound
    if residual > tol and hi - lo > tol * lam:
        raise NumericError(
            f"luxemburg_norm stalled: bracket [{lo!r}, {hi!r}], "
            f"residual {residual:.3e} > tol {tol:g}"
        )
    return NormResult(
        lam, lo, hi, residual, evaluations, NormStatus.FINITE, pruned_mass, pruned_bound
    )


def _closed_form_bracket(A: YoungFunction, big: float, w_top: float, mass: float, n: int):
    """(lo, hi): big / A^{-1}(1/w) for w = w_top and for w = mass, a sum of n
    weights, each moved outward past its exact value as luxemburg_norm says."""
    ends = []
    for w, sum_error, side in ((w_top, 0.0, -1.0), (mass, (n - 1) * 2.0**-52, 1.0)):
        target = -math.log(w)
        t, res = _solve_log(A, target, 0.5e-12)
        L = math.log(A.shift + t) if A.q > 0.0 else 1.0  # a power's shift may be <= 1
        noise = abs(A.p * math.log(t)) + abs(target) + A.q * (abs(math.log(L)) + 1.0 + 1.0 / L)
        margin = (abs(res) + sum_error + 2.0**-50 * noise) / A.p + 2.0**-50
        ends.append(min(big / t * math.exp(side * margin), sys.float_info.max))
    return tuple(ends)


def _solve(modular_at, newton: bool, lo: float, hi: float, tol: float):
    """Root of modular_at(lam) = 1, the kept modular, in the certified
    bracket [lo, hi], to |residual| <= tol, as luxemburg_norm describes.

    Returns (lam, 1 - modular(lam), lo, hi, evaluations) with the final
    bracket, from young._root.  With newton (from _NEWTON_MIN_ATOMS kept
    atoms on) the kernel also returns the slope sum D, and the loop starts
    at lo, where the modular S is >= 1, and takes Newton steps in
    u = log(M / lam): F(u) = log S increases with F' = D / S, so a step
    multiplies lam by exp(log S * S / D).  Otherwise the loop bisects.
    """
    if newton:
        last = ()  # (lam, S, D) of the latest evaluation

        def g(lam):
            nonlocal last
            last = (lam, *modular_at(lam))
            return 1.0 - last[1]

        def step():
            lam, m, d = last
            u = math.log(m) / (d / m) if 0.0 < m < math.inf else math.nan
            return lam * math.exp(min(u, 709.0))  # exp raises past 709; _root rejects nan

        return _root(g, lo, hi, tol, x=lo, step=step)
    return _root(lambda lam: 1.0 - modular_at(lam), lo, hi, tol)


def char_norm_closed_form(A: YoungFunction, m: float) -> float:
    """Norm of a characteristic function of mass m: 1 / A^{-1}(1/m)."""
    if not m > 0.0:
        raise DomainError(f"mass must be positive, got {m}")
    return 1.0 / A.inverse(1.0 / m)


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

"""Luxemburg norm on weighted atoms.

The norm is the root of the modular equation sum_i w_i A(|f_i|/lam) = 1,
which is continuous and strictly decreasing in lam wherever it is finite.
In this discrete model the infimum in the norm definition is attained, so
the solver targets the equation directly, in log scale from an
analytically certified bracket, since lam is a positive scale whose
accuracy is relative and the bracket can span hundreds of decades.  The
package's one root loop, young._root, narrows that bracket: it bisects, or
on large inputs evaluates Newton proposals that land inside the bracket.

One kernel evaluates the modular for both modular() and the solver.  With
M = max |f|, it builds the log weights c_i = log w_i + p*(log|f_i| - log M)
once per call, and an evaluation at lam sums

    exp(c_i + p*(log M - log lam) + q*log(log(shift + |f_i|/lam)))

over blocks of 2^16 atoms, with no allocation and no weight dot product.
With N atoms, min(CPUs, N // _SHARD_ATOMS) threads share the blocks.  Below
two, one loop runs them in one reused buffer (two for the slope).  From two
on, the main thread and a thread pool each take the next block not yet
taken, into buffers of their own, in parallel since numpy's ufuncs release
the GIL; a thread on a busy CPU takes fewer.  Either way the block sums are
added in block order, so the thread count changes no result.

Each term is w_i A(|f_i|/lam) computed whole in the log domain, so a term
is inf only when w_i A(|f_i|/lam) itself overflows, and 0 when it
underflows; f_i = 0 gives 0.  In an evaluation where max|f|/lam overflows,
log(shift + |f_i|/lam) is taken as logaddexp(log|f_i| - log lam, log shift).

Pruning shrinks the work before the root search: one index pass takes the
atoms that can move the modular anywhere in the bracket; the dropped ones,
atoms with f_i = 0 among them, are charged to the tolerance by a bound
rounded up past the error of its sums.  At large q only the atoms near ess
sup |f| are kept: the pointwise domination behind the paper's upper bound.

With at least _NEWTON_MIN_ATOMS kept atoms the loop takes Newton
proposals (_solve).  By the delta substitution the slope
d log A / d log t = p + q t / ((shift + t) log(shift + t)) is closed form,
so the kernel sums the modular's slope in the same pass, and the loop
starts at lo, where the modular is >= 1.  Smaller solves bisect.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NumericError
from .measure import DiscreteMeasure, SampledFunction, check_aligned
from .young import YoungFunction, _root

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
_NEWTON_MIN_ATOMS = 1 << 15  # kept atoms from which the solver takes Newton steps


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


@contextmanager
def _modular_kernel(
    A: YoungFunction, a: np.ndarray, w: np.ndarray, big: float, slope: bool = False
):
    """Yield lam -> sum_i w_i A(a_i / lam) over fixed atoms a_i >= 0, w_i > 0
    with max a_i = big, evaluated as the module docstring describes.  With
    slope it returns (S, D) instead: S that sum, bit for bit, and
    D = sum_i term_i * (p + q r_i), each term times its d log A / d log t,
    from the same block buffers.

    Below two threads one loop runs every block, and the floating-point
    error state is entered once, for every call.  From two on, this thread
    and a thread pool that lives as long as the kernel share the blocks;
    each pool task enters the error state itself, since numpy keeps it per
    thread.  Set-up and evaluations run the same per-block code on either
    path, and the block sums are added in block order, so every result is
    bit-identical to the serial one."""
    p, q = A.p, A.q
    log_big = math.log(big) if big > 0.0 else 0.0  # all zeros: every c_i is -inf
    log_shift = math.log(A.shift) if q > 0.0 else 0.0
    two_buffers = slope and q > 0.0  # the slope sum keeps r_i apart from the term
    c = np.empty(len(a))

    atom_blocks = [
        (w[i : i + _BLOCK], a[i : i + _BLOCK], c[i : i + _BLOCK]) for i in range(0, len(a), _BLOCK)
    ]

    def thread_blocks():
        """Every block as (w_blk, a_blk, c_blk, t, term), with t and term
        views of new buffers for one thread; term is t itself unless the
        slope needs both."""
        buf = np.empty(min(len(a), _BLOCK))
        ell = np.empty(len(buf)) if two_buffers else buf
        blocks = []
        for atoms in atom_blocks:
            t = buf[: len(atoms[1])]
            blocks.append((*atoms, t, ell[: len(t)] if two_buffers else t))
        return blocks

    def set_up(block):
        """c_i = log w_i + p*(log a_i - log M) over the block."""
        w_blk, a_blk, c_blk, t, _ = block
        np.log(w_blk, out=c_blk)
        np.log(a_blk, out=t)
        t -= log_big
        t *= p
        c_blk += t

    def block_sums(block, offset: float, lam: float):
        """(sum of the block's terms, sum of its terms times r_i)."""
        _, a_blk, c_blk, t, term = block
        if q == 0.0:
            term = np.add(c_blk, offset, out=t)
        else:
            # with slope the term goes to the second buffer and t ends as
            # r = t / ((shift + t) L), L = log(shift + t)
            if big / lam == math.inf:  # log(shift + a_i/lam) from logs
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
            if slope:
                t /= term  # r, while L is still in a buffer
            np.log(term, out=term)
            term *= q
            term += c_blk
            term += offset
        total = float(np.add.reduce(np.exp(term, out=term)))
        return total, float(np.add.reduce(np.multiply(t, term, out=t))) if two_buffers else 0.0

    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        workers = len(a) // _SHARD_ATOMS
        if workers > 1:
            workers = min(workers, _cpus())
        if workers < 2:
            blocks = thread_blocks()
            for block in blocks:
                set_up(block)

            def modular_at(lam: float):
                offset = p * (log_big - math.log(lam))
                total = weighted = 0.0
                for block in blocks:
                    s, d = block_sums(block, offset, lam)
                    total += s
                    weighted += d
                return (total, p * total + q * weighted) if slope else total

            yield modular_at
            return

        # imported here: at module level it would cost every orlicz process ~7 ms
        from concurrent.futures import ThreadPoolExecutor

        views = [thread_blocks() for _ in range(workers)]
        lock = threading.Lock()

        def each_block(task, *args):
            """[task(block, *args) for every block], in block order.  This
            thread and the pool's each take the next block not yet taken, so
            a thread slowed by a busy CPU takes fewer."""
            results = [None] * len(views[0])
            untaken = iter(range(len(results)))

            def work(blocks):
                with np.errstate(over="ignore", under="ignore", divide="ignore"):
                    while True:
                        with lock:
                            k = next(untaken, None)
                        if k is None:
                            return
                        results[k] = task(blocks[k], *args)

            futures = [pool.submit(work, blocks) for blocks in views[1:]]
            work(views[0])
            for future in futures:
                future.result()
            return results

        with ThreadPoolExecutor(workers - 1) as pool:
            each_block(set_up)

            def modular_at(lam: float):
                offset = p * (log_big - math.log(lam))
                total = weighted = 0.0
                for s, d in each_block(block_sums, offset, lam):  # in block order
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
    absf = np.abs(f.values)
    with _modular_kernel(A, absf, mu.weights, float(absf.max())) as modular_at:
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
    exceeds tol where the evaluation noise (about q * 1e-16) does; for one
    atom the closed-form ends coincide.  NumericError is raised only for a
    residual above tol from a bracket still wider than tol * lam, which
    takes a tol near one ULP.  iterations counts the evaluations of the
    kept modular, each over every kept atom; the inverses behind the bracket
    and the cut are not counted.
    """
    check_aligned(f, mu)
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    absf = np.abs(f.values)
    weights = mu.weights
    top = int(np.argmax(absf))
    big = float(absf[top])
    if big == 0.0:
        return NormResult(0.0, 0.0, 0.0, 0.0, 0, NormStatus.ZERO)

    mass = mu.total_mass
    lo = big / A.inverse(1.0 / float(weights[top]))
    hi = big / A.inverse(1.0 / mass)
    if lo > hi:  # equal for one atom; inverse (to 1e-12) swaps a mass ULPs above w
        lo, hi = hi, lo

    cut = lo * A.inverse(0.25 * tol / mass, tol=1e-3)
    keep = absf > cut
    pruned_mass = pruned_bound = 0.0
    if not keep.all():  # index and copy only when something is dropped
        kept = np.flatnonzero(keep)
        absf, weights = absf[kept], weights[kept]
        kept_mass = float(weights.sum())
        if kept_mass <= 0.5 * mass:  # at least mass/2 is dropped: no cancellation
            pruned_mass = mass - kept_mass
        else:
            pruned_mass = float(np.sum(mu.weights, where=~keep))
        if cut > 0.0:  # else only atoms with f_i = 0 were dropped, and they add 0
            rounded_up = pruned_mass * (1.0 + len(keep) * 2.0**-51)  # times 1 + 4 N u
            pruned_bound = rounded_up * math.exp(A.log_value(cut / lo))
            assert pruned_bound <= 0.5 * tol, (pruned_bound, tol)

    lam, h, lo, hi, evaluations = _solve(A, absf, weights, big, lo, hi, tol - pruned_bound)
    residual = abs(h) + pruned_bound
    if residual > tol and hi - lo > tol * lam:
        raise NumericError(
            f"luxemburg_norm stalled: bracket [{lo!r}, {hi!r}], "
            f"residual {residual:.3e} > tol {tol:g}"
        )
    return NormResult(
        lam, lo, hi, residual, evaluations, NormStatus.FINITE, pruned_mass, pruned_bound
    )


def _solve(
    A: YoungFunction, a: np.ndarray, w: np.ndarray, big: float, lo: float, hi: float, tol: float
):
    """Root of sum_i w_i A(a_i / lam) = 1 for atoms a_i > 0 in the certified
    bracket [lo, hi], to |residual| <= tol, as luxemburg_norm describes.

    Returns (lam, 1 - modular(lam), lo, hi, evaluations) with the final
    bracket, from young._root.  From _NEWTON_MIN_ATOMS atoms on the kernel
    also returns the slope sum D, and the loop starts at lo, where the
    modular S is >= 1, and takes Newton steps in u = log(M / lam), M = big = max a:
    F(u) = log S increases with F' = D / S, so a step multiplies lam by
    exp(log S * S / D).  Below, the loop bisects.
    """
    newton = len(a) >= _NEWTON_MIN_ATOMS
    with _modular_kernel(A, a, w, big, slope=newton) as modular_at:
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

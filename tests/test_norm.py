import itertools
import math
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import astuple

import mpmath
import numpy as np
import pytest

import orlicz.measure as measure_module
import orlicz.norm as norm_module
from orlicz import (
    E0,
    DiscreteMeasure,
    DomainError,
    NormStatus,
    NumericError,
    OrliczError,
    SampledFunction,
    YoungFunction,
    char_norm_closed_form,
    compare,
    default_grid,
    ess_sup,
    indicator,
    luxemburg_norm,
    modular,
    p_norm,
)
from conftest import atoms, modular_longdouble, random_instance

CHAR_NORM_M2 = 1.6781174572305117  # root of (1/l) * ln(e0 + 1/l) = 1/2
P_NORM_GOLD = 2.7412947864931966  # (0.1 + 1.6 + 18.9)^(1/3)

B11 = YoungFunction.log_bump(1, 1)
# (values, weights) whose norm lies past the largest double, at p = 1 and q = 0, 1, 100
PAST_LARGEST_DOUBLE = (
    [-1.7e308, 1e-310, 8.815740457673906e70, 1.7e308],
    [2.32784142252375e-301, 1e-310, 9.062837311881994e179, 1.7e308],
)


class TestModular:
    def test_zero_function(self):
        mu, f = atoms([0, 0], [1, 1])
        assert modular(YoungFunction.log_bump(2, 3), f, mu, 1.0) == 0.0

    def test_power_split(self):
        mu, f = atoms([1, 1], [1, 1])
        assert modular(YoungFunction.power(1), f, mu, 2.0) == pytest.approx(1.0)

    def test_normalization_mass(self):
        mu, f = atoms([1, 1], [0.5, 1.5])  # chi over mass 2
        assert modular(B11, f, mu, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_nonpositive_lambda_rejected(self):
        mu, f = atoms([1], [1])
        with pytest.raises(DomainError):
            modular(B11, f, mu, 0.0)

    def test_overflowing_term_gives_inf(self):
        mu, f = atoms([10], [1])
        assert modular(YoungFunction.log_bump(1, 1e5), f, mu, 1.0) == math.inf

    def test_monotone_decreasing_in_lambda_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu, f = random_instance(rng, n_hi=20)
            lams = np.sort(rng.uniform(0.1, 20.0, 4))
            for A in (YoungFunction.power(2), YoungFunction.log_bump(1.5, 8)):
                vals = [modular(A, f, mu, float(l)) for l in lams]
                assert all(a >= b for a, b in zip(vals, vals[1:]))


LOG_MAX = math.log(np.finfo(float).max)
# zeros of both signs, then |f| across the double range with alternating signs
ORACLE_VALUES = [0.0, -0.0] + [
    (-1.0) ** k * float(a) for k, a in enumerate(np.geomspace(1e-300, 1e300, 31))
]
ORACLE_WEIGHTS = np.random.default_rng(41).permutation(np.geomspace(1e-300, 1e3, 33))
ORACLE_LAMS = [float(x) for x in np.geomspace(1e-300, 1e300, 13)] + [1.5e300, 1e301]


def modular_oracle(A, values, weights, lam):
    """sum_i w_i A(|f_i|/lam) at 50 digits, the expected double, and the error
    scale S of the kernel's exponent c_i + p (log M - log lam) + q log ell_i.

    Expected is inf when a term exceeds the double range; None when a term
    lies within 1e-9 of that edge.  S
    is 1 plus the largest, over the terms that carry at least 1e-20 of the
    sum, of the magnitudes whose rounding enters the exponent: |log w_i|,
    p |log a_i|, 2 p |log M|, p |log lam|, and q (1 + |log ell_i|) /
    min(ell_i, 1) for the log factor, as in the value_array oracle.
    """
    a = [abs(v) for v in values]
    big = max(a)
    logs, scales = [], []
    with mpmath.workdps(50):
        for x, w in zip(a, weights):
            if x == 0.0:
                continue
            t = mpmath.mpf(x) / lam
            ell = mpmath.log(mpmath.mpf(A.shift) + t)
            logs.append(mpmath.log(w) + A.p * mpmath.log(t) + A.q * mpmath.log(ell))
            ell = float(ell)
            scales.append(
                abs(math.log(w))
                + A.p * (abs(math.log(x)) + 2.0 * abs(math.log(big)) + abs(math.log(lam)))
                + A.q * (1.0 + abs(math.log(ell))) / min(ell, 1.0)
            )
        if not logs:
            return mpmath.mpf(0), 0.0, 1.0
        top = max(logs)
        if abs(top - LOG_MAX) < 1e-9:
            return None, None, 1.0
        if top > LOG_MAX:
            return None, math.inf, 1.0
        true = mpmath.fsum(mpmath.exp(x) for x in logs)
        S = 1.0 + max(s for x, s in zip(logs, scales) if x >= mpmath.log(true) - 46)
        return true, float(true), S


@contextmanager
def kernel_on(A, a, w, slope=False):
    """The modular kernel over atoms |a|, w."""
    a = np.abs(a)
    with norm_module._modular_kernel(A, a, w, float(a.max()), slope) as kernel:
        yield kernel


class TestModularKernel:
    """modular against a 50-digit oracle, and the kernel's block edges."""

    @pytest.mark.parametrize("q", [0.0, 1.0, 100.0, 1e5])
    @pytest.mark.parametrize("p", [1.0, 2.0, 100.0])
    def test_matches_mpmath(self, p, q):
        eps = np.finfo(float).eps
        A = YoungFunction.log_bump(p, q)
        mu, f = atoms(ORACLE_VALUES, ORACLE_WEIGHTS)
        checked = 0
        for lam in ORACLE_LAMS:
            true, expected, S = modular_oracle(A, ORACLE_VALUES, ORACLE_WEIGHTS, lam)
            if expected is None:
                continue
            got = modular(A, f, mu, lam)
            if expected == math.inf:
                assert got == math.inf, lam
                continue
            # a term below the normal range is rounded to a multiple of 2^-1074
            err = abs(got - true)
            bound = 4.0 * eps * S * true + len(f) * 5e-324
            assert err <= bound, (lam, got, float(err / true) / (eps * S))
            checked += 1
        assert checked >= 2

    def test_weighted_term_overflow(self):
        # A(1e305) = 1e305 * log(e0 + 1e305)^2 ~ 4.9e310 overflows, but the
        # weighted term 4.9e5 does not
        A = YoungFunction.log_bump(1, 2)
        mu, f = atoms([1e300, 1.0], [1e-305, 1.0])
        assert A.value(1e305) == math.inf
        with mpmath.workdps(50):
            t = mpmath.mpf(1e300) / 1e-5
            true = mpmath.mpf(1e-305) * t * mpmath.log(E0 + t) ** 2 + 1e5 * mpmath.log(
                E0 + mpmath.mpf(1e5)
            ) ** 2
        assert modular(A, f, mu, 1e-5) == pytest.approx(float(true), rel=1e-13)
        # t = 1e306 is finite, but the term 1e306 * log(e0 + 1e306)^2 ~ 5e311 is not
        mu, f = atoms([1.0], [1.0])
        assert modular(A, f, mu, 1e-306) == math.inf
        # t = 1e450 overflows, but the term 1e-300 * t * log(e0 + t) ~ 1.04e153 does not
        mu, f = atoms([1e300], [1e-300])
        with mpmath.workdps(50):
            t = mpmath.mpf(1e300) / mpmath.mpf(1e-150)
            true = mpmath.mpf(1e-300) * t * mpmath.log(E0 + t)
        assert modular(B11, f, mu, 1e-150) == pytest.approx(float(true), rel=1e-13)

    @pytest.mark.parametrize("q", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize(
        "p, values, weights, lam",
        [
            (1.0, [0.3, 1.0, 2.5, 7.0], [0.1, 0.2, 0.3, 0.4], 0.9),
            (2.0, [0.3, 1.0, 2.5, 7.0], [0.1, 0.2, 0.3, 0.4], 1e3),
            (100.0, [0.3, 1.0, 2.5, 7.0], [0.1, 0.2, 0.3, 0.4], 8.0),
            (1.0, [1e300, 1.0], [1e-300, 0.5], 1e-10),  # max|f|/lam overflows
        ],
    )
    def test_slope_sum(self, p, values, weights, lam, q):
        # S is the modular bit for bit, and D = sum_i term_i * (p + q r_i),
        # r = t / ((shift + t) log(shift + t)), against long double
        A = YoungFunction.log_bump(p, q)
        a, w = np.array(values), np.array(weights)
        with kernel_on(A, a, w) as plain:
            expected_S = plain(lam)[0]
        with kernel_on(A, a, w, slope=True) as sloped:
            S, D = sloped(lam)
        assert S == expected_S
        ld = np.longdouble
        t = a.astype(ld) / ld(lam)
        ell = np.log(ld(A.shift) + t)
        terms = w * np.exp(ld(p) * np.log(t) + ld(q) * np.log(ell))
        true = np.sum(terms * (ld(p) + ld(q) * t / ((ld(A.shift) + t) * ell)))
        assert D == pytest.approx(float(true), rel=1e-12)

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7])
    def test_block_edges(self, n):
        # every atom carries a comparable share, so a block dropped or
        # counted twice moves the sum by at least 1/n
        rng = np.random.default_rng(n)
        values, weights = rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n) / n
        mu, f = atoms(values, weights)
        for A in (YoungFunction.power(2), YoungFunction.log_bump(1, 3)):
            terms = weights * A.value_array(values / 0.8)
            assert modular(A, f, mu, 0.8) == pytest.approx(math.fsum(terms), rel=1e-13)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_one_return_shape(self, q):
        # every kernel returns (S, D); D is None without the slope
        A = YoungFunction.log_bump(2.0, q)
        a, w = np.array([0.3, -1.0, 2.5]), np.array([0.1, 0.2, 0.3])
        mu, f = atoms(a, w)
        with kernel_on(A, a, w) as plain:
            S, D = plain(0.9)
        assert D is None and S == modular(A, f, mu, 0.9)


class TestBlocks:
    """Every pass of the kernel over N atoms runs on one partition: _blocks(N)."""

    @pytest.mark.parametrize(
        "n", [1, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 2, 3 * 2**16 + 7, 10**6]
    )
    def test_partition(self, n):
        # ceil(n / 2^16) slices covering range(n) in order, all of one size
        # but the last, which is no longer
        blocks = norm_module._blocks(n)
        assert len(blocks) == -(-n // 2**16)
        covered = np.concatenate([np.arange(n)[blk] for blk in blocks])
        assert np.array_equal(covered, np.arange(n))
        sizes = [len(range(n)[blk]) for blk in blocks]
        assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]


CHUNK = measure_module._CHUNK  # values per chunk of a SampledFunction's extrema


class TestChunks:
    """A SampledFunction keeps each chunk's max and min; ess_sup and the
    solver read M, the top atom and the sign from them, and the solver
    prunes run by run of chunks above its cut."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * 2**16 + 7])
    def test_summary_on_the_partition(self, n, sign):
        # -M and +M on either side of a chunk boundary, and of the kernel's
        # first block boundary, 49154, a multiple of neither 2^12 nor 2^16,
        # and +M again at the end: the chunk extrema are numpy's max and
        # min over each slice, and the top atom is the first attaining M
        rng = np.random.default_rng(9)
        base = rng.uniform(-1.0, 1.0, n)
        if n > 2**16:
            assert norm_module._blocks(n)[1].start == 49154 and 49154 % CHUNK
        for edge in [e for e in (CHUNK, 49154) if e < n] or [n - 1]:
            values = base.copy()
            pair = [edge - 1, edge] if edge else [edge]
            values[pair] = [-2.0 * sign, 2.0 * sign][-len(pair):]
            if n - 1 > edge:
                values[-1] = 2.0
            mu, f = atoms(values, np.ones(n))
            starts = range(0, n, CHUNK)
            assert f._chunk_max.tolist() == [values[k:k + CHUNK].max() for k in starts]
            assert f._chunk_min.tolist() == [values[k:k + CHUNK].min() for k in starts]
            assert not f._chunk_max.flags.writeable and not f._chunk_min.flags.writeable
            top, big, low = norm_module._top(f)
            assert (top, big, low) == (pair[0], 2.0, values.min())
            assert top == int(np.argmax(np.abs(values))) and ess_sup(f, mu) == 2.0
            chunk_abs_max = np.maximum(f._chunk_max, -f._chunk_min)
            at_m = sorted({i // CHUNK for i in pair + ([n - 1] if n - 1 > edge else [])})
            assert np.flatnonzero(chunk_abs_max == 2.0).tolist() == at_m
            assert np.delete(chunk_abs_max, at_m).max(initial=0.0) < 1.0

    @staticmethod
    def selection_input(n):
        """n values of |f| <= 1, signed, with zeros and -0.0; from 3 * 2^16 atoms
        on, chunks 10-13 in [5, 6] (the kernel's first block edge, 49154, lies
        inside chunk 12), chunk 20 signed and scaled by 3, and 8.0 in the tail."""
        rng = np.random.default_rng(n)
        values = rng.uniform(-1.0, 1.0, n)
        values[::5], values[2::7] = 0.0, -0.0
        if n > 3 * 2**16:
            values[10 * CHUNK:14 * CHUNK] = rng.uniform(5.0, 6.0, 4 * CHUNK)
            values[20 * CHUNK:21 * CHUNK] *= 3.0
            values[-2] = 8.0
        return values

    @pytest.mark.parametrize("n", [1, 5, CHUNK + 1, 3 * 2**16 + 7])
    def test_selection(self, monkeypatch, n):
        # _kept keeps exactly the atoms |f_i| > cut in index order, or gives None
        # where that is every atom, for cuts of 0, between two chunks' max |f|,
        # equal to a chunk's max |f| or min f (> is strict), and at or above M;
        # it compares only runs of chunks above the cut, and a run whose
        # minimum exceeds the cut with no mask
        values = self.selection_input(n)
        f = SampledFunction(values)
        absf = np.abs(values)
        big = absf.max()
        chunk_abs_max = np.unique(np.maximum(f._chunk_max, -f._chunk_min))
        cuts = {0.0, big, 2.0 * big, *chunk_abs_max, *f._chunk_min[f._chunk_min > 0.0]}
        cuts |= set((chunk_abs_max[1:] + chunk_abs_max[:-1]) / 2.0)
        compared, greater = [], np.greater

        def recording_greater(a, *args, **kwargs):
            compared.append(len(a))
            return greater(a, *args, **kwargs)

        monkeypatch.setattr(np, "greater", recording_greater)
        for cut in sorted(cuts):
            compared.clear()
            expected = np.flatnonzero(absf > cut)
            index = norm_module._kept(f, cut)
            if len(expected) == n:
                assert index is None
            else:
                assert index.dtype == np.intp and np.array_equal(index, expected), cut
            above = [absf[k:k + CHUNK] for k in range(0, n, CHUNK) if absf[k:k + CHUNK].max() > cut]
            assert sum(compared) <= sum(len(chunk) for chunk in above)
        if n > 3 * 2**16:  # 2.0 lies between the max |f| of chunk 20 and of the others:
            compared.clear()  # chunks 10-13 are kept whole, and only chunk 20 and the tail compared
            kept = norm_module._kept(f, 2.0)
            assert compared == [CHUNK, n % CHUNK]
            assert np.array_equal(kept, np.flatnonzero(absf > 2.0))
            assert np.isin(np.arange(10 * CHUNK, 14 * CHUNK), kept).all()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nothing_dropped_nothing_gathered(self, monkeypatch, sign):
        # a solve that prunes nothing gathers nothing: the kernel receives the
        # input's own values and weights, or for a signed input its |f|
        rng = np.random.default_rng(5)
        n = 3 * CHUNK + 5
        values = rng.uniform(0.5, 1.0, n)
        values[::3] *= sign
        mu, f = atoms(values, rng.uniform(0.1, 1.0, n) / n)
        assert norm_module._kept(f, 0.0) is None
        received, kernel = [], norm_module._modular_kernel

        @contextmanager
        def recording_kernel(A, a, w, *args, **kwargs):
            received.append((a, w))
            with kernel(A, a, w, *args, **kwargs) as modular_at:
                yield modular_at

        monkeypatch.setattr(norm_module, "_modular_kernel", recording_kernel)
        res = luxemburg_norm(YoungFunction.log_bump(2.0, 1.0), f, mu)
        assert res.pruned_mass == 0.0 and received
        a, w = received[-1]
        assert w is mu.weights
        if sign > 0.0:
            assert a is f.values
        else:
            assert np.array_equal(a, np.abs(f.values))


def pairwise_sum(a):
    """numpy's pairwise summation of the floats a, operation for operation:
    fewer than 8 in order from 0.0; up to 128 in 8 interleaved partial sums,
    combined as a tree, then the remainder in order; more split in two at a
    multiple of 8 below the half."""
    n = len(a)
    if n < 8:
        total = 0.0
        for x in a:
            total += x
        return total
    if n <= 128:
        r, i = list(a[:8]), 8
        while i < n - n % 8:
            r = [r[j] + a[i + j] for j in range(8)]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[i:]:
            total += x
        return total
    half = n // 2 - (n // 2) % 8
    return pairwise_sum(a[:half]) + pairwise_sum(a[half:])


class TestSummationOrder:
    """_log_sum_error charges a kernel block's sum of n terms >= 0 at most
    log2(n) + 20 roundings, where a sum in order could take n - 1.  That
    holds only while np.add.reduce over a contiguous block sums pairwise:
    these tests fail if it stops doing so."""

    @pytest.mark.parametrize("n", [5, 100, 127, 129, 8193, 62_500, norm_module._BLOCK])
    def test_add_reduce_is_pairwise(self, n):
        # bit for bit on a block of a longer buffer, as the kernel reduces it
        buf = np.empty(n + 3)
        block = buf[:n]
        block[:] = np.random.default_rng(n).lognormal(0.0, 3.0, n)
        assert float(np.add.reduce(block)) == pairwise_sum(block.tolist())

    def test_error_within_the_bound_where_order_fails_it(self):
        # 1 and then 2^16 - 1 terms of 1e-16, each below half an ULP of 1:
        # summed in order every one rounds away, about 59000 u; pairwise the
        # small terms meet first, and the sum errs by 14 u
        n = norm_module._BLOCK
        x = np.full(n, 1e-16)
        x[0] = 1.0
        exact, bound = math.fsum(x), (math.log2(n) + 20.0) * 2.0**-53
        assert abs(float(np.add.reduce(x)) - exact) <= bound * exact
        assert abs(sum(x.tolist()) - exact) > 1000.0 * bound * exact


class TestPowerAccuracy:
    """_log_sum_error charges the base form's np.power(x, p) at most one ULP,
    and the set-up's b_i at p = 2 are products x * x.  These tests pin both on
    contiguous arrays with an out buffer, as the kernel calls np.power."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 100.0])
    def test_power_within_one_ulp(self, p):
        # x from 1e-300 up to where x^p nears the largest double, and x whose
        # x^p lies among the subnormals or underflows to 0
        rng = np.random.default_rng(int(10 * p))
        top, tiny = math.log(sys.float_info.max) - 0.01, math.log(sys.float_info.min)
        x = np.concatenate([
            np.exp(rng.uniform(math.log(1e-300), top / p, 300)),
            np.exp(rng.uniform(math.log(2.0**-1074) - 20.0, tiny, 150) / p),
        ])
        y = np.empty(len(x))
        np.power(x, p, out=y)
        with mpmath.workdps(50):
            for xi, yi in zip(x.tolist(), y.tolist()):
                exact = mpmath.mpf(xi) ** p
                assert abs(yi - exact) <= math.ulp(float(exact)), (xi, p)

    def test_square_is_product(self):
        rng = np.random.default_rng(2)
        x = np.exp(rng.uniform(math.log(2.0**-1074), math.log(1e154), 100_000))
        y = np.empty(len(x))
        np.power(x, 2.0, out=y)
        assert np.array_equal(y, x * x)


def hexed(result):
    """A NormResult's fields, floats as hex, so that -0.0 and every last bit count."""
    return [x.hex() if isinstance(x, float) else x for x in astuple(result)]


@pytest.fixture
def pool_tasks(monkeypatch):
    """The tasks the kernel submits to its thread pools."""
    import concurrent.futures

    tasks = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            tasks.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    return tasks


def mixed_instance(seed, n):
    """n lognormal atoms of mixed sign, every fifth value 0, weights U[0.1, 1] / n."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
    values[::5] = 0.0
    return atoms(values, rng.uniform(0.1, 1.0, n) / n)


SET_UP_N = 3 * 2**16 + 7  # four blocks, the last partial
CUT_AT = [5, 70_000, SET_UP_N - 1]  # atoms set to +-cut in "cut_attained"


def set_up_instance(seed=21):
    """SET_UP_N lognormal atoms of mixed sign, every seventh 0, weights U[0.1, 1] / N."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0.0, 1.0, SET_UP_N) * rng.choice([-1.0, 1.0], SET_UP_N)
    values[::7] = 0.0
    return values, rng.uniform(0.1, 1.0, SET_UP_N) / SET_UP_N


def set_up_cut(A, values, weights, tol=norm_module.DEFAULT_TOL):
    """luxemburg_norm's cut lo * A^{-1}(tol / (4s)), lo the closed-form end
    from the first atom attaining max |f|."""
    absf = np.abs(values)
    top, mass = int(np.argmax(absf)), float(np.sum(weights))
    lo, _ = norm_module._closed_form_bracket(A, absf[top], weights[top], mass, len(values))
    return lo * norm_module._solve_log(A, math.log(0.25 * tol / mass), 0.5e-3)[0]


def _ties_across_blocks():
    # -M in the second block comes first, +M in the last, partial one: the
    # top weight is the first one's
    values, weights = set_up_instance()
    big = 2.0 * np.abs(values).max()
    values[[70_000, SET_UP_N - 2]] = -big, big
    weights[70_000] = 0.5
    return values, weights, 100.0


def _zero_blocks():
    values, weights = set_up_instance()
    values[: 2 * 2**16] = 0.0  # the first two blocks are all zero
    return values, weights, 10.0


def _cut_attained():
    # |f_i| = cut for three atoms, the last one of the partial block among
    # them: none attains M, so the cut stays, and > drops them
    values, weights = set_up_instance()
    cut = set_up_cut(YoungFunction.log_bump(2.0, 100.0), values, weights)
    values[CUT_AT] = cut, -cut, cut
    return values, weights, 100.0


def _kept_in_one_block():
    values, weights = set_up_instance()
    values[150_000] = 100.0 * np.abs(values).max()  # in the third block
    return values, weights, 1e5


def _nothing_pruned():
    rng = np.random.default_rng(22)
    values = rng.uniform(0.5, 1.0, SET_UP_N) * rng.choice([-1.0, 1.0], SET_UP_N)
    return values, rng.uniform(0.1, 1.0, SET_UP_N) / SET_UP_N, 1.0


SET_UP_CASES = {
    "ties_across_blocks": _ties_across_blocks,
    "zero_blocks": _zero_blocks,
    "cut_attained": _cut_attained,
    "kept_in_one_block": _kept_in_one_block,
    "nothing_pruned": _nothing_pruned,
    "all_zero": lambda: (np.zeros(SET_UP_N), set_up_instance()[1], 1.0),
}


def kept_atoms(monkeypatch, A, f, mu):
    """luxemburg_norm; copies of the (a, w) of every kernel built; and the
    number of runs of chunks the cut compares with it."""
    kernels, compared = [], []
    kernel, greater = norm_module._modular_kernel, np.greater

    @contextmanager
    def recording_kernel(A, a, w, big, *args, **kwargs):
        kernels.append((a.copy(), w.copy()))
        with kernel(A, a, w, big, *args, **kwargs) as modular_at:
            yield modular_at

    def recording_greater(*args, **kwargs):
        compared.append(len(args[0]))
        return greater(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(norm_module, "_modular_kernel", recording_kernel)
        mp.setattr(np, "greater", recording_greater)
        return luxemburg_norm(A, f, mu), kernels, len(compared)


class TestShardedKernel:
    """From two threads on, the kernel shares its blocks with a thread pool;
    every number stays bit-identical to the serial loop."""

    N = 3 * 2**16 + 7  # four blocks, the last partial
    LAMS = [1e-307, 1e-3, 0.7, 5.0, 1e300]  # max|f|/lam overflows at 1e-307

    def results(self, mu, f):
        out = []
        for q in (0.0, 1.0, 10.0):
            A = YoungFunction.log_bump(2.0, q)
            out.append(hexed(luxemburg_norm(A, f, mu)))
            out.append([modular(A, f, mu, lam).hex() for lam in self.LAMS])
            with kernel_on(A, f.values, mu.weights, slope=True) as sloped:
                out.append([x.hex() for lam in self.LAMS[1:4] for x in sloped(lam)])
        return out

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_shards_change_no_number(self, monkeypatch, pool_tasks, cpus, n=N):
        # the input's ceil(n / 2^16) blocks of equal size, 4 here, give
        # min(cpus, 4) threads: cpus = 8 is capped by the blocks
        mu, f = mixed_instance(seed=11, n=n)
        monkeypatch.setattr(norm_module, "_cpus", lambda: 1)
        serial = self.results(mu, f)
        assert not pool_tasks
        monkeypatch.setattr(norm_module, "_cpus", lambda: cpus)
        assert self.results(mu, f) == serial
        assert bool(pool_tasks) == (cpus > 1)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [2**16 + 1, 100_003])
    def test_even_split_changes_no_number(self, monkeypatch, pool_tasks, n, cpus):
        # from 2^16 + 1 atoms two blocks of equal size, so two CPUs share the
        # kernel where one took a whole block and a sliver; the partition
        # depends on n alone, so every number matches the serial loop
        self.test_shards_change_no_number(monkeypatch, pool_tasks, cpus, n)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("case", sorted(SET_UP_CASES))
    def test_set_up_changes_no_number(self, monkeypatch, pool_tasks, case, cpus):
        # the set-up's mask and gather run on the calling thread, the kernel on its
        # threads: every result is bit-identical to the serial solve, the pool
        # is made only for a kernel of two blocks, and the kept atoms are
        # those of a numpy mask |f| > cut (strictly), gathered in index order.
        # From _SEED_MIN_ATOMS kept atoms the kernel of the seed's sample,
        # one block, comes first
        values, weights, q = SET_UP_CASES[case]()
        mu, f = atoms(values, weights)
        A = YoungFunction.log_bump(2.0, q)
        monkeypatch.setattr(norm_module, "_cpus", lambda: 1)
        serial = hexed(luxemburg_norm(A, f, mu)), modular(A, f, mu, 0.7).hex()
        assert not pool_tasks
        monkeypatch.setattr(norm_module, "_cpus", lambda: cpus)
        res, kernels, compared = kept_atoms(monkeypatch, A, f, mu)
        kept = len(kernels[-1][0]) if kernels else 0
        assert bool(pool_tasks) == (cpus > 1 and kept > norm_module._BLOCK)
        assert (hexed(res), modular(A, f, mu, 0.7).hex()) == serial

        absf = np.abs(values)
        if not absf.any():
            assert res.status is NormStatus.ZERO and not kernels
            return
        keep = absf > set_up_cut(A, values, weights)
        *sample, (a, w) = kernels
        assert len(sample) == (kept >= norm_module._SEED_MIN_ATOMS)
        assert np.array_equal(np.abs(a), absf[keep]) and np.array_equal(w, weights[keep])
        if case == "cut_attained":
            assert not keep[CUT_AT].any()
        if case == "kept_in_one_block":  # the cut visits that atom's chunk alone
            assert compared == 1

    def test_small_inputs_use_no_pool(self, monkeypatch, pool_tasks):
        # a kernel of at most 2^16 atoms is one block and runs on the calling
        # thread on any machine: q-ladder's 32 atoms, a whole block, and a
        # seed's sample.  sweep-100k's 1e5 atoms, kept whole at q = 1, are
        # two blocks of 50000 and share two CPUs
        monkeypatch.setattr(norm_module, "_cpus", lambda: 8)
        for n in (32, 2**16):
            mu, f = mixed_instance(seed=n, n=n)
            for q in (1.0, 100.0, 1e5):
                A = YoungFunction.log_bump(2.0, q)
                assert luxemburg_norm(A, f, mu).status is NormStatus.FINITE
                modular(A, f, mu, 0.7)
        assert not pool_tasks
        monkeypatch.setattr(norm_module, "_cpus", lambda: 2)
        mu, f = lognormal_instance(seed=1, n=100_000)
        assert luxemburg_norm(YoungFunction.log_bump(2.0, 1.0), f, mu).pruned_mass == 0.0
        assert pool_tasks

    def test_worker_error_state(self, monkeypatch, pool_tasks):
        # numpy keeps the error state per thread: the worker's log(0) in the
        # set-up and its exp overflow and underflow warn unless the task
        # enters the kernel's state itself (the suite turns warnings into errors)
        monkeypatch.setattr(norm_module, "_cpus", lambda: 2)
        rng = np.random.default_rng(4)
        n = 2 * norm_module._BLOCK
        values = rng.uniform(0.5, 1.0, n)
        values[::7] = 0.0
        mu, f = atoms(values, rng.uniform(0.1, 1.0, n) / n)
        A = YoungFunction.log_bump(2, 1)
        assert modular(A, f, mu, 1e-300) == math.inf
        assert modular(A, f, mu, 1e300) == 0.0
        assert pool_tasks

    def test_concurrent_solves(self, monkeypatch, pool_tasks):
        # two Python threads solve different inputs at once, each kernel
        # with a pool of its own, and match their serial results
        n = 2 * norm_module._BLOCK + 5
        inputs = [mixed_instance(seed, n) for seed in (1, 2)]
        monkeypatch.setattr(norm_module, "_cpus", lambda: 1)
        expected = [self.results(mu, f) for mu, f in inputs]
        monkeypatch.setattr(norm_module, "_cpus", lambda: 2)
        got = [None, None]

        def solve(k):
            try:
                got[k] = self.results(*inputs[k])
            except Exception as exc:  # reported by the assertion below
                got[k] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected
        assert pool_tasks


class TestLuxemburgNorm:
    def test_unit_indicator(self):
        mu, f = atoms([1], [1])
        res = luxemburg_norm(YoungFunction.log_bump(1, 5), f, mu)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.status is NormStatus.FINITE

    def test_power_closed_form(self):
        mu, f = atoms([1], [4])
        res = luxemburg_norm(YoungFunction.power(2), f, mu)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_log_bump_golden(self):
        mu, f = atoms([1, 1], [0.8, 1.2])  # chi of mass 2, split to force bisection
        res = luxemburg_norm(B11, f, mu)
        assert res.value == pytest.approx(CHAR_NORM_M2, rel=1e-10)

    def test_zero_function_short_circuits(self):
        mu, f = atoms([0, 0, 0], [1, 2, 3])
        res = luxemburg_norm(B11, f, mu)
        assert res.status is NormStatus.ZERO
        assert res.value == 0.0
        assert res.iterations == 0

    def test_result_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mu, f = random_instance(rng, n_hi=15)
            res = luxemburg_norm(YoungFunction.log_bump(2, 4), f, mu)
            assert res.bracket_lo <= res.value <= res.bracket_hi
            assert res.residual <= 1e-10

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1.0, 1e300, math.inf])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # a tol of 4 s / w_top or more would put the pruning cut above M
        mu, f = atoms([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError, match="tol must be positive"):
            luxemburg_norm(B11, f, mu, tol)

    def test_stall_raises_with_bracket(self):
        # the bracket collapses to adjacent doubles with the residual at
        # 1.1e-16, above a tol of 1e-17
        mu, f = atoms([1, 2, 4], [1, 1, 1])
        with pytest.raises(NumericError, match=r"stalled: bracket \[4\.18.*> tol 1e-17"):
            luxemburg_norm(YoungFunction.log_bump(2, 3), f, mu, tol=1e-17)

    @pytest.mark.parametrize("q", [1e7, 1e8, 1e9, 1e10])
    def test_collapsed_bracket_returns_residual_above_tol(self, q):
        # one atom: the closed-form ends lie either side of its root, moved
        # apart by the inverse's residual and rounding, and no double between
        # them meets tol: the solve bisects them down to one ULP, and the
        # evaluation noise (about q * 1e-16) leaves the residual above tol;
        # the result is FINITE, not a NumericError
        mu, f = atoms([1], [0.5])
        res = luxemburg_norm(YoungFunction.log_bump(1, q), f, mu)
        assert res.status is NormStatus.FINITE
        assert res.residual > 1e-10
        assert res.bracket_hi - res.bracket_lo <= 1e-10 * res.value

    def test_swapped_closed_form_ends(self):
        # the total mass is one ULP above the top weight, so the raw ends
        # big / A^{-1}(1/w) lie within a few ULPs of each other, and an inverse
        # off by one ULP would put lo above hi; the ends, moved outward past
        # the inverse's residual, hold the exact norm w0 + w1/2 (one ULP above
        # w0, so exact in doubles)
        w = [0.9336002244460524, 2.220446049250313e-16]
        mu, f = atoms([1.0, 0.5], w)
        A = YoungFunction.power(1)
        raw_lo, raw_hi = (1.0 / A.inverse(1.0 / m) for m in (w[0], mu.total_mass))
        assert abs(raw_lo - raw_hi) <= 4 * math.ulp(raw_lo)
        res = luxemburg_norm(A, f, mu)
        assert res.status is NormStatus.FINITE and res.residual <= 1e-10
        assert res.bracket_lo <= w[0] + 0.5 * w[1] <= res.bracket_hi
        assert abs(res.value - (w[0] + 0.5 * w[1])) <= 1e-10

    @pytest.mark.parametrize("q", [0.0, 1.0, 10.0, 100.0, 1e4])
    @pytest.mark.parametrize("p", [1.0, 2.0, 100.0])
    def test_closed_form_ends_on_their_side(self, monkeypatch, p, q):
        # the long-double modular is >= 1 at the closed-form lo and <= 1 at
        # hi, where an inverse to 1e-12 leaves them on either side of a root
        # that is an end: equal values (root hi) and a top atom that alone
        # survives pruning (root lo, the other atoms 1e-30 times smaller).
        # 127 weights below half an ULP of a leading 1.0 sum 7 ULPs low
        # (numpy's first pairwise accumulator absorbs 15 of them), which hi
        # must allow for
        ends, root = [], norm_module._root

        def recording(g, lo, hi, tol, **kwargs):
            ends.append((lo, hi))
            return root(g, lo, hi, tol, **kwargs)

        monkeypatch.setattr(norm_module, "_root", recording)
        A = YoungFunction.log_bump(p, q)
        inputs = [(np.ones(128), np.array([1.0] + [0.49 * 2.0**-52] * 127))]
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n, top = int(rng.integers(1, 33)), rng.lognormal(0.0, 1.0)
            weights = rng.lognormal(0.0, 2.0, n)
            small = 1e-30 * top * rng.uniform(0.1, 1.0, n)
            small[rng.integers(n)] = top
            inputs += [(np.full(n, top), weights), (small, weights)]
        if (p, q) == (100.0, 0.0):  # pruning keeps one atom of 1e5
            mu, f = lognormal_instance(seed=2, n=100_000)
            inputs.append((f.values, mu.weights))
        for values, weights in inputs:
            mu, f = atoms(values, weights)
            luxemburg_norm(A, f, mu)
            lo, hi = ends.pop()
            assert modular_longdouble(A, values, weights, lo) >= 1.0
            assert modular_longdouble(A, values, weights, hi) <= 1.0

    @pytest.mark.parametrize("q", [0.0, 1.0, 1e5])
    def test_sign_invariance(self, q):
        # the norm sees |f| only: f, -f and f with random sign flips give
        # the same result bit for bit (repr tells -0.0 from 0.0)
        mu, f = lognormal_instance(seed=3, n=1000)
        values = f.values.copy()
        values[::7], values[3::7] = 0.0, -0.0
        signs = np.random.default_rng(13).choice([-1.0, 1.0], len(values))
        A = YoungFunction.log_bump(2.0, q)
        results = {
            repr(astuple(luxemburg_norm(A, SampledFunction(s * values), mu)))
            for s in (1.0, -1.0, signs)
        }
        assert len(results) == 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_top_weight_from_first_atom_attaining_max(self, monkeypatch, sign):
        # +M and -M both attain ess sup |f|: lo = M / A^{-1}(1/w) takes w
        # from the first of them; the inverse solves log A(t) = log(1/w)
        mu, f = atoms([0.5, -2.0 * sign, 2.0 * sign, 1.0], [0.1, 0.2, 0.6, 0.1])
        calls = []
        solve_log = norm_module._solve_log

        def recording(A, target, *tol_log):
            calls.append(target)
            return solve_log(A, target, *tol_log)

        monkeypatch.setattr(norm_module, "_solve_log", recording)
        res = luxemburg_norm(B11, f, mu)
        assert calls[0] == -math.log(0.2)
        assert res.status is NormStatus.FINITE and res.residual <= 1e-10

    def test_modular_at_norm_is_one(self):
        mu, f = atoms([3, 1, 2], [0.5, 1.0, 2.0])
        res = luxemburg_norm(B11, f, mu, tol=1e-12)
        assert modular(B11, f, mu, res.value) == pytest.approx(1.0, abs=1e-11)

    def test_extreme_q(self):
        mu, f = atoms([1, 1], [0.25, 0.25])  # mass 1/2
        res = luxemburg_norm(YoungFunction.log_bump(1, 1e5), f, mu)
        assert res.value == pytest.approx(0.9999811590426955, abs=1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("q", [1e18, 1e300])
    def test_q_past_closed_form_margin(self, p, q):
        # the margin of the closed-form ends is about 2^-50 * 2q / p, past
        # where exp overflows: hi is capped and lo underflows to 0
        mu, f = atoms([1.0], [1.0])
        with pytest.raises(NumericError, match=r"bracket \[0\.0, .*\] underflows"):
            luxemburg_norm(YoungFunction.log_bump(p, q), f, mu)

    def test_nan_lower_end_raises(self):
        # big / A^{-1}(1/w) overflows, and its margin of about 1e85 underflows
        # exp: the lower end is inf * 0 = nan, not a positive finite double
        mu, f = atoms(
            [8.398933194753675e-301, 2.472773251102138e117, 12.154619078757218],
            [8.564272808475038e-301, 1.7e308, 9.986175856376279e-301],
        )
        with pytest.raises(NumericError, match=r"bracket \[nan, .*\] underflows, or leaves"):
            luxemburg_norm(YoungFunction(1.5, 1e100, math.e), f, mu)

    @pytest.mark.parametrize("q", [0.0, 1.0, 1e5])
    def test_norm_past_largest_double_raises(self, q):
        # the modular is 2 at the capped end DBL_MAX: the root lies past it,
        # where no double can report it (largest_double in EDGE_CASES is at it)
        mu, f = atoms([sys.float_info.max, 1.0], [2.0, 1.0])
        with pytest.raises(NumericError, match="norm exceeds the double range: modular 2.0"):
            luxemburg_norm(YoungFunction.log_bump(1.0, q), f, mu)

    @pytest.mark.parametrize("q", [0.0, 1.0, 100.0])
    def test_norm_past_largest_double_below_the_cap_raises(self, q):
        # the loop stops one double below the capped hi = DBL_MAX, which it
        # never evaluates, with the modular about 1.6e308 (2.1e307 at q = 100)
        mu, f = atoms(*PAST_LARGEST_DOUBLE)
        message = r"norm exceeds the double range: modular [12]\.\d+e\+30[78]"
        with pytest.raises(NumericError, match=message):
            luxemburg_norm(YoungFunction.log_bump(1.0, q), f, mu)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu, f = random_instance(rng, n_hi=20)
            base = luxemburg_norm(B11, f, mu, tol=1e-12).value
            for c in (0.25, 3.0, 1e4):
                scaled = SampledFunction(c * f.values)
                got = luxemburg_norm(B11, scaled, mu, tol=1e-12).value
                assert got == pytest.approx(c * base, rel=1e-9)

    def test_lp_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            mu, f = random_instance(rng, n_hi=25)
            for p in (1.0, 2.0, 3.5, 10.0):
                lux = luxemburg_norm(YoungFunction.power(p), f, mu, tol=1e-12).value
                assert lux == pytest.approx(p_norm(f, mu, p), rel=1e-10)

    def test_dominated_function_has_smaller_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            mu, f = random_instance(rng, n_hi=15)
            g = SampledFunction(np.abs(f.values) + rng.uniform(0.0, 2.0, len(f)))
            A = YoungFunction.log_bump(1.5, 2)
            assert (
                luxemburg_norm(A, f, mu).value
                <= luxemburg_norm(A, g, mu).value + 1e-9
            )

    def test_embedding_p_norm_below_certified_constant(self):
        # ||f||_p <= C ||f||_{B_pq} with C the grid constant for t^p <= B_pq(ct)
        rng = np.random.default_rng(29)
        for p, q in ((1.0, 1.0), (2.0, 3.0)):
            C = compare(YoungFunction.power(p), YoungFunction.log_bump(p, q), default_grid()).c_estimate
            for _ in range(5):
                mu, f = random_instance(rng, n_hi=15)
                lux = luxemburg_norm(YoungFunction.log_bump(p, q), f, mu).value
                assert p_norm(f, mu, p) <= C * lux * (1 + 1e-9)


def lognormal_instance(seed, n=10_000):
    """n atoms with values lognormal(0, 1) and weights U[0.1, 1] / n."""
    rng = np.random.default_rng(seed)
    return atoms(rng.lognormal(0.0, 1.0, n), rng.uniform(0.1, 1.0, n) / n)


PRUNE_TOL = 1e-10
EDGE_CASES = {
    "zero_atoms": ([0.0, 2.0, 0.0, 1.0, 0.5, 0.0], [1.0, 0.2, 3.0, 0.3, 0.1, 1e3]),
    "single_atom": ([3.0], [0.7]),
    "heavy_weights": ([1.0, 2.0, 4.0, 0.5, 3.9], [2.0, 5.0, 1e3, 7.0, 40.0]),
    "mass_3e299": (np.linspace(0.5, 4.0, 100), np.full(100, 3e297)),
    "extreme_values": ([1e-300, 1.0, 1e300], [1e-300, 0.5, 1e-300]),
    "largest_double": ([1.7976931348623157e308], [1.0]),  # the root, and hi, at the cap
}


def traced_norm(monkeypatch, A, f, mu, tol=PRUNE_TOL):
    """luxemburg_norm, and [atom count, slope flag, evaluated lams] of every
    kernel built."""
    kernels = []
    kernel = norm_module._modular_kernel

    @contextmanager
    def recording_kernel(A, a, w, big, slope=False, *args, **kwargs):
        lams = []
        kernels.append((np.size(a), slope, lams))
        with kernel(A, a, w, big, slope, *args, **kwargs) as modular_at:

            def recorded(lam):
                lams.append(lam)
                return modular_at(lam)

            yield recorded

    with monkeypatch.context() as mp:
        mp.setattr(norm_module, "_modular_kernel", recording_kernel)
        return luxemburg_norm(A, f, mu, tol), kernels


def counted_norm(monkeypatch, A, f, mu, tol):
    """luxemburg_norm, and the size of every atom array it builds a kernel on."""
    res, kernels = traced_norm(monkeypatch, A, f, mu, tol)
    return res, [size for size, _, _ in kernels]


def check_pruned_mass(A, f, mu, res, kept):
    """pruned_mass is the weight of the dropped atoms, the len(f) - kept
    smallest |f_i|, to 1e-12, and pruned_bound bounds what they add at every
    lam in the final bracket."""
    dropped = np.argsort(np.abs(f.values))[: len(f) - kept]
    exact = math.fsum(mu.weights[dropped])
    assert res.pruned_mass == pytest.approx(exact, rel=1e-12, abs=0.0)
    top_dropped = float(np.abs(f.values[dropped]).max())
    assert exact * A.value(top_dropped / res.bracket_lo) <= res.pruned_bound


class TestPruning:
    """luxemburg_norm solves on the atoms above a certified cut; the full
    modular, dropped atoms included, still meets tol."""

    @pytest.mark.parametrize("q", [1.0, 10.0, 100.0, 1e5])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_full_modular_meets_tol(self, monkeypatch, p, q):
        mu, f = lognormal_instance(seed=int(10 * p + math.log10(q)))
        A = YoungFunction.log_bump(p, q)
        res, sizes = counted_norm(monkeypatch, A, f, mu, PRUNE_TOL)
        assert res.status is NormStatus.FINITE
        assert abs(modular(A, f, mu, res.value) - 1.0) <= res.residual <= PRUNE_TOL
        assert modular(A, f, mu, res.value * (1 - 1e-9)) >= 1.0
        assert modular(A, f, mu, res.value * (1 + 1e-9)) <= 1.0

        # the solver kept the `kept` largest |f_i| and dropped the rest
        kept = max(sizes)
        assert all(s == kept for s in sizes)
        order = np.argsort(np.abs(f.values))
        dropped = order[: len(order) - kept]
        w, a = mu.weights[dropped], np.abs(f.values[dropped])
        assert res.pruned_mass == pytest.approx(float(w.sum()), rel=1e-12, abs=0.0)
        contribution = float(w @ A.value_array(a / res.value))
        assert contribution <= res.pruned_bound <= 0.5 * PRUNE_TOL
        if len(a):  # the bound holds at every lam in the final bracket
            worst = float(w.sum()) * A.value(float(a.max()) / res.bracket_lo)
            assert worst <= res.pruned_bound * (1 + 1e-12)
        if q == 1.0:
            assert res.pruned_mass == 0.0 and res.pruned_bound == 0.0
            assert kept == len(f)
        if q == 1e5:
            assert kept <= 64

    @pytest.mark.parametrize("q", [1.0, 100.0, 1e5])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, case, p, q):
        mu, f = atoms(*EDGE_CASES[case])
        A = YoungFunction.log_bump(p, q)
        res = luxemburg_norm(A, f, mu, PRUNE_TOL)
        assert res.status is NormStatus.FINITE
        assert res.bracket_lo <= res.value <= res.bracket_hi
        assert 0.0 <= res.pruned_bound <= 0.5 * PRUNE_TOL
        assert res.residual <= PRUNE_TOL
        # log-scale bisection: brackets spanning 600 decades cost no more
        assert res.iterations <= 64

    @pytest.mark.parametrize("ratio", [1.0, 1e3])
    @pytest.mark.parametrize("q", [0.0, 1.0, 100.0, 1e5])
    @pytest.mark.parametrize("p", [1.0, 2.0, 100.0])
    @pytest.mark.parametrize("case", ["lognormal", *sorted(EDGE_CASES)])
    def test_zero_atoms_never_move_the_norm(self, monkeypatch, case, p, q, ratio):
        # atoms with f_i = 0, of total weight ratio times the mass of the
        # support, fall below the cut: each solve's residual is within tol and
        # the modular's log slope is at least p, so the norms agree within
        # 2 tol / p, and the zeros' weight is pruned with the rest
        if case == "lognormal":
            mu, f = lognormal_instance(seed=5, n=1000)
            values, weights = f.values, mu.weights
        else:
            values, weights = (np.asarray(x, dtype=float) for x in EDGE_CASES[case])
        rng = np.random.default_rng(7)
        zero_weights = rng.uniform(0.1, 1.0, 8)
        zero_weights *= ratio * float(weights[values != 0.0].sum()) / zero_weights.sum()
        at = rng.integers(0, len(values) + 1, len(zero_weights))
        padded_values = np.insert(values, at, 0.0)
        padded_weights = np.insert(weights, at, zero_weights)
        A = YoungFunction.log_bump(p, q)
        mu, f = atoms(values, weights)
        base = luxemburg_norm(A, f, mu, PRUNE_TOL)
        mu, f = atoms(padded_values, padded_weights)
        res, [kept] = counted_norm(monkeypatch, A, f, mu, PRUNE_TOL)
        assert res.status is NormStatus.FINITE and res.residual <= PRUNE_TOL
        assert abs(res.value / base.value - 1.0) <= 2.0 * PRUNE_TOL / p

        # the solver kept the `kept` largest |f_i| and dropped the rest
        dropped = np.argsort(padded_values)[: len(padded_values) - kept]
        assert res.pruned_mass == pytest.approx(
            float(padded_weights[dropped].sum()), rel=1e-12, abs=0.0
        )
        assert res.pruned_mass >= float(zero_weights.sum()) * (1.0 - 1e-12)

    def test_pruned_mass_by_subtraction(self, monkeypatch):
        # one atom of 10^4 is kept, so pruned_mass is the total mass less the
        # kept mass: at least half the total remains and nothing cancels
        mu, f = lognormal_instance(seed=4)
        A = YoungFunction.log_bump(2.0, 1e5)
        res, [kept] = counted_norm(monkeypatch, A, f, mu, PRUNE_TOL)
        assert kept == 1
        top = int(np.argmax(np.abs(f.values)))
        assert res.pruned_mass == mu.total_mass - float(mu.weights[top])
        check_pruned_mass(A, f, mu, res, kept)

    @pytest.mark.parametrize("share", [0.9, 1.0 - 1e-9])
    def test_pruned_mass_by_direct_sum(self, monkeypatch, share):
        # one atom holds more than half the mass, so the total less the kept
        # mass would cancel: the dropped 1e-30-sized atoms are summed directly
        rng = np.random.default_rng(9)
        small = rng.uniform(0.1, 1.0, 1000)
        values = np.concatenate([[1.0], 1e-30 * small])
        weights = np.concatenate([[share], small * (1.0 - share) / small.sum()])
        mu, f = atoms(values, weights)
        A = YoungFunction.log_bump(2.0, 1.0)
        res, [kept] = counted_norm(monkeypatch, A, f, mu, PRUNE_TOL)
        assert kept == 1
        check_pruned_mass(A, f, mu, res, kept)

    def test_pruned_mass_by_direct_sum_threaded(self, monkeypatch, pool_tasks):
        # 2^17 + 1000 atoms, 1000 of them 1e-30-sized and spread over every
        # block: the 2^17 kept ones hold 0.9 of the mass, so the dropped
        # weights are summed directly, and the kernel runs on two threads,
        # after the one-block kernel of the seed's strided sample; every
        # field matches the serial solve
        rng = np.random.default_rng(10)
        n = 2**17 + 1000
        values, weights = rng.uniform(0.5, 1.0, n), rng.uniform(0.1, 1.0, n)
        dropped = np.zeros(n, dtype=bool)
        dropped[rng.choice(n, 1000, replace=False)] = True
        values[dropped] *= 1e-30
        weights[dropped] *= 0.1 / weights[dropped].sum()
        weights[~dropped] *= 0.9 / weights[~dropped].sum()
        mu, f = atoms(values, weights)
        A = YoungFunction.log_bump(2.0, 1.0)
        monkeypatch.setattr(norm_module, "_cpus", lambda: 1)
        serial = hexed(luxemburg_norm(A, f, mu))
        assert not pool_tasks
        monkeypatch.setattr(norm_module, "_cpus", lambda: 2)
        res, [sample, kept] = counted_norm(monkeypatch, A, f, mu, PRUNE_TOL)
        assert kept == 2**17 and pool_tasks
        assert sample == len(range(0, kept, kept // norm_module._SEED_SAMPLE))
        assert hexed(res) == serial
        check_pruned_mass(A, f, mu, res, kept)

    @pytest.mark.parametrize("q", [1.0, 1e5])
    def test_allocation(self, monkeypatch, q):
        # tracemalloc sees numpy's buffers.  The set-up takes |f| of a chunk
        # and the cut a mask of the runs of chunks above it (one chunk at
        # q = 1e5, none at q = 1, whose one run lies wholly above the cut),
        # freed before the kernel makes its buffer and a second for the slope:
        # with one atom kept (q = 1e5) nothing is N-sized, and with nothing pruned (q = 1)
        # only the kernel's log weights (8 B/atom) are; a whole-array |f|,
        # mask, index or gather would exceed that, and so would the seed's
        # sample kernel kept alive through the solve.  One thread, whose
        # blocks are of equal size: test_allocation_sharded takes two
        monkeypatch.setattr(norm_module, "_cpus", lambda: 1)
        n = 100_000
        mu, f = lognormal_instance(seed=3, n=n)
        A = YoungFunction.log_bump(2.0, q)
        luxemburg_norm(A, f, mu)  # first-call allocations are not the solve's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = luxemburg_norm(A, f, mu)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        block = norm_module._blocks(n)[0].stop  # atoms in the largest block
        if q == 1.0:
            assert res.pruned_mass == 0.0
            bound = 8 * n + 17 * block
        else:
            assert res.pruned_mass > 0.0
            bound = 9 * block
        assert peak <= bound + 16 * 1024, peak / n

    def test_allocation_sharded(self, monkeypatch, pool_tasks):
        # on two threads each owns a block buffer and, for the slope, the
        # kernel's second one; beside them the serial solve's log weights and
        # a block's slack.  At q = 1e5 the kernel is serial: no pool.  1e5
        # atoms are two blocks of 50000
        monkeypatch.setattr(norm_module, "_cpus", lambda: 2)
        for n in (4 * norm_module._BLOCK, 100_000):
            block = norm_module._blocks(n)[0].stop  # atoms in the largest block
            mu, f = lognormal_instance(seed=3, n=n)
            for q, bound in ((1.0, 8 * n + 33 * block), (1e5, 17 * block)):
                A = YoungFunction.log_bump(2.0, q)
                luxemburg_norm(A, f, mu)
                pool_tasks.clear()
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    res = luxemburg_norm(A, f, mu)
                    peak = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
                assert (res.pruned_mass == 0.0) == (q == 1.0) == bool(pool_tasks)
                # the pool's thread, futures and per-thread block views add about
                # 20 KB of Python objects to the serial solve's 16 KB allowance
                assert peak <= bound + 32 * 1024, (n, q, peak / n)

    def test_cut_underflow_drops_only_zero_atoms(self):
        # lo * A^{-1}(tol / (4s)) underflows to 0: every dropped atom has
        # f_i = 0, so the dropped atoms add nothing and pruned_bound is 0
        mu, f = atoms([0.0, 1e-300], [1e15, 1.0])
        res = luxemburg_norm(YoungFunction.power(1), f, mu, PRUNE_TOL)
        assert res.pruned_mass == 1e15 and res.pruned_bound == 0.0
        assert res.value == pytest.approx(1e-300, rel=PRUNE_TOL)

    def test_subnormal_values(self):
        # a subnormal cut, which has too few bits to bound what it drops, is
        # taken as 0; a lower end that underflows to 0 raises: every input
        # gives a FINITE result or a NumericError, and nothing else
        grid = [5e-324, 1e-323, 1.5e-323, 2e-323, 1e-320, 2.2e-308]
        weights = [[1.0, 1.0], [0.3, 0.5], [1.0, 1e-3], [1e-3, 1.0]]
        outcomes = set()
        for a, b in itertools.product(grid, grid):
            for w, q in itertools.product(weights, [0.0, 1.0, 1e5, 1e9]):
                mu, f = atoms([a, b], w)
                try:
                    res = luxemburg_norm(YoungFunction.log_bump(1.0, q), f, mu)
                except NumericError:
                    outcomes.add("NumericError")
                else:
                    outcomes.add(res.status)
                    assert res.bracket_lo <= res.value <= res.bracket_hi
        assert outcomes == {NormStatus.FINITE, "NumericError"}
        mu, f = atoms([5e-324], [1.0])
        assert luxemburg_norm(YoungFunction.log_bump(1.0, 1e5), f, mu).value == 5e-324
        mu, f = atoms([5e-324, 5e-324], [0.3, 0.5])
        with pytest.raises(NumericError, match=r"bracket \[0\.0, 5e-324\] underflows"):
            luxemburg_norm(YoungFunction.log_bump(1.0, 0.0), f, mu)


NEWTON_N = norm_module._NEWTON_MIN_ATOMS  # fewest input atoms that take Newton steps

# atom values from a cluster in [0.9, 1), which no tested p, q prunes
NEWTON_CASES = {
    "below_threshold": lambda c: c[1:],
    "at_threshold": lambda c: c,
    "wide_values": lambda c: np.concatenate([1e300 * c, np.geomspace(1e-300, 1e300, 4096)]),
    "all_equal": lambda c: np.full(len(c), 3.0),
    "bin_edges": lambda c: np.repeat(np.exp(1e-5 * np.arange(4097)), 8),
    "zeros_pruned": lambda c: np.concatenate([c, np.zeros(4096), 1e-30 * c[:4096]]),
    "extreme_weights": lambda c: c,
}


def newton_case(name):
    rng = np.random.default_rng(len(name))
    values = NEWTON_CASES[name](rng.uniform(0.9, 1.0, NEWTON_N))
    if name == "extreme_weights":
        return values, rng.choice([1e-300, 1e3], len(values))
    return values, rng.uniform(0.1, 1.0, len(values)) / len(values)


def norm_mpmath(A, values, weights, guess):
    """The root lam of sum_i w_i A(a_i/lam) = 1 at 50 digits, by the secant
    method in log lam from guess."""
    with mpmath.workdps(50):
        a, w = [mpmath.mpf(float(x)) for x in values], [mpmath.mpf(float(x)) for x in weights]

        def log_modular(x):
            t = [ai / mpmath.exp(x) for ai in a]
            return mpmath.log(
                mpmath.fsum(wi * ti**A.p * mpmath.log(A.shift + ti) ** A.q for wi, ti in zip(w, t))
            )

        return mpmath.exp(mpmath.findroot(log_modular, mpmath.log(guess), tol=mpmath.mpf(10) ** -45))


def check_certified(A, values, weights, res, kernels, tol=PRUNE_TOL):
    """iterations counts the evaluations of the one kernel, over the kept
    atoms, and the long-double oracle confirms the final bracket and the
    value.  An end that is also the value is a closed-form end, accepted on
    its residual, and held to its side all the same."""
    *sample, (kept, slope, lams) = kernels
    assert slope == (len(values) >= NEWTON_N)
    # from _SEED_MIN_ATOMS kept atoms the seed's sample kernel, evaluated once at lo, comes first
    seeded = kept >= norm_module._SEED_MIN_ATOMS
    assert [len(evaluated) for _, _, evaluated in sample] == [1] * seeded
    assert res.iterations == len(lams)
    assert res.status is NormStatus.FINITE and res.residual <= tol
    assert abs(modular_longdouble(A, values, weights, res.value) - 1.0) <= tol
    assert modular_longdouble(A, values, weights, res.bracket_lo) >= 1.0
    assert modular_longdouble(A, values, weights, res.bracket_hi) <= 1.0 + res.pruned_bound


class TestCoarseStart:
    """From NEWTON_N input atoms on, luxemburg_norm takes safeguarded Newton
    steps from the closed-form lo instead of bisecting, however few atoms
    pruning keeps (the class keeps the name of the coarse start those steps
    replaced)."""

    @pytest.mark.parametrize("q", [0.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 100.0])
    @pytest.mark.parametrize("case", sorted(NEWTON_CASES))
    def test_certified_bracket(self, monkeypatch, case, p, q):
        values, weights = newton_case(case)
        mu, f = atoms(values, weights)
        A = YoungFunction.log_bump(p, q)
        res, kernels = traced_norm(monkeypatch, A, f, mu)
        [(kept, _, _)] = kernels
        assert (kept >= NEWTON_N) == (case != "below_threshold")
        if case != "below_threshold":
            assert res.iterations <= 6
        if case == "zeros_pruned":
            assert res.pruned_mass > 0.0
        check_certified(A, values, weights, res, kernels)

    def test_few_evaluations(self, monkeypatch):
        # nothing pruned, the kernel sums the slope, and Newton steps from lo
        # take a handful of evaluations where bisection takes 32 to 36.  On
        # 1e5 atoms the first step comes from the seed's sample, evaluated
        # once at lo, so the solve takes 3 full evaluations where it took 4
        for n, q in ((100_000, 1.0), (10_000, 1.0), (10_000, 10.0)):
            mu, f = lognormal_instance(seed=3, n=n)
            res, kernels = traced_norm(monkeypatch, YoungFunction.log_bump(2, q), f, mu)
            *sample, (_, slope, lams) = kernels
            assert res.pruned_mass == 0.0 and slope and res.iterations == len(lams)
            assert [len(evaluated) for _, _, evaluated in sample] == ([1] if n == 100_000 else [])
            assert res.iterations <= (3 if sample else 6)

    @pytest.mark.parametrize("q", [100.0, 1e5])
    @pytest.mark.parametrize("p", [1.0, 2.0, 100.0])
    def test_pruned_large_input_takes_newton_steps(self, monkeypatch, p, q):
        # pruning keeps fewer than NEWTON_N of 1e5 atoms, whose root lies near
        # lo; Newton steps from lo reach it where bisection took 33 to 38.
        # The steps never evaluate hi, yet the slope floor p narrows the
        # bracket from the closed-form hi, up to 1.3 times the value
        mu, f = lognormal_instance(seed=4, n=100_000)
        A = YoungFunction.log_bump(p, q)
        res, kernels = traced_norm(monkeypatch, A, f, mu)
        [(kept, slope, _)] = kernels
        assert kept < NEWTON_N and slope
        assert res.iterations <= 4
        assert res.bracket_hi - res.bracket_lo <= 1e-9 * res.value
        check_certified(A, f.values, mu.weights, res, kernels)

    @pytest.mark.parametrize("n", [3, 32, NEWTON_N - 1])
    def test_small_inputs_bisect(self, monkeypatch, n):
        mu, f = lognormal_instance(seed=5, n=n)
        for q in (0.0, 100.0, 1e5):
            A = YoungFunction.log_bump(2.0, q)
            res, kernels = traced_norm(monkeypatch, A, f, mu)
            [(_, slope, _)] = kernels
            assert not slope
            check_certified(A, f.values, mu.weights, res, kernels)

    @pytest.mark.parametrize("q", [1.0, 100.0, 1e4])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_small_inputs_narrow_by_slope_floor(self, monkeypatch, p, q):
        # a bisected solve that meets tol narrows its bracket as a Newton
        # one does: F = log S has F' >= p in u = log(M/lam), so the kept
        # root lies within (|log S| + eps)/p + 2^-50 of the accepted u, eps
        # from n >= the kept atoms.  The bracket still holds the 50-digit root
        solved, root = [], norm_module._root

        def recording(g, lo, hi, tol, **kwargs):
            solved.append(root(g, lo, hi, tol, **kwargs))
            return solved[-1]

        monkeypatch.setattr(norm_module, "_root", recording)
        A = YoungFunction.log_bump(p, q)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 33))
            values, weights = rng.lognormal(0.0, 1.0, n), rng.uniform(0.1, 1.0, n) / n
            mu, f = atoms(values, weights)
            res = luxemburg_norm(A, f, mu)
            lam, h, *_ = solved.pop()
            assert res.residual <= PRUNE_TOL and res.value == lam
            eps = norm_module._log_sum_error(A, float(values.max()), lam, n)
            m = (abs(math.log1p(-h)) + eps) / p
            assert lam * math.exp(-m - 2.0**-50) <= res.bracket_lo
            assert res.bracket_hi <= lam * math.exp(m + 2.0**-50)
            assert res.bracket_lo <= norm_mpmath(A, values, weights, lam) <= res.bracket_hi

    def test_step_past_hi_evaluates_hi(self, monkeypatch):
        # on equal values the closed-form hi is the root; the first step
        # from lo lands on or past it, so hi is evaluated and returned; the
        # slope floor p then raises the unevaluated lo toward it
        values, weights = newton_case("all_equal")
        mu, f = atoms(values, weights)
        A = YoungFunction.log_bump(2, 1)
        res, kernels = traced_norm(monkeypatch, A, f, mu)
        [(_, _, lams)] = kernels
        assert len(lams) == 2 and lams[1] == res.bracket_hi == res.value
        assert res.bracket_lo >= lams[0]
        check_certified(A, values, weights, res, kernels)

    def test_precision_exhausted(self, monkeypatch):
        # at q = 1e9 one ULP of lam moves the modular by about 1e-7 > tol, so
        # the steps end when no double lies strictly inside the bracket
        reps = 2 * NEWTON_N // 4  # the 4s, NEWTON_N atoms, survive pruning
        values, weights = np.tile([1.0, 2.0, 4.0, 4.0], reps), np.tile([0.3, 0.3, 0.1, 0.2], reps)
        mu, f = atoms(values, weights / reps)
        res, kernels = traced_norm(monkeypatch, YoungFunction.log_bump(2, 1e9), f, mu)
        [(kept, slope, lams)] = kernels
        assert kept == NEWTON_N and slope
        assert res.iterations == len(lams) <= 20
        assert math.nextafter(res.bracket_lo, math.inf) == res.bracket_hi
        assert res.value in (res.bracket_lo, res.bracket_hi)

    def test_step_below_half_an_ulp_takes_the_next_double(self, monkeypatch):
        # at p = 1, q = 1e7 one ULP of lam moves the modular by about 2e-9,
        # above tol, so near the root a Newton step rounds to its start.  The
        # loop then evaluates the next double toward the root, where taking
        # midpoints of the bracket down to one ULP took 40 evaluations
        mu, f = lognormal_instance(seed=7, n=1024)
        res, kernels = traced_norm(monkeypatch, YoungFunction.log_bump(1, 1e7), f, mu)
        [(_, slope, lams)] = kernels
        assert slope and res.iterations == len(lams) <= 10
        assert math.nextafter(res.bracket_lo, math.inf) == res.bracket_hi
        assert res.value in (res.bracket_lo, res.bracket_hi)

    @pytest.mark.parametrize("q", [0.0, 100.0])
    def test_overshooting_slope(self, monkeypatch, q):
        # a slope read 1000 times too small sends every step out of the
        # bracket: hi, then geometric midpoints, keep it certified
        kernel = norm_module._modular_kernel

        @contextmanager
        def flat_kernel(A, a, w, big, *args, **kwargs):
            with kernel(A, a, w, big, *args, **kwargs) as modular_at:

                def flat(lam):
                    m, d = modular_at(lam)
                    return m, 1e-3 * d

                yield flat

        monkeypatch.setattr(norm_module, "_modular_kernel", flat_kernel)
        values, weights = newton_case("at_threshold")
        mu, f = atoms(values, weights)
        A = YoungFunction.log_bump(1.0, q)
        res, kernels = traced_norm(monkeypatch, A, f, mu)
        assert res.iterations <= 64
        check_certified(A, values, weights, res, kernels)

    @pytest.mark.parametrize("q", [0.0, 1.0, 100.0])
    def test_overflow_at_lo_evaluates_hi(self, monkeypatch, q):
        # the modular read as inf at lo leaves no Newton step (nan), so the
        # closed-form hi is evaluated next, and the solve still ends certified
        kernel = norm_module._modular_kernel

        @contextmanager
        def overflowing_kernel(A, a, w, big, *args, **kwargs):
            with kernel(A, a, w, big, *args, **kwargs) as modular_at:
                calls = []

                def overflowing(lam):
                    calls.append(lam)
                    return (math.inf, math.inf) if len(calls) == 1 else modular_at(lam)

                yield overflowing

        monkeypatch.setattr(norm_module, "_modular_kernel", overflowing_kernel)
        values, weights = newton_case("at_threshold")
        mu, f = atoms(values, weights)
        A = YoungFunction.log_bump(2.0, q)
        res, kernels = traced_norm(monkeypatch, A, f, mu)
        [(_, slope, lams)] = kernels
        top = int(np.argmax(values))
        lo, hi = norm_module._closed_form_bracket(
            A, values[top], weights[top], float(weights.sum()), len(values)
        )
        assert slope and lams[:2] == [lo, hi]
        check_certified(A, values, weights, res, kernels)


def seed_corpus():
    """{case: (values, weights)} of 2^16 + 1 to 2^18 atoms, the sizes whose
    kept atoms take the seed's sampled first step, drawn in this order."""
    rng = np.random.default_rng(25)
    corpus = {}
    n = 2**16 + 1
    corpus["lognormal"] = rng.lognormal(0.0, 1.0, n), rng.uniform(0.1, 1.0, n) / n
    x = np.linspace(-1.0, 1.0, 100_003)  # sampled on [-1, 1]: zeros at both ends
    corpus["one_minus_x_squared"] = 1.0 - x * x, np.full(len(x), 1.0 / len(x))
    n = 3 * 2**16 + 7  # one atom 100 times the rest, holding half the mass
    values, weights = rng.uniform(0.5, 1.0, n), rng.uniform(0.1, 1.0, n) / n
    values[n // 3], weights[n // 3] = 100.0, 0.5
    corpus["dominant_spike"] = values, weights
    n = 2**18
    values = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
    values[::5] = 0.0
    corpus["mixed_signs_with_zeros"] = values, rng.uniform(0.1, 1.0, n) / n
    n = 2**17 + 3  # total mass about 5.5
    corpus["mass_above_one"] = rng.lognormal(0.0, 1.0, n), rng.uniform(0.1, 1.0, n) * 10.0 / n
    return corpus


SEED_CASES = [
    "lognormal",
    "one_minus_x_squared",
    "dominant_spike",
    "mixed_signs_with_zeros",
    "mass_above_one",
]


class TestSampledSeed:
    """From _SEED_MIN_ATOMS kept atoms the first Newton step comes from the
    modular and its slope at lo on a strided sample, not from a full
    evaluation there.  The sample only proposes a start: it never moves the
    bracket and is not counted."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 100.0])
    @pytest.mark.parametrize("case", SEED_CASES)
    def test_never_more_evaluations(self, monkeypatch, case, p):
        # every seeded solve is certified, meets tol in long double, and takes
        # no more full evaluations than the same solve started at lo.  The
        # sample's largest atom gives way to the top atom because, standing
        # for its whole stride, an atom near M overshoots the root: 4 full
        # evaluations against 3 on mixed_signs_with_zeros at p = 2, q = 30
        values, weights = seed_corpus()[case]
        mu, f = atoms(values, weights)
        for q in (0.0, 0.5, 1.0, 3.0, 10.0, 30.0):
            A = YoungFunction.log_bump(p, q)
            res, kernels = traced_norm(monkeypatch, A, f, mu)
            check_certified(A, values, weights, res, kernels)
            with monkeypatch.context() as mp:
                mp.setattr(norm_module, "_SEED_MIN_ATOMS", math.inf)
                plain, [_] = traced_norm(monkeypatch, A, f, mu)
            assert res.iterations <= plain.iterations
            assert abs(res.value / plain.value - 1.0) <= 2.0 * PRUNE_TOL / p


CERTIFICATE_SHIFTS = [1.0 + 2.0**-40, 1.5, E0, math.e, 100.0, 1e300]


class TestTaylorCertificate:
    """In u = log(M/lam), F = log S has F'' = q^2 Var_pi(r) + q E_pi[t r'(t)],
    r = t/((shift + t) log(shift + t)), so |F''| <= B2 = q (q/4 + 1) as 0 <= r
    < 1 and -1 < t r' <= 1/4.  luxemburg_norm returns a Newton point without
    evaluating it where B2 step^2/2 plus the rounding meets the tolerance."""

    @pytest.mark.parametrize("shift", CERTIFICATE_SHIFTS)
    def test_r_and_its_log_slope_bounded(self, shift):
        # at 50 digits, from t = 1e-300 to 1e300 and near t = 1: 0 <= r < 1,
        # and t r' = dr/dlog t, numerically, is r (shift/(shift + t) - r) in (-1, 1/4]
        with mpmath.workdps(50):
            s = mpmath.mpf(shift)

            def r(v):
                t = mpmath.exp(v)
                return t / ((s + t) * mpmath.log(s + t))

            ts = [mpmath.mpf(10) ** k for k in range(-300, 301, 10)]
            ts += [1 + mpmath.mpf(d) for d in (-0.5, -1e-8, 1e-8, 0.5)]
            for t in ts:
                v = mpmath.log(t)
                rt, slope = r(v), mpmath.diff(r, v)
                assert 0 <= rt < 1
                assert -1 < slope <= mpmath.mpf(1) / 4
                assert mpmath.almosteq(slope, rt * (s / (s + t) - rt), rel_eps=1e-20)

    @pytest.mark.parametrize("q", [0.5, 1.0, 10.0, 1e3, 1e5])
    def test_second_derivative_bound(self, q):
        # F'' at 50 digits on random 2-32-atom inputs, at u from -4 to 4
        rng = np.random.default_rng(int(10 * math.log10(q)) + 20)
        bound, worst = q * (0.25 * q + 1.0), 0.0
        with mpmath.workdps(50):
            for _ in range(6):
                n = int(rng.integers(2, 33))
                p = float(rng.choice([1.0, 2.0, 100.0]))
                a = [mpmath.mpf(float(x)) for x in rng.lognormal(0.0, 2.0, n)]
                w = [mpmath.mpf(float(x)) for x in rng.uniform(0.1, 1.0, n) / n]
                big = max(a)

                def F(u):
                    t = [x / big * mpmath.exp(u) for x in a]
                    return mpmath.log(mpmath.fsum(
                        wi * ti**p * mpmath.log(E0 + ti) ** q for wi, ti in zip(w, t)))

                for u in np.linspace(-4.0, 4.0, 5):
                    worst = max(worst, float(abs(mpmath.diff(F, mpmath.mpf(u), 2))) / bound)
        assert 0.0 < worst <= 1.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 100.0])
    @pytest.mark.parametrize("case", sorted(NEWTON_CASES))
    def test_accepted_steps(self, monkeypatch, case, p):
        # a value never evaluated is an accepted step: its exact modular, in
        # long double, meets tol and the residual, which is a bound there.
        # Every Newton case accepts one at p = 1 and 2; at p = 100 the
        # rounding bound grows as p (2.5e-10 at wide_values' 1e300) and may exceed tol
        values, weights = newton_case(case)
        mu, f = atoms(values, weights)
        accepted = 0
        for q in (0.5, 1.0, 3.0, 10.0, 100.0, 1e3, 1e5):
            A = YoungFunction.log_bump(p, q)
            res, kernels = traced_norm(monkeypatch, A, f, mu)
            check_certified(A, values, weights, res, kernels)
            if res.value not in kernels[-1][2]:
                accepted += 1
                assert abs(modular_longdouble(A, values, weights, res.value) - 1.0) <= res.residual
        if case == "below_threshold":  # bisected
            assert accepted == 0
        elif p < 100.0:
            assert accepted > 0

    def test_one_evaluation_fewer(self, monkeypatch):
        # the last evaluation of each solve only confirmed the point the one
        # before it proposed; the certificate accepts that point instead
        for n, q, evaluations in ((100_000, 1.0, 2), (10_000, 1.0, 3), (10_000, 10.0, 3),
                                  (10_000, 100.0, 2)):
            mu, f = lognormal_instance(seed=3, n=n)
            A = YoungFunction.log_bump(2, q)
            res, kernels = traced_norm(monkeypatch, A, f, mu)
            assert res.iterations == evaluations and res.value not in kernels[-1][2]
            check_certified(A, f.values, mu.weights, res, kernels)

    def test_bracket_from_slope_bound(self, monkeypatch):
        # the cli workload's input (1e4 atoms, seed 1) at p = 2, q = 1e5: F'
        # >= F'_k - B2 |u - u_k| near the root narrows the final bracket to
        # within 1e-11 of the value, where the slope floor p left 2.5e-10
        mu, f = lognormal_instance(seed=1)
        A = YoungFunction.log_bump(2, 1e5)
        res, kernels = traced_norm(monkeypatch, A, f, mu)
        assert res.bracket_hi - res.bracket_lo <= 1e-11 * res.value
        check_certified(A, f.values, mu.weights, res, kernels)

    @pytest.mark.parametrize("q, tol", [(1e5, PRUNE_TOL), (1.0, 1e-12)])
    def test_no_taylor_test_where_eps_meets_tol(self, monkeypatch, q, tol):
        # every bound is at least expm1(e) > e >= eps, so where eps >= tol -
        # pruned_bound (q = 1e5 on the cli workload's input; tol below eps at
        # q = 1) no step is accepted, and no evaluation runs the Taylor test or
        # forms a bound; the slope floor still narrows the final bracket
        mu, f = lognormal_instance(seed=1)
        A = YoungFunction.log_bump(2, q)
        bounds, expm1 = [], math.expm1
        monkeypatch.setattr(math, "expm1", lambda x: bounds.append(x) or expm1(x))
        res, kernels = traced_norm(monkeypatch, A, f, mu, tol)
        assert not bounds and res.value in kernels[-1][2]
        assert res.bracket_hi - res.bracket_lo <= 1e-11 * res.value


def kernel_builds(monkeypatch, call):
    """call(), and (min a, max a, big, len a) of every modular kernel it builds."""
    builds, kernel = [], norm_module._modular_kernel

    @contextmanager
    def recording_kernel(A, a, w, big, *args, **kwargs):
        builds.append((float(a.min()), float(a.max()), big, len(a)))
        with kernel(A, a, w, big, *args, **kwargs) as modular_at:
            yield modular_at

    with monkeypatch.context() as mp:
        mp.setattr(norm_module, "_modular_kernel", recording_kernel)
        return call(), builds


def signed_instance(n, zeros, seed=13):
    """n lognormal atoms, about 40% of them negative and, with zeros, every
    ninth set to 0.0 and every eleventh to -0.0."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0.0, 1.0, n) * np.where(rng.random(n) < 0.4, -1.0, 1.0)
    if zeros:
        values[::9], values[::11] = 0.0, -0.0
    return atoms(values, rng.uniform(0.1, 1.0, n) / n)


class TestKernelContract:
    """Every kernel is built on atoms a_i >= 0 with max a_i = big: each caller
    passes |f|, and the kernel takes no absolute value of its own."""

    @staticmethod
    def check(builds):
        assert builds
        for low, top, big, _ in builds:
            assert low >= 0.0 and top == big, (low, top, big)

    @pytest.mark.parametrize(
        "n,zeros,q",
        [
            (50, True, 1.0),  # bisected, the zeros pruned
            (10_000, True, 1e5),  # Newton, pruned at the cut
            (10_000, False, 1.0),  # Newton, nothing pruned
            (2**17, True, 1.0),  # seeded, the zeros pruned
            (2**17, False, 1.0),  # seeded, nothing pruned
        ],
    )
    def test_luxemburg_norm(self, monkeypatch, n, zeros, q):
        mu, f = signed_instance(n, zeros)
        res, builds = kernel_builds(
            monkeypatch, lambda: luxemburg_norm(YoungFunction.log_bump(2.0, q), f, mu)
        )
        self.check(builds)
        assert (res.pruned_mass > 0.0) == (zeros or q > 1.0)
        seeded = builds[-1][3] >= norm_module._SEED_MIN_ATOMS
        assert len(builds) == 1 + seeded and seeded == (n == 2**17)

    @pytest.mark.parametrize("lam", [1e-300, 0.5])  # max |f| / lam overflows, and not
    def test_modular(self, monkeypatch, lam):
        mu, f = signed_instance(1000, zeros=True)
        _, builds = kernel_builds(monkeypatch, lambda: modular(B11, f, mu, lam))
        self.check(builds)
        assert len(builds) == 1

    def test_p_norm(self, monkeypatch):
        mu, f = signed_instance(1000, zeros=True)
        _, builds = kernel_builds(monkeypatch, lambda: p_norm(f, mu, 2.0))
        self.check(builds)
        assert builds == [(0.0, 1.0, 1.0, 1000)]


# the nine q = 1 inputs of test_contract's grid where some b_i = w_i (|f_i|/lo)^p
# exceeds e^700, as (values, weights, p, shift)
WIDE_BASE_INPUTS = [
    ([5e-324, -5e-324, -1.4269073158487436e-162, 1e-310, 0.0],
     [1.7e308, 5e-324, 5e-324, 1e-310, 5853759575653375.0], 2.0, E0),
    ([1.7e308], [1.7e308], 1.0, 100.0),
    ([1.7e308, 1.7e308], [1.7e308, 1e-310], 1.5, 1.5),
    ([1.7e308, 1e-310], [1.7e308, 5e-324], 1.5, math.e),
    ([-0.0, -2.66658697892024e-301, 1.7e308, 1.7e308, 1.7e308],
     [1e-310, 5.378579223255014e-301, 1.7e308, 1e-310, 3.130461338450749e-114], 1.0, 1.5),
    ([-3.389200155018286e-301, 1.7e308, -0.0, 1e-310], [5e-324, 1.7e308, 5e-324, 5e-324],
     1.5, math.e),
    ([1.7e308, 5.989338695689426e-262, 2.3536985287797186e60, 5.891338389445255e269],
     [1.7e308, 5e-324, 1e-310, 1e-310], 2.0, math.e),
    ([3.997593799654008e-301, 1.7e308, 1e-310], [2.0809474594477534e-08, 1.7e308, 5e-324],
     1.0, 100.0),
    ([-1.7e308, 1e-310, 8.815740457673906e70, 1.7e308],
     [2.32784142252375e-301, 1e-310, 9.062837311881994e179, 1.7e308], 1.0, E0),
]


def solve_in_form(monkeypatch, A, f, mu, base):
    """luxemburg_norm with the kernel's base form as chosen (base) or taken
    away: (the result or the class of its OrliczError, ref of each kernel built)."""
    refs, kernel = [], norm_module._modular_kernel

    @contextmanager
    def forced_kernel(A, a, w, big, slope=False, ref=None):
        refs.append(ref)
        with kernel(A, a, w, big, slope, ref if base else None) as modular_at:
            yield modular_at

    with monkeypatch.context() as mp:
        mp.setattr(norm_module, "_modular_kernel", forced_kernel)
        try:
            return luxemburg_norm(A, f, mu), refs
        except OrliczError as exc:
            return type(exc), refs


class TestBaseForm:
    """At q = 1 the solver's kernel sums b_i L_i, b_i = w_i (a_i/lo)^p, where
    (M/lo)^p <= e^709 and mass max(1, (M/lo)^p) <= e^700, and the log-domain
    form elsewhere."""

    @staticmethod
    def cases():
        """(values, weights, p, shift): EDGE_CASES, test_subnormal_values'
        grid, WIDE_BASE_INPUTS and 2^17 lognormal atoms."""
        for values, weights in EDGE_CASES.values():
            yield from ((values, weights, p, E0) for p in (1.0, 2.0))
        grid = [5e-324, 1e-323, 1.5e-323, 2e-323, 1e-320, 2.2e-308]
        for a, b in itertools.product(grid, grid):
            for w in [[1.0, 1.0], [0.3, 0.5], [1.0, 1e-3], [1e-3, 1.0]]:
                yield [a, b], w, 1.0, E0
        yield from WIDE_BASE_INPUTS
        rng = np.random.default_rng(17)
        values, weights = rng.lognormal(0.0, 1.0, 2**17), rng.uniform(0.1, 1.0, 2**17) / 2**17
        yield from ((values, weights, p, E0) for p in (1.0, 2.0))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_same_results_as_log_form(self, monkeypatch, cpus):
        # each input solved with the base form where it is chosen, then with the
        # log-domain form forced: the same status or error, and values within
        # tol / p; where the base form is not chosen, the same bits
        monkeypatch.setattr(norm_module, "_cpus", lambda: cpus)
        forms = []
        for values, weights, p, shift in self.cases():
            mu, f = atoms(values, weights)
            A = YoungFunction(p, 1.0, shift)
            res, refs = solve_in_form(monkeypatch, A, f, mu, base=True)
            log_res, _ = solve_in_form(monkeypatch, A, f, mu, base=False)
            if isinstance(res, type) or isinstance(log_res, type) or not refs:
                assert res == log_res, (values, weights, p, shift)
                continue
            forms.append(refs[-1] is not None)
            if not forms[-1]:
                assert hexed(res) == hexed(log_res), (values, weights, p, shift)
            assert res.status == log_res.status
            assert abs(res.value - log_res.value) <= norm_module.DEFAULT_TOL / p * log_res.value
        assert any(forms) and not all(forms)

    @staticmethod
    def log_s_mpmath(A, a, w, lam):
        with mpmath.workdps(50):
            t = [mpmath.mpf(float(x)) / lam for x in a]
            return mpmath.log(mpmath.fsum(
                mpmath.mpf(float(v)) * x**A.p * mpmath.log(A.shift + x) for v, x in zip(w, t)
            ))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_log_sum_error_bounds_base_form(self, monkeypatch, p):
        # values and weights at 1e-300, 1 and 1e300, and two inputs whose
        # bracket spans about 700 in p log lam with S(hi) near 1: at lo, hi and
        # 7 points between, the base form's log S lies within _log_sum_error of
        # 50 digits, and so it does at hi of a bracket over 700 wide
        A = YoungFunction.log_bump(p, 1.0)
        rng = np.random.default_rng(int(p))
        scales = [1e-300, 1.0, 1e300]
        inputs = [([1.0, 0.5], [4e-311, 1e-4]), ([1.0, 0.999], [1e-304, 1.0])]
        for vs, ws in itertools.product(itertools.product(scales, repeat=2), repeat=2):
            inputs.append(((np.array(vs) * rng.uniform(0.5, 2.0, 2)).tolist(),
                           (np.array(ws) * rng.uniform(0.5, 2.0, 2)).tolist()))
        kernel, checked, spans = norm_module._modular_kernel, [], []
        for values, weights in inputs:
            mu, f = atoms(values, weights)
            big, top = max(values), int(np.argmax(values))
            lo, hi = norm_module._closed_form_bracket(A, big, weights[top], mu.total_mass, 2)

            @contextmanager
            def checking_kernel(A, a, w, big, slope=False, ref=None):
                with kernel(A, a, w, big, slope, ref) as modular_at:
                    if ref is not None:
                        assert ref == lo
                        for lam in [lo, *np.geomspace(lo, hi, 9)[1:-1], hi]:
                            s, exact = modular_at(float(lam))[0], self.log_s_mpmath(A, a, w, lam)
                            if exact > -650.0:  # S stays normal, with every bit
                                eps = norm_module._log_sum_error(A, big, float(lam), len(a))
                                assert abs(math.log(s) - exact) <= eps, (values, weights, lam)
                                checked.append(lam)
                                if lam == hi:
                                    spans.append(p * math.log(hi / lo))
                    yield modular_at

            with monkeypatch.context() as mp:
                mp.setattr(norm_module, "_modular_kernel", checking_kernel)
                try:
                    luxemburg_norm(A, f, mu)
                except OrliczError:
                    pass
        assert len(checked) >= 100 and max(spans) > 700.0

    # (values, weights, p, whether the base form is taken, the range of p log(M/lo))
    GUARD_EDGES = {
        "span_700_709_p1": ([1.0, 0.5, 0.25], [2.7e-311, 5e-5, 1e-4], 1.0, True, (700.0, 709.0)),
        "span_700_709_p2": ([1.0, 0.5, 0.25], [5.5e-311, 5e-5, 1e-4], 2.0, True, (700.0, 709.0)),
        # mass below 1 and (M/lo)^p past the largest double: log(mass) + p log(M/lo)
        # is under 700, but the power would overflow
        "power_past_overflow": ([1.0, 0.5], [1e-315, 1e-10], 2.0, False, (709.79, 750.0)),
        # weights above 1 on kept atoms whose (a_i/lo)^p is subnormal
        "underflow_heavy_weights": ([1.0, 1e-155, 3e-156, 0.5], [1.0, 1e303, 5e302, 2.0], 2.0, True,
                                    (-1.0, 1.0)),
        # mass above e^700 with mass (M/lo)^p near 1
        "mass_past_e700": ([1.0, 0.5], [1e306, 1e306], 2.0, False, (-710.0, -700.0)),
    }

    @pytest.mark.parametrize("case", GUARD_EDGES)
    def test_guard_edges(self, monkeypatch, case):
        # on each side of the base form's range test: where the base form is
        # taken, log S at lo, hi and 7 points between lies within the solve's own
        # _log_sum_error (its ref) of 50 digits, and the value within tol / p of
        # the log-domain form's; where it is not, the log-domain form's bits
        values, weights, p, base, (low, high) = self.GUARD_EDGES[case]
        A = YoungFunction.log_bump(p, 1.0)
        mu, f = atoms(values, weights)
        big, top = max(values), int(np.argmax(values))
        lo, hi = norm_module._closed_form_bracket(A, big, weights[top], mu.total_mass, len(values))
        assert low < p * math.log(big / lo) <= high
        kernel, checked = norm_module._modular_kernel, []

        @contextmanager
        def checking_kernel(A, a, w, big, slope=False, ref=None):
            with kernel(A, a, w, big, slope, ref) as modular_at:
                if ref is not None:
                    powers = (a / ref) ** p
                    if case.startswith("underflow"):  # a kept atom's power is subnormal
                        assert np.any((powers > 0.0) & (powers < sys.float_info.min) & (w > 1.0))
                    for lam in [lo, *np.geomspace(lo, hi, 9)[1:-1], hi]:
                        s, exact = modular_at(float(lam))[0], self.log_s_mpmath(A, a, w, lam)
                        if exact > -650.0:
                            eps = norm_module._log_sum_error(A, big, float(lam), len(a), ref)
                            assert abs(math.log(s) - exact) <= eps, (case, lam)
                            checked.append(lam)
                yield modular_at

        with monkeypatch.context() as mp:
            mp.setattr(norm_module, "_modular_kernel", checking_kernel)
            res, refs = solve_in_form(monkeypatch, A, f, mu, base=True)
        log_res, _ = solve_in_form(monkeypatch, A, f, mu, base=False)
        assert res.status == log_res.status == NormStatus.FINITE
        assert refs[-1] == (lo if base else None)
        if base:
            assert len(checked) >= 5
            assert abs(res.value - log_res.value) <= norm_module.DEFAULT_TOL / p * log_res.value
        else:
            assert hexed(res) == hexed(log_res)


class TestCharNormClosedForm:
    def test_unit_mass(self):
        assert char_norm_closed_form(YoungFunction.log_bump(3, 2), 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_power(self):
        assert char_norm_closed_form(YoungFunction.power(2), 4.0) == pytest.approx(2.0, rel=1e-11)

    def test_golden(self):
        assert char_norm_closed_form(B11, 2.0) == pytest.approx(CHAR_NORM_M2, rel=1e-10)

    def test_agrees_with_solver(self):
        # indicators split over unequal atoms so the solver really bisects
        for p in (1.0, 2.0, 3.0):
            for q in (0.5, 1.0, 5.0, 50.0, 1000.0):
                A = YoungFunction.log_bump(p, q)
                for m in (0.1, 0.5, 1.0, 2.0, 10.0):
                    mu = DiscreteMeasure([0, 1, 2], [m / 3, 2 * m / 3, 1.0])
                    chi = indicator(mu, {0, 1})
                    solver = luxemburg_norm(A, chi, mu).value
                    closed = char_norm_closed_form(A, m)
                    assert solver == pytest.approx(closed, rel=1e-8)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(DomainError):
            char_norm_closed_form(B11, 0.0)

    def test_infinite_mass_rejected(self):
        # log A(t) = -inf has no root t > 0
        with pytest.raises(DomainError, match="mass must be positive and finite"):
            char_norm_closed_form(B11, math.inf)

    @pytest.mark.parametrize("m", [1e-308, 5.6e-309])
    def test_inverse_past_exp_709(self, m):
        # A^{-1}(1/m) = 1/m lies between exp(709) ~ 8.2e307 and the largest double
        assert char_norm_closed_form(YoungFunction.power(1), m) == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize(
        "p, q, m", [(1, 1, 5e-309), (1, 1, 1e-310), (2, 1, 1e-320), (1, 100, 5e-309), (2, 0, 5e-309)]
    )
    def test_mass_below_one_over_max(self, p, q, m):
        # 1/m overflows where the norm 1/t, with log A(t) = -log m, does not
        A = YoungFunction.log_bump(p, q)
        with mpmath.workdps(50):
            target = -mpmath.log(mpmath.mpf(m))
            u = mpmath.findroot(
                lambda u: p * u + q * mpmath.log(mpmath.log(A.shift + mpmath.exp(u))) - target,
                target / p,
            )
            expected = float(mpmath.exp(-u))
        assert char_norm_closed_form(A, m) == pytest.approx(expected, rel=1e-12)


def _p_norm_oracle_cases():
    rng = np.random.default_rng(31)
    signs = rng.choice([-1.0, 1.0], 50)
    return {
        "signed": ([3.0, -1.5, 0.0, 2.0, -0.25, -3.0], [0.1, 0.2, 0.3, 0.15, 0.25, 0.05]),
        "zero": ([0.0, -0.0, 0.0], [0.5, 1.0, 2.0]),
        "huge": ([1e300, -5e299, 3e299, 0.0, -1e-300], [0.2, 0.3, 0.4, 0.1, 0.5]),
        "tiny": ([1e-300, -5e-301, 3e-301, 0.0, 2e-308], [0.2, 0.3, 0.4, 0.1, 0.5]),
        "huge_and_tiny": ([1e300, -1e-300, 2.5, 0.0], [0.2, 0.3, 0.4, 0.1]),
        "uniform_1e300": (1e300 * rng.uniform(0.1, 1.0, 50) * signs, rng.uniform(0.1, 1.0, 50)),
        "lognormal_1e-300": (1e-300 * rng.lognormal(0.0, 1.0, 50) * signs, rng.uniform(0.1, 1.0, 50)),
    }


P_NORM_ORACLE_CASES = _p_norm_oracle_cases()


class TestPNorm:
    def test_single_atom(self):
        mu, f = atoms([3], [1])
        assert p_norm(f, mu, 7.0) == pytest.approx(3.0, rel=1e-14)

    def test_sqrt_two(self):
        mu, f = atoms([1, 1], [1, 1])
        assert p_norm(f, mu, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_golden(self):
        mu, f = atoms([1, 2, 3], [0.1, 0.2, 0.7])
        assert p_norm(f, mu, 3.0) == pytest.approx(P_NORM_GOLD, rel=1e-13)

    def test_huge_p_stable(self):
        mu, f = atoms([1, 2], [1, 1])
        assert p_norm(f, mu, 1000.0) == pytest.approx(2.0, abs=1e-12)
        # every term is at most its weight, and the top atom's is its weight
        assert p_norm(f, mu, 1e300) == 2.0

    def test_zero(self):
        mu, f = atoms([0, 0], [1, 1])
        assert p_norm(f, mu, 2.0) == 0.0

    def test_p_below_one_rejected(self):
        mu, f = atoms([1], [1])
        with pytest.raises(DomainError):
            p_norm(f, mu, 0.5)

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
    def test_p_outside_young_power_rejected(self, p):
        # as YoungFunction.power(p), also for an all-zero f
        for values in ([1.0], [0.0]):
            mu, f = atoms(values, [1.0])
            with pytest.raises(DomainError):
                p_norm(f, mu, p)

    @pytest.mark.parametrize("p", [1.0, 2.0, 7.5, 100.0, 1e300])
    @pytest.mark.parametrize("case", sorted(P_NORM_ORACLE_CASES))
    def test_matches_mpmath(self, case, p):
        # the kernel's logs are taken on |f_i| / M, whose top is 1: on f
        # itself they would err by about 2^-53 |log M|, 3e-14 at 1e300
        values, weights = P_NORM_ORACLE_CASES[case]
        mu, f = atoms(values, weights)
        with mpmath.workdps(50):
            big = max(abs(mpmath.mpf(x)) for x in values)
            if big == 0:
                assert p_norm(f, mu, p) == 0.0
                return
            power_sum = mpmath.fsum(
                mpmath.mpf(w) * (abs(mpmath.mpf(x)) / big) ** mpmath.mpf(p)
                for x, w in zip(values, weights)
            )
            true = big * power_sum ** (1 / mpmath.mpf(p))
        assert p_norm(f, mu, p) == pytest.approx(float(true), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_allocation(self, monkeypatch, cpus):
        # f / M and the kernel's log weights, 8 B/atom each, and one block
        # buffer per thread; a whole-array |f|, |f| / M and its power, as
        # p_norm once formed, take 24 B/atom
        monkeypatch.setattr(norm_module, "_cpus", lambda: cpus)
        n = 2**18
        rng = np.random.default_rng(8)
        values = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
        values[::7] = 0.0
        mu, f = atoms(values, rng.uniform(0.1, 1.0, n) / n)
        p_norm(f, mu, 2.0)  # first-call allocations are not the call's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p_norm(f, mu, 2.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        bound = 16 * n + 8 * cpus * norm_module._blocks(n)[0].stop
        assert peak <= bound + 32 * 1024, peak / n

import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import (
    E0,
    E,
    DomainError,
    InputError,
    NumericError,
    YoungFunction,
    check_young,
    compare,
    default_grid,
)
from orlicz.young import AxiomCheck, _root

# Frozen ahead of implementation from 50-digit arithmetic.
EVAL_LOGBUMP_P2_Q3_T2 = 9.059699961077427  # 4 * ln(e+1)^3
LOG_EVAL_Q1E5_T_HALF = -22724.266298986155  # 1e5 * ln(ln(e - 1/2)) + ln(1/2)
INVERSE_Y2 = 1.6477904473437898  # root of t * ln(e0 + t) = 2
COMPARE_E_IN_E0 = 1.8473165850739819  # grid sup of B11^-1(Bbar11(t)) / t


def grid_scan_inverse_y2():
    """Stated oracle for the inverse golden: 1e-6-step scan of t*ln(e0+t)
    on [1, 2], refined by bisection on the bracketing step."""
    t = np.arange(1.0, 2.0, 1e-6)
    g = t * np.log(E0 + t) - 2.0
    i = int(np.searchsorted(g > 0.0, True))
    lo, hi = t[i - 1], t[i]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * math.log(E0 + mid) < 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEval:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 5.0, 50.0, 1000.0])
    def test_normalized_at_one(self, p, q):
        # log(e0 + 1) = 1, so the whole family passes through (1, 1)
        assert abs(YoungFunction.log_bump(p, q).value(1.0) - 1.0) <= 1e-14

    def test_power(self):
        assert YoungFunction.power(2).value(3.0) == 9.0

    def test_log_bump_golden(self):
        v = YoungFunction.log_bump(2, 3).value(2.0)
        assert v == pytest.approx(EVAL_LOGBUMP_P2_Q3_T2, rel=1e-12)

    def test_zero_at_zero(self):
        assert YoungFunction.log_bump(2, 5).value(0.0) == 0.0
        assert YoungFunction.power(3).value(0.0) == 0.0

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            YoungFunction.log_bump(1, 1).value(-0.5)

    def test_extreme_q_does_not_overflow(self):
        A = YoungFunction.log_bump(1, 1e5)
        assert A.value(0.5) == 0.0  # true value ~ 1e-9869
        assert A.value(10.0) == math.inf  # true value ~ 1e40203
        assert A.value(1.0) == 1.0

    def test_array_matches_scalar(self):
        A = YoungFunction.log_bump(1.5, 7)
        ts = np.geomspace(1e-5, 1e5, 11)
        arr = A.value_array(ts)
        assert arr == pytest.approx([A.value(t) for t in ts], rel=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            YoungFunction.log_bump(0.5, 1)
        with pytest.raises(DomainError):
            YoungFunction.log_bump(1, -1)
        with pytest.raises(DomainError):
            YoungFunction(1, 1, 0.0)
        # shift <= 1 makes log(shift + t) nonpositive near t = 0
        with pytest.raises(DomainError):
            YoungFunction(1, 1, shift=0.5)
        with pytest.raises(DomainError):
            YoungFunction(1, 1, shift=1.0)


# both zeros, subnormals, ordinary values and inf, in increasing order
EDGE_ENTRIES = (0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 0.5, 1.0, 3.0, 1e300, math.inf)


class TestEvalForms:
    """Each evaluation form of A: the power at q = 0, the log form for q > 0."""

    @pytest.mark.parametrize("shift", [E0, E])
    @pytest.mark.parametrize("q", [0.0, 1.0, 1e5])
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_value_array_edge_entries(self, p, q, shift):
        # (-0.0)**3 is -0.0, so p = 3 at q = 0 checks the sign of A(-0.0);
        # log(0) = -inf at q > 0 must not warn
        t = np.array(EDGE_ENTRIES)
        before = t.tobytes()
        A = YoungFunction(p, q, shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = A.value_array(t)
        assert t.tobytes() == before
        assert got is not t
        assert got[:2].tobytes() == np.zeros(2).tobytes()  # +0.0 for both zeros
        assert got[-1] == math.inf
        assert np.all(got[1:] >= got[:-1])  # A is increasing
        assert got.tobytes() == A.value_array(np.abs(t)).tobytes()

    def test_q_zero_ignores_the_log_factor(self):
        # log(0.5 + t) < 0 for t < 0.5; at q = 0 it must never enter
        A = YoungFunction(2, 0, 0.5)
        assert A.value(0.25) == 0.0625
        assert A.value(1e-200) == 0.0

    def test_large_q_avoids_product_underflow(self):
        # t**100 underflows at t = 1e-4 while A(t) ~ 5.78e-241 does not
        A = YoungFunction(100, 1e7, E)
        value = A.value(1e-4)
        assert value > 0.0
        assert value == pytest.approx(math.exp(A.log_value(1e-4)), rel=1e-12)

    def test_power_is_q_zero(self):
        assert YoungFunction.power(2) == YoungFunction.log_bump(2, 0)

    @pytest.mark.parametrize("shift", [E0, E])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 5.0, 50.0, 51.0, 1e3, 1e5])
    @pytest.mark.parametrize("p", [1.0, 2.0, 100.0])
    def test_value_array_matches_mpmath(self, p, q, shift):
        # Oracle: A at 50 digits on the same doubles t and shift.  The bound
        # is the rounding of log t, log(shift + t) and log ell, scaled by
        # their condition numbers in exp(p log t + q log ell).
        eps = np.finfo(float).eps
        ts = np.geomspace(1e-300, 1e300, 61)
        got = YoungFunction(p, q, shift).value_array(ts)
        with mpmath.workdps(50):
            for t, value in zip(ts.tolist(), got.tolist()):
                true = mpmath.mpf(t) ** p * mpmath.log(mpmath.mpf(shift) + t) ** q
                if not mpmath.mpf(1e-300) < true < mpmath.mpf(1e300):
                    continue
                ell = math.log(shift + t)
                S = 1.0 + p * abs(math.log(t)) + q * (1.0 + abs(math.log(ell))) / min(ell, 1.0)
                rel_err = float(abs(value - true) / true)
                assert rel_err <= 4.0 * eps * S, (t, value, rel_err / (eps * S))


class TestLogEval:
    def test_normalized_zero(self):
        assert YoungFunction.log_bump(1, 1).log_value(1.0) == 0.0

    def test_power(self):
        assert YoungFunction.power(3).log_value(math.e) == pytest.approx(3.0, abs=1e-14)

    def test_extreme_q_golden(self):
        lv = YoungFunction.log_bump(1, 1e5).log_value(0.5)
        assert lv == pytest.approx(LOG_EVAL_Q1E5_T_HALF, rel=1e-12)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(DomainError):
            YoungFunction.log_bump(1, 1).log_value(0.0)

    @pytest.mark.parametrize("p,q", [(1, 0), (1, 1), (2, 7), (3, 30), (1.5, 12.5)])
    def test_agrees_with_direct_eval(self, p, q):
        # q <= 30 keeps the direct product in range on [1e-3, 1e3]
        A = YoungFunction.log_bump(p, q)
        for t in np.geomspace(1e-3, 1e3, 25):
            direct = A.value(float(t))
            assert math.exp(A.log_value(float(t))) == pytest.approx(direct, rel=1e-12)


class TestInverse:
    def test_normalization_fixed_point(self):
        assert YoungFunction.log_bump(1, 7).inverse(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_power(self):
        assert YoungFunction.power(2).inverse(4.0) == pytest.approx(2.0, rel=1e-11)

    def test_golden_and_oracle(self):
        root = YoungFunction.log_bump(1, 1).inverse(2.0)
        assert root == pytest.approx(INVERSE_Y2, rel=1e-11)
        assert root == pytest.approx(grid_scan_inverse_y2(), abs=1e-9)

    def test_zero(self):
        assert YoungFunction.log_bump(2, 3).inverse(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            YoungFunction.power(2).inverse(-1.0)

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_non_finite_rejected(self, y):
        # A^{-1}(inf) is no double: rejected before any root search
        with pytest.raises(DomainError, match="finite y >= 0"):
            YoungFunction.power(2).inverse(y)

    @pytest.mark.parametrize("y", [1e308, sys.float_info.max])
    def test_root_up_to_the_largest_double(self, y):
        # roots past exp(709) ~ 8.2e307, up to the largest double
        t = YoungFunction.power(1).inverse(y)
        assert abs(t - y) <= 1e-12 * y

    def test_precision_limit_raises(self):
        # at q = 1e13 one ULP of t near 1 moves log A by about 1e-3, so the
        # bracket collapses with the log-residual above the 1e-6 guard
        with pytest.raises(NumericError, match=r"did not converge: log-residual .* \(bracket \["):
            YoungFunction.log_bump(1, 1e13).inverse(2.0)

    def test_newton_grid(self, monkeypatch):
        # Newton steps in log t take a few log_value calls where bisection
        # took 50, and a step that rounds to its start moves one double, not
        # to the midpoint (62 calls at p = 100, q = 1e5 without that).  Each
        # t meets the default tol in a 40-digit log-residual or, where the
        # evaluation noise (q >= 1e5) or one ULP of t (p = 1e4) exceeds it,
        # lies within 3 ULPs of the exact root
        calls = []
        log_value = YoungFunction.log_value
        monkeypatch.setattr(YoungFunction, "log_value", lambda A, t: calls.append(t) or log_value(A, t))
        counts = []
        for p, q in itertools.product([1.0, 2.0, 100.0, 1e4], [0.0, 1.0, 100.0, 1e5, 1e9]):
            A = YoungFunction.log_bump(p, q)
            for k in range(-300, 301, 25):
                calls.clear()
                y = 10.0**k
                t = A.inverse(y)
                counts.append(len(calls))
                with mpmath.workdps(40):
                    shift, log_y = mpmath.mpf(A.shift), mpmath.log(y)
                    F = lambda u: p * u + q * mpmath.log(mpmath.log(shift + mpmath.exp(u))) - log_y
                    u = mpmath.log(t)
                    ulps = abs(t - mpmath.exp(mpmath.findroot(F, u))) / math.ulp(t)
                    assert abs(F(u)) <= 1e-12 or ulps <= 3, (p, q, k)
        assert len(counts) == 500 and sum(counts) / len(counts) <= 10 and max(counts) <= 12

    @pytest.mark.parametrize(
        "A",
        [
            YoungFunction.power(1),
            YoungFunction.power(2.5),
            YoungFunction.log_bump(1, 1),
            YoungFunction(2, 5, E),
            YoungFunction.log_bump(1, 100),
            YoungFunction.log_bump(1.5, 1e5),
            YoungFunction(1, 1e5, 1.5),
        ],
    )
    def test_round_trip(self, A):
        # shift 1.5 gives log A(1) = -8742 at q = 1e5, so every closed-form
        # bracket end lies past the double range and is clamped to it
        for y in [1e-300, *np.geomspace(1e-8, 1e8, 33), 1e300]:
            y = float(y)
            t = A.inverse(y)
            assert abs(A.value(t) - y) <= 1e-9 * max(1.0, y)


def recorded_line(root, targets=None):
    """Increasing g(x) = x - root, whose step in log x leads to the next of
    targets (None: bisect), and the list of points it is evaluated at."""
    xs = []

    def g(x):
        xs.append(x)
        target = None if targets is None else next(targets)
        return x - root, None if target is None else math.log(target / x)

    return g, xs


class TestRoot:
    """young._root, the one loop behind inverse, compare and the norm."""

    @pytest.mark.parametrize("lo", [0.0, 1e-300, 0.5])
    def test_bisection_is_geometric(self, lo):
        # no step: every point is sqrt(lo) * sqrt(hi) of the bracket so far,
        # or the arithmetic midpoint where that is not strictly inside
        g, xs = recorded_line(3.0)
        x, g_x, _, _, evaluations = _root(g, lo, 1e6, 1e-12)
        assert evaluations == len(xs) and x == xs[-1] and abs(g_x) <= 1e-12
        a, b = lo, 1e6
        for x in xs:
            mid = math.sqrt(a) * math.sqrt(b)
            assert x == (mid if a < mid < b else a + 0.5 * (b - a))
            a, b = (x, b) if x < 3.0 else (a, x)

    def test_proposal_inside_is_evaluated(self):
        # the step to 5.0 lands on 4.999999999999999, as x * exp(log(5.0 / x))
        g, xs = recorded_line(3.0, iter([5.0, 2.5, 3.0, None]))
        x, g_x, lo, hi, evaluations = _root(g, 1.0, 10.0, 0.0, x=1.0)
        assert xs == [1.0, math.nextafter(5.0, 0.0), 2.5, 3.0]
        assert (x, g_x, lo, hi, evaluations) == (3.0, 0.0, 2.5, xs[1], 4)

    @pytest.mark.parametrize("bad", [20.0, 10.0, 1.0, 0.5, math.nan])
    def test_proposal_outside_takes_hi_once_then_midpoints(self, bad):
        # every step leads to bad.  Where bad is the point itself (1.0 from
        # the start, 10.0 from hi) the step is 0 and moves one double toward
        # the root; from there bad lies outside the bracket
        g, xs = recorded_line(3.0, itertools.repeat(bad))
        x, g_x, _, _, evaluations = _root(g, 1.0, 10.0, 1e-12, x=1.0)
        expected = {
            1.0: [1.0, math.nextafter(1.0, 2.0), 10.0],
            10.0: [1.0, 10.0, math.nextafter(10.0, 0.0)],
        }.get(bad, [1.0, 10.0, math.sqrt(10.0)])
        assert xs[:3] == expected
        assert xs.count(10.0) == 1
        assert evaluations == len(xs) and abs(g_x) <= 1e-12

    @pytest.mark.parametrize("step", [0.0, 1e-17, -1e-17])
    @pytest.mark.parametrize("start", [1.0, 10.0])
    def test_step_rounding_to_its_start_moves_one_double(self, start, step):
        # a step below half an ULP of x proposes x itself: the loop takes the
        # next double on the root side, down where g > 0 and up where g < 0
        xs = []

        def g(x):
            xs.append(x)
            return x - 3.0, step if len(xs) == 1 else None

        _root(g, 1.0, 10.0, 1e-12, x=start)
        assert xs[1] == math.nextafter(start, 3.0)

    def test_exhausted_bracket_returns_the_better_end(self):
        g, xs = recorded_line(1.0)
        lo, hi = 1.0, math.nextafter(1.0, 2.0)
        assert _root(g, lo, hi, 1e-12, g_lo=-0.5, g_hi=0.6) == (lo, -0.5, lo, hi, 0)
        assert _root(g, lo, hi, 1e-12, g_lo=-0.7, g_hi=0.6) == (hi, 0.6, lo, hi, 0)
        assert xs == []
        # no known end: the end returned is evaluated there, and counted
        assert _root(g, 2.0, 2.0, 1e-12) == (2.0, 1.0, 2.0, 2.0, 1)
        assert xs == [2.0]


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(1.0, 4.0),
    q=st.floats(0.0, 50.0),
    t=st.floats(1e-6, 1e5),
    k=st.floats(1.01, 10.0),
)
def test_strictly_increasing_property(p, q, t, k):
    A = YoungFunction.log_bump(p, q)
    assert A.log_value(t) < A.log_value(k * t)


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(1.0, 3.0),
    q=st.floats(0.0, 20.0),
    y=st.floats(1e-6, 1e6),
)
def test_inverse_round_trip_property(p, q, y):
    A = YoungFunction.log_bump(p, q)
    t = A.inverse(y)
    assert A.value(t) == pytest.approx(y, rel=1e-9)


class TestQMonotonicityAtKnee:
    """Pointwise engine of the limit: below the knee (shift + t < e) the
    value decreases in q, above it increases."""

    def test_below_knee_decreasing(self):
        values = [YoungFunction.log_bump(1, q).value(0.5) for q in (1, 2, 5, 10, 20)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_above_knee_increasing(self):
        values = [YoungFunction.log_bump(1, q).value(2.0) for q in (1, 2, 5, 10, 20)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_shift_e_always_above_knee(self):
        values = [YoungFunction(1, q, E).value(0.5) for q in (1, 2, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))


class LogDomainStub:
    """Duck-typed stand-in for YoungFunction: A(0) = 0 and log A = log_a."""

    def __init__(self, log_a):
        self.log_value = log_a

    def value(self, t):
        return 0.0 if t == 0.0 else math.exp(self.log_value(t))


class TestCheckYoung:
    def test_concave_reports_first_violations(self):
        # sqrt: increasing, but midpoint-concave and sublinear
        report = check_young(LogDomainStub(lambda t: 0.5 * math.log(t)), [1.0, 2.0, 4.0])
        assert report.zero_at_zero.passed and report.strictly_increasing.passed
        assert (report.midpoint_convex.passed, report.midpoint_convex.violation_t) == (False, 1.5)
        assert (report.superlinear.passed, report.superlinear.violation_t) == (False, 2.0)
        assert not report.all_passed

    def test_plateau_reports_first_nonincrease(self):
        # t^2 capped at t = 2: the first grid point past the cap breaks increase
        report = check_young(
            LogDomainStub(lambda t: 2.0 * math.log(min(t, 2.0))), [1.0, 2.0, 3.0, 4.0]
        )
        assert report.strictly_increasing == AxiomCheck("strictly_increasing", False, 3.0)
        assert report.midpoint_convex.passed
        assert report.superlinear.violation_t == 3.0

    def test_log_bump_passes(self):
        assert check_young(YoungFunction.log_bump(1, 1), default_grid()).all_passed

    def test_power_one_fails_superlinearity(self):
        report = check_young(YoungFunction.power(1), default_grid())
        assert not report.superlinear.passed
        assert report.superlinear.violation_t is not None
        assert report.zero_at_zero.passed
        assert report.strictly_increasing.passed
        assert report.midpoint_convex.passed

    def test_fractional_q_shift_e_passes(self):
        assert check_young(YoungFunction(1, 0.5, E), default_grid()).all_passed

    def test_huge_q_passes_in_log_domain(self):
        # values overflow doubles at the top of the grid; the checks must not
        assert check_young(YoungFunction.log_bump(4, 1000), default_grid()).all_passed

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InputError):
            check_young(YoungFunction.power(2), [1.0, 0.5, 2.0])

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(InputError):
            check_young(YoungFunction.power(2), [0.0, 1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            check_young(YoungFunction.power(2), [])


class TestCompare:
    def test_identical_function(self):
        res = compare(YoungFunction.log_bump(1, 1), YoungFunction.log_bump(1, 1), default_grid())
        assert res.certified
        assert res.c_estimate == pytest.approx(1.0, abs=1e-9)

    def test_e0_fits_inside_e_with_c_one(self):
        # log(e-1+t) <= log(e+t) pointwise, so c = 1 suffices
        res = compare(
            YoungFunction(1, 1, E0),
            YoungFunction(1, 1, E),
            default_grid(),
        )
        assert res.certified
        assert res.c_estimate <= 1.0 + 1e-12

    def test_e_inside_e0_golden(self):
        res = compare(
            YoungFunction(1, 1, E),
            YoungFunction(1, 1, E0),
            default_grid(),
        )
        assert res.certified
        assert res.c_estimate > 1.0
        assert res.c_estimate == pytest.approx(COMPARE_E_IN_E0, rel=1e-9)

    def test_symmetric_comparison_gives_equivalence(self):
        A = YoungFunction(2, 3, E0)
        B = YoungFunction(2, 3, E)
        forward = compare(A, B, default_grid())
        backward = compare(B, A, default_grid())
        assert forward.certified and backward.certified

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            compare(YoungFunction.power(1), YoungFunction.power(2), [])

    @pytest.mark.parametrize("p, q", [(1, 1200), (1, 1e5), (2, 2400), (2, 1e5)])
    def test_large_q(self, p, q):
        # from q of about 1170 p the root of B_e(c t) = B_e0(t) at t = 1e-6
        # lies below the normal range, where a root has too few bits to
        # solve for: min / t bounds c_t there, and the estimate stays certified
        e0, e = YoungFunction(p, q, E0), YoungFunction(p, q, E)
        forward, backward = compare(e0, e, default_grid()), compare(e, e0, default_grid())
        assert forward.certified and backward.certified
        assert forward.c_estimate <= 1.0
        for A, B, res in ((e0, e, forward), (e, e0, backward)):
            exact = [compare_constant_mpmath(A, B, t) for t in default_grid()]
            for t, c in zip(default_grid(), exact):
                got = compare(A, B, [t]).c_estimate
                if c * t >= sys.float_info.min:  # a representable root
                    assert got == pytest.approx(float(c), rel=1e-12)
                else:
                    assert got == sys.float_info.min / t >= c
            assert res.c_estimate == pytest.approx(float(max(exact)), rel=1e-12)


def compare_constant_mpmath(A, B, t):
    """c with B(c t) = A(t), to 50 digits: log B(s) = log A(t) solved in u = log s."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)

        def log_young(F, u):
            return F.p * u + F.q * mpmath.log(mpmath.log(F.shift + mpmath.exp(u)))

        target = log_young(A, mpmath.log(t))
        lo = hi = target / B.p
        while log_young(B, lo) > target:  # log B rises with slope >= p in u
            lo -= 1 + abs(lo)
        while log_young(B, hi) < target:
            hi += 1 + abs(hi)
        u = mpmath.findroot(lambda u: log_young(B, u) - target, (lo, hi), solver="illinois")
        return mpmath.exp(u) / t

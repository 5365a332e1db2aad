import math
import sys

import mpmath
import numpy as np
import pytest

from orlicz import (
    E0,
    E,
    DiscreteMeasure,
    DomainError,
    InputError,
    NumericError,
    SampledFunction,
    YoungFunction,
    classical_p_sweep,
    delta_relation_check,
    equivalence_norm_check,
    liminf_bound_check,
    limit_sweep,
    log_ratio_bound_check,
    luxemburg_norm,
    truncation_sweep,
    upper_bound_threshold,
)
import orlicz.limits as limits_module
from orlicz.limits import convergence_rows
from orlicz.norm import DEFAULT_TOL
from conftest import atoms, modular_longdouble, random_instance

# Frozen from 50-digit roots of (1/l) * ln(e0 + 1/l)^q = 2.
SWEEP_NORMS_HALF = {
    100.0: 0.981866172407802,
    1000.0: 0.9981231666117082,
    10000.0: 0.9998116566894668,
    100000.0: 0.9999811590426955,
}
LIMINF_BOUND_Q100 = 0.9479455283397847  # 1 / (exp(1.02) - e0)
LIMINF_BOUND_Q1E5 = 0.9999456367752917  # 1 / (exp(1 + 2e-5) - e0)
DELTA_AT_HALF = 0.31326168751822283  # ln(e + 1) - 1
LOG_RATIO_INF_C2 = 0.7531696074694917
LOG_RATIO_SUP_C2 = 0.9999999892490307
NORM_E_CHI1 = 1.2567506185377672  # ||chi||, mass 1, shift e, p = q = 1
TRUNC_TERMINALS = {1.0: 1.0002986089771214, 10.0: 10.001883881653471, 50.0: 50.0}

Q_SCHEDULE = [100.0, 1000.0, 10000.0, 100000.0]


class TestLimitSweep:
    def test_unit_indicator_is_flat(self):
        mu, f = atoms([1], [1])
        rep = limit_sweep(f, mu, 1.0, [1.0, 10.0, 100.0])
        assert rep.reference == 1.0
        assert rep.norms == pytest.approx((1.0, 1.0, 1.0), abs=1e-11)
        assert all(g <= 1e-11 for g in rep.gaps)
        assert rep.passed

    def test_half_mass_goldens(self):
        mu, f = atoms([1], [0.5])
        rep = limit_sweep(f, mu, 1.0, Q_SCHEDULE)
        for q, norm in zip(rep.schedule, rep.norms):
            assert norm == pytest.approx(SWEEP_NORMS_HALF[q], abs=1e-9)
        assert all(b < a for a, b in zip(rep.gaps, rep.gaps[1:]))
        assert rep.passed

    def test_multilevel_gaps_shrink(self):
        mu, f = atoms([1, 2, 4], [1, 1, 1])
        rep = limit_sweep(f, mu, 2.0, [10.0, 100.0, 1000.0, 10000.0])
        assert rep.reference == 4.0
        assert all(b < a for a, b in zip(rep.gaps, rep.gaps[1:]))
        assert rep.passed

    def test_deterministic(self):
        mu, f = atoms([1, 2, 4], [1, 0.5, 2])
        assert limit_sweep(f, mu, 1.0, Q_SCHEDULE) == limit_sweep(f, mu, 1.0, Q_SCHEDULE)

    def test_short_schedule_rejected(self):
        mu, f = atoms([1], [1])
        with pytest.raises(InputError):
            limit_sweep(f, mu, 1.0, [1.0, 2.0])

    def test_nonincreasing_schedule_rejected(self):
        mu, f = atoms([1], [1])
        with pytest.raises(InputError):
            limit_sweep(f, mu, 1.0, [1.0, 3.0, 2.0])

    def test_zero_function_rejected(self):
        mu, f = atoms([0.0], [1])
        with pytest.raises(DomainError):
            limit_sweep(f, mu, 1.0, [1.0, 2.0, 3.0])

    def test_solver_failure_names_q(self, monkeypatch):
        def failing_at_q10(A, f, mu, tol):
            if A.q == 10.0:
                raise NumericError("stalled")
            return luxemburg_norm(A, f, mu, tol)

        monkeypatch.setattr(limits_module, "luxemburg_norm", failing_at_q10)
        mu, f = atoms([1], [0.5])
        with pytest.raises(NumericError, match="^norm solver failed at q=10.0: stalled$") as info:
            limit_sweep(f, mu, 1.0, [1.0, 10.0, 100.0])
        assert str(info.value.__cause__) == "stalled"

    @pytest.mark.parametrize(
        "check",
        [
            lambda f, mu: limit_sweep(f, mu, 1.0, [1.0, 2.0, 3.0]),
            lambda f, mu: classical_p_sweep(f, mu, [1.0, 2.0]),
            lambda f, mu: upper_bound_threshold(f, mu, 1.0, 0.1, [1.0, 2.0]),
            lambda f, mu: truncation_sweep(f, mu, 1.0, [1.0], [1.0, 2.0, 3.0]),
            lambda f, mu: equivalence_norm_check(f, mu, 1.0, 1.0),
        ],
        ids=["limit_sweep", "classical", "threshold", "truncation", "equivalence"],
    )
    def test_misalignment_reported_before_zero_function(self, check):
        mu, _ = atoms([1, 2, 3], [1, 1, 1])
        with pytest.raises(InputError, match="3 atoms"):
            check(SampledFunction([0.0, 0.0]), mu)

    def test_failing_floor(self):
        # the sup sits on an atom of weight 1e-300, so at q = 1e4 and 1e5
        # the norm is still far below it and the floor fails there
        mu, f = atoms([1, 0.5], [1e-300, 1])
        rep = limit_sweep(f, mu, 1.0, [10.0, 1e3, 1e4, 1e5])
        rows = convergence_rows(rep, key="q")
        assert [r["liminf_floor"] for r in rows] == [1, 1, 0, 0]
        assert [r["pass"] for r in rows] == [1, 1, 0, 0]
        assert rep.passed is False

    def test_floor_verdicts(self):
        # vacuously True below LIMINF_Q_MIN; classical sweeps carry none
        mu, f = atoms([1, 0.5], [1e-300, 1])
        rep = limit_sweep(f, mu, 1.0, [10.0, 1e3, 1e4, 1e5])
        assert rep.liminf_floor == (True, True, False, False)
        classical = classical_p_sweep(f, mu, [1.0, 2.0, 4.0])
        assert classical.liminf_floor == ()
        rows = convergence_rows(classical, key="p")
        assert list(rows[0]) == ["p", "norm", "gap", "pass"]
        assert all(r["pass"] == 1 for r in rows)

    def test_rows_serialization(self):
        mu, f = atoms([1], [0.5])
        rows = convergence_rows(limit_sweep(f, mu, 1.0, Q_SCHEDULE), key="q")
        assert [r["q"] for r in rows] == Q_SCHEDULE
        assert list(rows[0]) == ["q", "norm", "gap", "liminf_floor", "pass"]
        assert all(r["pass"] == 1 for r in rows)


class TestLiminfBound:
    def test_vacuous_at_unit_mass(self):
        rec = liminf_bound_check(1.0, 1.0, 10.0)
        assert rec.norm_value == pytest.approx(1.0, abs=1e-11)
        assert rec.vacuous and rec.passed

    def test_golden_q100(self):
        rec = liminf_bound_check(0.5, 1.0, 100.0)
        assert rec.lower_bound == pytest.approx(LIMINF_BOUND_Q100, abs=1e-12)
        assert rec.norm_value == pytest.approx(SWEEP_NORMS_HALF[100.0], abs=1e-10)
        assert not rec.vacuous
        assert rec.passed

    def test_golden_q1e5(self):
        rec = liminf_bound_check(0.5, 1.0, 1e5)
        assert rec.lower_bound == pytest.approx(LIMINF_BOUND_Q1E5, abs=1e-7)
        assert rec.norm_value == pytest.approx(SWEEP_NORMS_HALF[100000.0], abs=1e-7)
        assert rec.passed

    def test_bernoulli_guard(self):
        with pytest.raises(DomainError):
            liminf_bound_check(0.5, 1.0, 0.5)

    def test_mass_below_one_over_max(self):
        # 1/(m q) overflows, so the bound is 0; the norm 1/t, with t log(e0 + t)
        # = 1/m, is a normal double
        rec = liminf_bound_check(5e-309, 1.0, 1.0)
        assert rec.norm_value == pytest.approx(3.5166676230648983e-306, rel=1e-12)
        assert rec.lower_bound == 0.0 and rec.passed and not rec.vacuous

    def test_mass_must_be_positive(self):
        with pytest.raises(DomainError):
            liminf_bound_check(0.0, 1.0, 10.0)


class TestDeltaRelation:
    def test_golden(self):
        rec = delta_relation_check(0.5, 1.0, 1.0)
        assert rec.delta == pytest.approx(DELTA_AT_HALF, rel=1e-14)
        assert rec.passed

    def test_near_one(self):
        rec = delta_relation_check(0.999999, 2.0, 5.0)
        assert 0.0 < rec.delta < 1e-5
        assert rec.direct == pytest.approx(1.0, abs=1e-4)
        assert rec.passed

    def test_large_q_bernoulli(self):
        rec = delta_relation_check(0.9, 1.0, 1000.0)
        assert rec.bernoulli_ok and rec.tail_ok and rec.passed

    @pytest.mark.parametrize("lam, q", [(0.5, 1e5), (0.999, 1e12)])
    def test_sides_beyond_double_range(self, lam, q):
        # lam^(-1) log(e0 + 1/lam)^q exceeds the double range; the checks
        # are decided in logs and the sides reported as inf
        rec = delta_relation_check(lam, 1.0, q)
        assert rec.delta == math.log(E0 + 1.0 / lam) - 1.0
        assert rec.direct == rec.substituted == math.inf
        assert rec.identity_rel_err <= 1e-9
        assert rec.identity_ok and rec.bernoulli_ok and rec.passed

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, -0.2])
    def test_domain(self, lam):
        with pytest.raises(DomainError):
            delta_relation_check(lam, 1.0, 1.0)

    @pytest.mark.parametrize("q", [0.0, 0.5, math.nan])
    def test_q_below_one_rejected(self, q):
        with pytest.raises(DomainError, match="Bernoulli"):
            delta_relation_check(0.5, 1.0, q)

    @pytest.mark.parametrize("q", [1e17, 1e300])
    def test_tail_holds_past_double_resolution(self, q):
        # 1 + q*delta rounds to q*delta here, yet 1 + x > x for every real x
        rec = delta_relation_check(0.5, 1.0, q)
        assert 1.0 + q * rec.delta == q * rec.delta
        assert rec.tail_ok and rec.identity_ok and rec.bernoulli_ok and rec.passed


    @pytest.mark.parametrize("q", [1e20, 1e300])
    def test_log_sides_far_apart(self, q):
        # at lam 0.1, p 2 the rounding of q*log(...) puts the two log sides
        # more than 709 apart: the relative error reads inf, not an OverflowError
        rec = delta_relation_check(0.1, 2.0, q)
        assert rec.identity_rel_err == math.inf
        assert not rec.identity_ok and not rec.passed


class TestUpperBoundThreshold:
    def test_unit_indicator_threshold_at_first_entry(self):
        mu, f = atoms([1], [1])
        rec = upper_bound_threshold(f, mu, 1.0, 0.1, [1.0, 2.0, 3.0])
        assert rec.q_star == 1.0
        assert rec.entries[0].modular_value < 1.0
        assert rec.passed

    def test_multilevel(self):
        mu, f = atoms([1, 2, 4], [1, 1, 1])
        rec = upper_bound_threshold(f, mu, 1.0, 0.1, [float(q) for q in range(1, 201)])
        assert rec.found and rec.q_star == 5.0
        assert rec.domination_ok
        assert rec.passed
        assert rec.lam == pytest.approx(4.4)

    def test_threshold_not_reached_is_not_an_error(self):
        mu, f = atoms([1], [1e6])
        rec = upper_bound_threshold(f, mu, 1.0, 0.1, [float(q) for q in range(1, 11)])
        assert not rec.found and rec.q_star is None
        assert not rec.passed
        assert all(e.norm_value is None for e in rec.entries)

    def test_eps_must_be_positive(self):
        mu, f = atoms([1], [1])
        with pytest.raises(DomainError):
            upper_bound_threshold(f, mu, 1.0, 0.0, [1.0])

    @pytest.mark.parametrize("eps", [math.inf, 1e308])
    def test_overflowing_lam_rejected(self, eps):
        # lam = inf makes every modular 0, a certificate that cannot fail
        mu, f = atoms([2.0, 0.5], [0.3, 0.5])
        with pytest.raises(DomainError, match=r"\(1 \+ eps\) \* ess sup finite"):
            upper_bound_threshold(f, mu, 1.0, eps, [1.0, 2.0])

    def test_top_atom_factor_vanishes(self):
        # at the maximal atom the ratio is 1/(1+eps), and e0 + 1/(1+eps) < e
        # puts the log base below 1, so the integrand dies out as q grows
        from orlicz import E0, YoungFunction

        r = 1.0 / 1.1
        assert math.log(E0 + r) < 1.0
        vals = [YoungFunction.log_bump(1, q).value(r) for q in (10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-14


class TestTruncationSweep:
    def test_terminal_goldens(self):
        mu, f = atoms([1, 10, 100], [1, 1, 1])
        rep = truncation_sweep(f, mu, 1.0, [1.0, 10.0, 50.0], [100.0, 1000.0, 10000.0])
        assert rep.passed
        for entry in rep.entries:
            assert entry.terminal_norm == pytest.approx(TRUNC_TERMINALS[entry.N], rel=1e-9)
            assert entry.converged and entry.dominated_ok

    def test_truncation_is_identity_when_bounded(self):
        mu, f = atoms([1, 2], [1, 1])
        rep = truncation_sweep(f, mu, 1.0, [5.0], [10.0, 100.0, 1000.0])
        assert rep.entries[0].terminal_norm == rep.f_terminal_norm

    def test_truncation_at_the_sup(self):
        mu, f = atoms([-1, 2], [1, 1])
        rep = truncation_sweep(f, mu, 1.0, [2.0], [10.0, 100.0, 1000.0])
        # min(|f|, sup) == |f|, and the norm only sees |f|
        assert rep.entries[0].terminal_norm == pytest.approx(rep.f_terminal_norm, rel=1e-10)


class TestScaleFreeVerdicts:
    """The norm is positively homogeneous, so scaling f by 2^k must leave
    every verdict unchanged; absolute slacks made these two flip."""

    SCALES = [2.0**k for k in (-40, 0, 20, 40)]

    def test_truncation_domination(self):
        rng = np.random.default_rng(29)
        values = rng.lognormal(size=20)
        mu, f = atoms(values, rng.uniform(0.1, 1.0, 20) / 20)
        verdicts = []
        for s in self.SCALES:
            fs = SampledFunction(f.values * s)
            N = float(np.max(fs.values)) * (1.0 - 1e-13)
            rep = truncation_sweep(fs, mu, 2.0, [N], [1.0, 10.0, 100.0])
            verdicts.append(rep.entries[0].dominated_ok)
        assert verdicts == [True] * len(self.SCALES)

    @pytest.mark.parametrize("seed", [4, 38, 46, 59])
    def test_threshold_norm_check(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(size=6)
        mu, f = atoms(values, rng.uniform(0.5, 2.0, 6))
        eps = luxemburg_norm(YoungFunction.log_bump(1.0, 10.0), f, mu).value / values.max() - 1.0
        verdicts = [
            upper_bound_threshold(
                SampledFunction(values * s), mu, 1.0, eps, [10.0, 20.0, 40.0]
            ).passed
            for s in self.SCALES
        ]
        assert verdicts == [verdicts[1]] * len(self.SCALES)


class TestClassicalPSweep:
    def test_unit_indicator(self):
        mu, f = atoms([1], [1])
        rep = classical_p_sweep(f, mu, [1.0, 2.0, 4.0])
        assert rep.norms == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_two_levels_forced_asymptotics(self):
        mu, f = atoms([1, 2], [1, 1])
        rep = classical_p_sweep(f, mu, [10.0, 1000.0])
        assert rep.norms[-1] == pytest.approx(2.0, abs=1e-12)

    def test_weighted_gap_shrinks(self):
        mu, f = atoms([1, 2, 3], [0.1, 0.2, 0.7])
        rep = classical_p_sweep(f, mu, [float(2**k) for k in range(11)])
        assert rep.gaps[-1] < rep.gaps[0]
        assert rep.passed

    def test_p_below_one_rejected(self):
        mu, f = atoms([1], [1])
        with pytest.raises(InputError):
            classical_p_sweep(f, mu, [0.5, 1.0])


class TestLogRatioBound:
    def test_identity_scale(self):
        rec = log_ratio_bound_check(1.0, np.geomspace(1e-8, 1e8, 32))
        assert rec.inf_ratio == 1.0 and rec.sup_ratio == 1.0

    def test_doubling_goldens(self):
        rec = log_ratio_bound_check(2.0, np.geomspace(1e-8, 1e8, 128))
        assert rec.passed
        assert rec.inf_ratio > 0.5
        assert rec.sup_ratio <= 1.0
        assert rec.inf_ratio == pytest.approx(LOG_RATIO_INF_C2, abs=1e-9)
        assert rec.sup_ratio == pytest.approx(LOG_RATIO_SUP_C2, abs=1e-9)

    def test_halving_symmetry(self):
        grid = np.geomspace(1e-8, 1e8, 64)
        halving = log_ratio_bound_check(0.5, grid)
        doubling = log_ratio_bound_check(2.0, grid / 2.0)
        assert halving.sup_ratio == pytest.approx(1.0 / doubling.inf_ratio, rel=1e-12)

    def test_scale_must_be_positive(self):
        with pytest.raises(DomainError):
            log_ratio_bound_check(0.0, [1.0])


class TestEquivalence:
    def test_unit_indicator(self):
        mu, f = atoms([1], [1])
        rec = equivalence_norm_check(f, mu, 1.0, 1.0)
        assert rec.norm_e0 == pytest.approx(1.0, abs=1e-11)
        assert rec.norm_e == pytest.approx(NORM_E_CHI1, rel=1e-9)
        # the shift-e integrand dominates pointwise, so its norm is larger
        assert rec.norm_e >= rec.norm_e0
        assert rec.passed

    def test_q_zero_reduces_to_p_norm(self):
        mu, f = atoms([1, -2, 3], [0.5, 1.0, 1.5])
        rec = equivalence_norm_check(f, mu, 2.0, 0.0)
        assert rec.ratio == pytest.approx(1.0, rel=1e-12)
        assert rec.c_e0_in_e == rec.c_e_in_e0 == rec.band == 1.0
        assert rec.passed

    @pytest.mark.parametrize("q", [0.5, 1.0, 10.0, 1e3, 1e6])
    @pytest.mark.parametrize("p", [1.0, 2.0, 5.0, 100.0])
    def test_closed_form_band_holds_for_all_t(self, p, q):
        # B_e(t) <= B_e0(c t) at t = 10^k, k in [-300, 300], in 50-digit
        # logs with c = log(e0)^(-q/p) and with the reported constant, which
        # is that c rounded up
        mu, f = atoms([1.0, 2.0], [0.5, 0.5])
        rec = equivalence_norm_check(f, mu, p, q)
        assert rec.c_e0_in_e == 1.0
        with mpmath.workdps(50):
            e0, e = mpmath.mpf(E0), mpmath.mpf(E)

            def margin(c):
                return min(
                    p * mpmath.log(c)
                    + q * mpmath.log(mpmath.log(e0 + c * t))
                    - q * mpmath.log(mpmath.log(e + t))
                    for t in (mpmath.mpf(10) ** k for k in range(-300, 301))
                )

            c = mpmath.log(e0) ** (-mpmath.mpf(q) / p)
            if c > mpmath.mpf(sys.float_info.max):
                assert rec.c_e_in_e0 == math.inf
            else:
                assert abs(rec.c_e_in_e0 / c - 1) <= 1e-12
                assert margin(mpmath.mpf(rec.c_e_in_e0)) >= 0
            assert margin(c) >= 0

    def test_band_within_solve_accuracy(self):
        # 300 seeded draws, values over 15 decades and weights over 6.  At
        # q = 1e-9 the band is only about 5e-10 / p wide, and the two solves'
        # error can put the ratio just past its edge: a fixed 1e-12 slack
        # failed 21 draws there, the first being draw 8 (25 atoms, p =
        # 1.1695), though both norms meet tol in long double.  Each draw takes
        # four p, one for each q in (1e-9, 1e-6, 1e-3, 0.1), and uses the first.
        rng = np.random.default_rng(0)
        q = 1e-9
        for _ in range(300):
            n = int(rng.integers(1, 40))
            values = 10.0 ** rng.uniform(-3, 12) * rng.lognormal(size=n)
            weights = rng.uniform(0.1, 1, n) * 10.0 ** rng.uniform(-3, 3)
            p = float(rng.uniform(1, 3, 4)[0])
            mu, f = atoms(values, weights)
            rec = equivalence_norm_check(f, mu, p, q)
            for shift, value in ((E0, rec.norm_e0), (E, rec.norm_e)):
                A = YoungFunction(p, q, shift)
                assert abs(modular_longdouble(A, values, weights, value) - 1) <= DEFAULT_TOL
            assert rec.passed

    def test_random_instance_in_band(self):
        rng = np.random.default_rng(41)
        mu, f = random_instance(rng, n_lo=20, n_hi=20)
        rec = equivalence_norm_check(f, mu, 2.0, 3.0)
        assert 1.0 / rec.band <= rec.ratio <= rec.band
        assert rec.passed

import math

import numpy as np
import pytest

from orlicz import (
    E0,
    DiscreteMeasure,
    DomainError,
    InputError,
    SampledFunction,
    classical_p_sweep,
    delta_relation_check,
    equivalence_norm_check,
    liminf_bound_check,
    limit_sweep,
    log_ratio_bound_check,
    truncation_sweep,
    upper_bound_threshold,
)
from orlicz.limits import convergence_rows
from conftest import atoms, random_instance

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

    @pytest.mark.parametrize("q", [1e17, 1e300])
    def test_tail_holds_past_double_resolution(self, q):
        # 1 + q*delta rounds to q*delta here, yet 1 + x > x for every real x
        rec = delta_relation_check(0.5, 1.0, q)
        assert 1.0 + q * rec.delta == q * rec.delta
        assert rec.tail_ok and rec.identity_ok and rec.bernoulli_ok and rec.passed


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
        assert rec.passed

    def test_random_instance_in_band(self):
        rng = np.random.default_rng(41)
        mu, f = random_instance(rng, n_lo=20, n_hi=20)
        rec = equivalence_norm_check(f, mu, 2.0, 3.0)
        assert 1.0 / rec.band <= rec.ratio <= rec.band
        assert rec.passed

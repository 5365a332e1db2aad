import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import (
    DiscreteMeasure,
    DomainError,
    InputError,
    SampledFunction,
    ess_sup,
    indicator,
    level_set_measure,
    load_csv,
    quadrature_from_samples,
    truncate,
)
from conftest import atoms


class TestConstruction:
    def test_weights_must_be_positive(self):
        with pytest.raises(InputError):
            DiscreteMeasure([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(InputError):
            DiscreteMeasure([0.0], [-1.0])

    def test_total_weight_must_be_finite(self):
        # each weight is finite, their sum is not; numpy must not warn
        with pytest.raises(InputError, match="total weight overflows"):
            DiscreteMeasure([0.0, 1.0], [1e308, 1e308])

    def test_needs_an_atom(self):
        with pytest.raises(InputError):
            DiscreteMeasure([], [])

    def test_values_must_be_finite(self):
        with pytest.raises(InputError):
            SampledFunction([1.0, np.inf])

    def test_immutable_arrays(self):
        mu = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(ValueError):
            mu.weights[0] = 2.0


class TestTotalMass:
    @pytest.mark.parametrize(
        "weights,mass", [([1.0], 1.0), ([0.5, 0.25, 0.25], 1.0), ([2.0, 3.0], 5.0)]
    )
    def test_examples(self, weights, mass):
        mu = DiscreteMeasure(np.arange(len(weights), dtype=float), weights)
        assert mu.total_mass == pytest.approx(mass)


class TestEssSup:
    def test_zero(self):
        mu, f = atoms([0, 0, 0], [1, 1, 1])
        assert ess_sup(f, mu) == 0.0

    def test_absolute_values(self):
        mu, f = atoms([-3, 1, 2], [1, 1, 1])
        assert ess_sup(f, mu) == 3.0

    def test_weights_do_not_matter(self):
        mu, f = atoms([1, 1, 1], [0.1, 5, 0.2])
        assert ess_sup(f, mu) == 1.0

    def test_misaligned(self):
        mu = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(InputError):
            ess_sup(SampledFunction([1.0, 2.0]), mu)


class TestLevelSet:
    def test_all_above_zero(self):
        mu, f = atoms([1, 2, 3], [1, 1, 1])
        assert level_set_measure(f, mu, 0.0) == 3.0

    def test_strict_at_the_top(self):
        mu, f = atoms([1, 2, 3], [1, 1, 1])
        assert level_set_measure(f, mu, 3.0) == 0.0

    def test_weighted(self):
        mu, f = atoms([1, 2, 3], [0.1, 0.2, 0.7])
        assert level_set_measure(f, mu, 1.5) == pytest.approx(0.9)

    def test_negative_level_rejected(self):
        mu, f = atoms([1.0], [1.0])
        with pytest.raises(DomainError):
            level_set_measure(f, mu, -1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=20), st.floats(0, 6), st.floats(0, 6))
    def test_nonincreasing_in_level(self, values, a, b):
        mu, f = atoms(values, np.ones(len(values)))
        lo, hi = min(a, b), max(a, b)
        assert level_set_measure(f, mu, hi) <= level_set_measure(f, mu, lo)

    def test_full_mass_below_min(self):
        mu, f = atoms([2, -3, 5], [1, 2, 3])
        assert level_set_measure(f, mu, 1.0) == mu.total_mass


class TestTruncate:
    def test_clips_and_takes_abs(self):
        assert truncate(SampledFunction([-5, 2]), 3.0).values.tolist() == [3.0, 2.0]

    def test_identity_below_level(self):
        assert truncate(SampledFunction([1.0]), 10.0).values.tolist() == [1.0]

    def test_zero_stays(self):
        assert truncate(SampledFunction([0, 100]), 1.0).values.tolist() == [0.0, 1.0]

    def test_level_must_be_positive(self):
        with pytest.raises(DomainError):
            truncate(SampledFunction([1.0]), 0.0)

    def test_ess_sup_composition(self):
        mu, f = atoms([2, -7, 4], [1, 1, 1])
        for N in (1.0, 4.0, 100.0):
            assert ess_sup(truncate(f, N), mu) == min(ess_sup(f, mu), N)


class TestIndicator:
    def test_single(self):
        mu = DiscreteMeasure([0, 1, 2], [1, 1, 1])
        assert indicator(mu, {0}).values.tolist() == [1.0, 0.0, 0.0]

    def test_all(self):
        mu = DiscreteMeasure([0, 1, 2], [1, 1, 1])
        assert indicator(mu, range(3)).values.tolist() == [1.0, 1.0, 1.0]

    def test_empty(self):
        mu = DiscreteMeasure([0, 1, 2], [1, 1, 1])
        assert indicator(mu, set()).values.tolist() == [0.0, 0.0, 0.0]

    def test_out_of_range(self):
        mu = DiscreteMeasure([0, 1, 2], [1, 1, 1])
        with pytest.raises(InputError):
            indicator(mu, {3})

    def test_level_set_recovers_subset_mass(self):
        mu = DiscreteMeasure([0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4])
        chi = indicator(mu, {1, 3})
        assert level_set_measure(chi, mu, 0.5) == pytest.approx(0.6)


class TestQuadrature:
    def test_single_interval(self):
        mu, f = quadrature_from_samples([0.0, 1.0], [4.0, 4.0])
        assert mu.weights.tolist() == [0.5, 0.5]
        assert mu.total_mass == 1.0

    def test_three_points(self):
        mu, _ = quadrature_from_samples([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        assert mu.weights.tolist() == [0.25, 0.5, 0.25]

    def test_ramp_integral(self):
        xs = np.linspace(0.0, 1.0, 1001)
        mu, f = quadrature_from_samples(xs, xs)
        assert float(mu.weights @ np.abs(f.values)) == pytest.approx(0.5, abs=1e-6)

    def test_weights_positive_and_sum_to_length(self):
        xs = np.sort(np.random.default_rng(7).uniform(2.0, 9.0, 40))
        mu, _ = quadrature_from_samples(xs, np.zeros(40))
        assert np.all(mu.weights > 0)
        assert mu.total_mass == pytest.approx(xs[-1] - xs[0], rel=1e-12)

    def test_unsorted_rejected(self):
        with pytest.raises(InputError):
            quadrature_from_samples([0.0, 2.0, 1.0], [0.0, 0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            quadrature_from_samples([0.0, 1.0], [0.0])


class TestLoadCsv:
    def test_explicit_weights(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,weight,value\n0,0.5,1\n1,1.5,-2\n")
        mu, f = load_csv(path)
        assert mu.weights.tolist() == [0.5, 1.5]
        assert f.values.tolist() == [1.0, -2.0]

    def test_quadrature_form(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x,value\n0,1\n0.5,1\n1,1\n")
        mu, f = load_csv(path)
        assert mu.weights.tolist() == [0.25, 0.5, 0.25]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x,value\n0,one\n1,2\n")
        with pytest.raises(InputError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_csv(tmp_path / "nope.csv")

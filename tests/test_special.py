"""Weights, Erlang mixtures, tail integrals, and the Kummer reduction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sdpoisson.errors import DomainError
from sdpoisson.special import (
    binom_weight,
    erlang_density,
    erlang_mixture_density,
    kummer_elementary,
    kummer_series,
    poisson_tail_integral,
    poisson_upper_tail,
    poisson_weight,
)

# pi_50(50) evaluated with 50-digit arithmetic (mpmath):
#   mp.exp(50*mp.log(50) - 50 - mp.loggamma(51))
PI_50_50 = 0.056325006325191219265474267792485527837496176318279


class TestPoissonWeight:
    def test_zero_intensity_is_kronecker(self):
        assert poisson_weight(0, 0.0) == 1.0
        assert poisson_weight(3, 0.0) == 0.0

    def test_unit_case(self):
        assert poisson_weight(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_large_argument_matches_high_precision(self):
        assert poisson_weight(50, 50.0) == pytest.approx(PI_50_50, rel=1e-13)

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            poisson_weight(1, -0.5)
        with pytest.raises(DomainError):
            poisson_weight(-1, 0.5)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    @pytest.mark.parametrize("n", [0, 3])
    def test_nonfinite_alpha_rejected(self, n, alpha):
        # exp(n*inf - inf) would be nan
        with pytest.raises(DomainError):
            poisson_weight(n, alpha)

    def test_upper_tail_rejects_nan(self):
        with pytest.raises(DomainError):
            poisson_upper_tail(3, math.nan)

    @pytest.mark.parametrize("k,alpha", [(0, math.nan), (-2, math.nan), (2.5, 1.0), (3.0, 1.0)])
    def test_upper_tail_rejects_bad_arguments(self, k, alpha):
        # a nan rate is rejected even where the tail is 1 for every rate,
        # and a non-integer k would read the regularized gamma at k
        with pytest.raises(DomainError):
            poisson_upper_tail(k, alpha)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_mass_sums_to_one_with_small_tail(self, alpha):
        k_cut = int(alpha + 10.0 * math.sqrt(alpha) + 20.0)
        partial = 0.0
        previous = -1.0
        for k in range(k_cut + 1):
            partial += poisson_weight(k, alpha)
            assert partial >= previous  # monotone approach to 1
            previous = partial
        assert partial <= 1.0 + 1e-14
        assert 1.0 - partial < 1e-12


class TestBinomWeight:
    def test_empty_case(self):
        assert binom_weight(0, 0, 0.3) == 1.0

    def test_simple_value(self):
        assert binom_weight(1, 2, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_k_above_n_rejected(self):
        with pytest.raises(DomainError):
            binom_weight(3, 2, 0.5)

    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 3, 7, 20])
    def test_normalization(self, n, a):
        total = sum(binom_weight(k, n, a) for k in range(n + 1))
        assert abs(total - 1.0) < 1e-14

    @given(n=st.integers(0, 120), a=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_normalization_property(self, n, a):
        total = sum(binom_weight(k, n, a) for k in range(n + 1))
        assert abs(total - 1.0) < 5e-13


class TestErlangDensity:
    def test_index_zero_is_pure_atom(self):
        law = erlang_density(0)
        assert law.atom_weight == 1.0
        assert law.density(0.3) == 0.0
        assert law.cdf(0.0) == 1.0

    def test_index_one_is_exponential(self):
        law = erlang_density(1)
        assert law.atom_weight == 0.0
        assert law.density(0.7) == pytest.approx(math.exp(-0.7), rel=1e-15)

    def test_matches_shifted_poisson_weight(self):
        law = erlang_density(4)
        assert law.density(2.0) == pytest.approx(poisson_weight(3, 2.0), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 4])
    def test_nan_argument_rejected(self, n):
        with pytest.raises(DomainError):
            erlang_density(n).density(math.nan)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_normalization_by_quadrature(self, n):
        law = erlang_density(n)
        mass, _ = quad(law.density, 0.0, 60.0, epsabs=1e-12, limit=200)
        assert law.atom_weight + mass == pytest.approx(1.0, abs=1e-10)


class TestErlangMixture:
    def test_index_zero_atom(self):
        # n = 0 collapses every a to the pure atom; the constructor still
        # rejects boundary a values.
        law = erlang_mixture_density(0, 0.4)
        assert law.atom_weight == 1.0

    def test_atom_weight_is_power(self):
        law = erlang_mixture_density(3, 0.4)
        assert law.atom_weight == pytest.approx(0.4**3, abs=1e-16)
        assert law.atom_weight == 0.4**3  # exactly a**n, no rounding detour

    def test_boundary_a_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                erlang_mixture_density(2, bad)

    @pytest.mark.parametrize("n,a", [(3, 0.4), (1, 0.9), (6, 0.15)])
    def test_total_mass_one(self, n, a):
        law = erlang_mixture_density(n, a)
        mass, _ = quad(law.density, 0.0, 80.0, epsabs=1e-12, limit=300)
        assert law.atom_weight + mass == pytest.approx(1.0, abs=1e-10)

    def test_cdf_consistent_with_density(self):
        law = erlang_mixture_density(4, 0.3)
        mass, _ = quad(law.density, 0.0, 2.5, epsabs=1e-12, limit=200)
        assert law.cdf(2.5) == pytest.approx(law.atom_weight + mass, abs=1e-10)


class TestPoissonTailIntegral:
    def test_empty_integral(self):
        assert poisson_tail_integral(0, 1.0, 0.0) == 0.0

    def test_exponential_cdf(self):
        assert poisson_tail_integral(0, 1.0, 2.3) == pytest.approx(
            1.0 - math.exp(-2.3), rel=1e-14
        )

    def test_matches_direct_quadrature(self):
        # independent oracle: numeric integral of lam * pi_3(lam x)
        oracle, _ = quad(
            lambda x: 2.0 * poisson_weight(3, 2.0 * x), 0.0, 1.5, epsabs=1e-13
        )
        assert poisson_tail_integral(3, 2.0, 1.5) == pytest.approx(oracle, abs=1e-10)

    def test_matches_weight_sum(self):
        n, lam, z = 5, 0.7, 3.0
        expected = 1.0 - sum(poisson_weight(k, lam * z) for k in range(n + 1))
        assert poisson_tail_integral(n, lam, z) == pytest.approx(expected, abs=1e-14)

    @given(z1=st.floats(0.0, 30.0), z2=st.floats(0.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_z(self, z1, z2):
        lo, hi = sorted((z1, z2))
        assert poisson_tail_integral(4, 1.3, lo) <= poisson_tail_integral(4, 1.3, hi) + 1e-15

    def test_limit_is_one(self):
        assert poisson_tail_integral(6, 2.0, 200.0) == pytest.approx(1.0, abs=1e-12)

    def test_nan_offset_rejected(self):
        with pytest.raises(DomainError):
            poisson_tail_integral(2, 1.0, math.nan)


class TestKummer:
    def test_alpha_zero_is_one(self):
        assert kummer_elementary(0, 5, 3.7) == 1.0

    def test_first_nontrivial_value(self):
        # Phi(1; 2; 1) = e - 1, from the series oracle
        expected = kummer_series(1, 1, 1.0)
        assert expected == pytest.approx(math.e - 1.0, rel=1e-14)
        assert kummer_elementary(1, 1, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_alpha_above_beta_rejected(self):
        with pytest.raises(DomainError):
            kummer_elementary(4, 3, 1.0)
        with pytest.raises(DomainError):
            kummer_elementary(1, 2, -0.5)

    def test_example_point_against_series(self):
        got = kummer_elementary(3, 7, 10.0)
        want = kummer_series(3, 7, 10.0)
        assert abs(got - want) / want < 1e-10

    def test_series_against_quadrature_representation(self):
        # Phi(alpha; beta+1; x) = int_0^1 e^{xu} u^{a-1} (1-u)^{b-a} du / B(a, b-a+1)
        alpha, beta, x = 3, 8, 4.0
        num, _ = quad(
            lambda u: math.exp(x * u) * u ** (alpha - 1) * (1 - u) ** (beta - alpha),
            0.0, 1.0, epsabs=1e-13,
        )
        b_fn = math.gamma(alpha) * math.gamma(beta - alpha + 1) / math.gamma(beta + 1)
        assert kummer_series(alpha, beta, x) == pytest.approx(num / b_fn, rel=1e-11)

    def test_whole_validated_grid(self):
        worst = 0.0
        for beta in range(16):
            for alpha in range(beta + 1):
                for x in (0.01, 0.1, 1.0, 5.0, 20.0):
                    got = kummer_elementary(alpha, beta, x)
                    want = kummer_series(alpha, beta, x)
                    worst = max(worst, abs(got - want) / want)
        assert worst < 1e-10

    def test_large_x_stays_stable(self):
        for beta in range(1, 16):
            for alpha in range(1, beta + 1):
                got = kummer_elementary(alpha, beta, 50.0)
                want = kummer_series(alpha, beta, 50.0)
                assert abs(got - want) / want < 1e-10

    @given(
        beta=st.integers(0, 20),
        data=st.data(),
        x=st.floats(0.0, 60.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_agreement_property(self, beta, data, x):
        alpha = data.draw(st.integers(0, beta))
        got = kummer_elementary(alpha, beta, x)
        want = kummer_series(alpha, beta, x)
        assert abs(got - want) <= 1e-10 * want

"""Joint pmf: reduced coordinates, term evaluators, dispatch, and tables."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from sdpoisson.errors import ConsistencyError, DomainError
from sdpoisson.exponential import ModelParams
from sdpoisson.harness import mc_joint_pmf
from sdpoisson.pmf import (
    ReducedCoords,
    Region,
    a_closed,
    b_closed,
    c_closed,
    joint_ge_prob,
    joint_pmf,
    pmf_table,
    q_closed,
    quadrature_term,
    reduced_coords,
)
from sdpoisson.special import (
    erlang_mixture_density,
    poisson_upper_tail,
    poisson_weight,
)

PARAMS = ModelParams(lam=1.0, mu=1.0, a=0.5)


def coords_at(y, z):
    region = Region.NEG_Z if z < 0 else (Region.BOUNDARY if z == 0 else Region.POS_Z)
    return ReducedCoords(y=y, z=z, region=region)


def explicit_low_order(m, n, lam, mu, s, t, a):
    """The six elementary expressions valid when a*mu*s >= lam*t."""
    u = lam * t
    v = mu * s
    e = math.exp(-v)
    q = -math.expm1(-u)
    table = {
        (0, 0): e,
        (1, 0): e / a * ((1 - a) * q + a * v - u),
        (1, 1): e / a * (u - (1 - a) * q),
        (2, 0): e / (2 * a * a) * (2 * (1 - a) * (1 + a * v) * q + (a * v - u) ** 2
                                   - 2 * (1 - a) * u),
        (2, 1): e / (a * a) * ((1 - a) * (a - 4 - (1 - a) * u - a * v) * q
                               + u * (a * a - 5 * a + 4 + a * v - u)),
        (2, 2): e / (2 * a * a) * (2 * (1 - a) * (3 - a + (1 - a) * u) * q
                                   + u * (u - 2 * (1 - a) * (3 - a))),
    }
    return table[(m, n)]


class TestReducedCoords:
    def test_negative_offset(self):
        c = reduced_coords(PARAMS, 1.0, 0.4)
        assert (c.y, c.z) == pytest.approx((0.8, -0.2))
        assert c.region == Region.NEG_Z

    def test_positive_offset(self):
        c = reduced_coords(PARAMS, 1.0, 0.6)
        assert (c.y, c.z) == pytest.approx((1.2, 0.2))
        assert c.region == Region.POS_Z

    def test_boundary(self):
        c = reduced_coords(PARAMS, 1.0, 0.5)
        assert c.z == 0.0
        assert c.region == Region.BOUNDARY

    def test_offset_below_reduced_time(self):
        for s, t in [(0.3, 0.1), (2.0, 3.0), (5.0, 0.01)]:
            c = reduced_coords(PARAMS, s, t)
            assert c.z < c.y

    def test_nonpositive_times_rejected(self):
        with pytest.raises(DomainError):
            reduced_coords(PARAMS, 0.0, 1.0)
        with pytest.raises(DomainError):
            reduced_coords(PARAMS, 1.0, -0.1)

    @pytest.mark.parametrize("s,t", [(math.inf, 1.0), (1.0, math.inf)])
    def test_nonfinite_times_rejected(self, s, t):
        with pytest.raises(DomainError):
            reduced_coords(PARAMS, s, t)
        with pytest.raises(DomainError):
            joint_pmf(PARAMS, 2, 1, s, t)


class TestJointGeProb:
    def test_trivial_origin(self):
        assert joint_ge_prob(0, 0, 0.7, 1.3, 2.0) == 1.0

    def test_equal_indices_collapse(self):
        for n in (0, 1, 4):
            for rho, tau in [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0)]:
                got = joint_ge_prob(n, n, rho, tau, 1.5)
                want = poisson_upper_tail(n, 1.5 * min(rho, tau))
                assert got == pytest.approx(want, abs=1e-15)

    def test_against_mc_oracle(self):
        # frequency of {S_2 <= 1, S_1 <= 3} for unit-rate arrivals,
        # 1e6 samples, seed 0: 0.264525 +/- 0.000441
        got = joint_ge_prob(2, 1, 1.0, 3.0, 1.0)
        assert abs(got - 0.264525) < 3.0 * 0.000441

    def test_zero_times(self):
        assert joint_ge_prob(1, 0, 0.0, 0.0, 1.0) == 0.0
        assert joint_ge_prob(0, 3, 1.0, 0.0, 1.0) == 0.0

    def test_monotone_in_times(self):
        lo = joint_ge_prob(2, 3, 0.5, 1.0, 1.0)
        hi = joint_ge_prob(2, 3, 1.5, 2.0, 1.0)
        assert hi >= lo


# Frozen oracle values: adaptive quadrature of the defining integrals at
# tol 1e-12 (see quadrature_term), computed once and pinned.
TERM_ORACLE = [
    ("Q", 3, 2, 0.8, -0.2, 0.5, 0.018177624450561817),
    ("A", 1, 2, 1.2, 0.2, 0.5, 0.10990435130543066),
    ("B", 0, 0, 1.2, 0.2, 0.5, 0.16643554184903978),
    ("B", 1, 3, 2.0, 0.5, 0.3, 0.007153494801452675),
    ("C", 1, 1, 1.2, 0.2, 0.5, 0.035460976145615636),
    ("C", 4, 2, 3.0, 1.0, 0.7, 0.01276070797848631),
]

CLOSED = {"Q": q_closed, "A": a_closed, "B": b_closed, "C": c_closed}


class TestTermEvaluators:
    @pytest.mark.parametrize("term,m,n,y,z,a,expected", TERM_ORACLE)
    def test_closed_matches_pinned_oracle(self, term, m, n, y, z, a, expected):
        got = CLOSED[term](m, n, coords_at(y, z), a)
        assert abs(got - expected) < 1e-8

    def test_closed_q_within_round_off_of_high_precision(self):
        # 30-digit evaluation of the same sums; the closed Kummer
        # reduction left 1.6e-13 here.
        got = q_closed(12, 5, coords_at(6.0, -2.0), 0.5)
        assert abs(got - 0.016870463106995348) <= 2e-14

    @pytest.mark.parametrize("term,m,n,y,z,a,expected", TERM_ORACLE)
    def test_quadrature_matches_pinned_oracle(self, term, m, n, y, z, a, expected):
        got = quadrature_term(term, m, n, coords_at(y, z), a, tol=1e-10)
        assert abs(got - expected) < 1e-9

    def test_q_reduces_to_poisson_weight_for_zero_lower_index(self):
        c = coords_at(0.8, -0.2)
        assert q_closed(0, 0, c, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)
        for m in range(5):
            assert q_closed(m, 0, c, 0.5) == pytest.approx(
                poisson_weight(m, 1.0), rel=1e-11
            )
            assert quadrature_term("Q", m, 0, c, 0.5) == pytest.approx(
                poisson_weight(m, 1.0), abs=1e-10
            )

    def test_a_reduces_for_zero_mixture_index(self):
        c = coords_at(1.2, 0.2)
        for m in range(4):
            assert a_closed(m, 0, c, 0.5) == pytest.approx(
                poisson_weight(m, 1.0), rel=1e-13
            )
            assert quadrature_term("A", m, 0, c, 0.5) == pytest.approx(
                poisson_weight(m, 1.0), abs=1e-10
            )

    def test_a_small_offset_tends_to_atom_only(self):
        # z -> 0+: only the atom of the mixture is inside [0, z]
        for n in range(4):
            got = a_closed(1, n, coords_at(1.2, 1e-9), 0.5)
            want = 0.5**n * poisson_weight(1, 1.2 - 1e-9)
            assert got == pytest.approx(want, rel=1e-6)

    def test_b_small_offset_keeps_single_term(self):
        for n in range(3):
            got = b_closed(0, n, coords_at(1.2, 1e-9), 0.5)
            want = 0.5 ** (n + 1) * poisson_weight(0, 1.2)
            assert got == pytest.approx(want, rel=1e-6)

    def test_c_vanishes_for_zero_mixture_index(self):
        c = coords_at(1.2, 0.2)
        assert c_closed(3, 0, c, 0.5) == 0.0
        assert quadrature_term("C", 3, 0, c, 0.5) == 0.0

    def test_index_constraints(self):
        c_neg = coords_at(0.8, -0.2)
        c_pos = coords_at(1.2, 0.2)
        with pytest.raises(DomainError):
            q_closed(1, 2, c_neg, 0.5)
        with pytest.raises(DomainError):
            b_closed(3, 2, c_pos, 0.5)
        with pytest.raises(DomainError):
            c_closed(1, 2, c_pos, 0.5)
        with pytest.raises(DomainError):
            quadrature_term("Q", 1, 2, c_neg, 0.5)
        with pytest.raises(DomainError):
            quadrature_term("X", 1, 0, c_pos, 0.5)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        # a NaN tolerance would switch off the accuracy check of every quad call
        with pytest.raises(DomainError):
            quadrature_term("Q", 3, 2, coords_at(0.8, -0.2), 0.5, tol=tol)

    def test_region_constraints(self):
        with pytest.raises(DomainError):
            q_closed(1, 0, coords_at(1.2, 0.2), 0.5)
        with pytest.raises(DomainError):
            a_closed(1, 0, coords_at(0.8, -0.2), 0.5)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_closed_vs_quadrature_sweep(self, a):
        # independent-route agreement across both regions
        for y, z in [(0.9, -0.3), (2.0, -1.2), (1.3, 0.4), (2.5, 1.1)]:
            c = coords_at(y, z)
            for m in range(5):
                for n in range(5):
                    if z < 0 or m >= n:
                        if m >= n:
                            assert abs(
                                CLOSED["Q" if z < 0 else "C"](m, n, c, a)
                                - quadrature_term("Q" if z < 0 else "C", m, n, c, a)
                            ) < 1e-8
                    if z > 0:
                        assert abs(
                            a_closed(m, n, c, a) - quadrature_term("A", m, n, c, a)
                        ) < 1e-8
                        if n >= m:
                            assert abs(
                                b_closed(m, n, c, a) - quadrature_term("B", m, n, c, a)
                            ) < 1e-8


def _ge_route_pmf(params, m, n, s, t):
    """Third evaluation route: second difference of the arrival-chain
    probabilities integrated against the index mixture.

    q_{m,n} = a * int_0^y h_n(a w) P(S_m <= (y-z)/mu, S_n <= (y-w)/mu) dw
    (atom of h_n handled analytically), then
    p_{m,n} = q_{m,n} - q_{m+1,n} - q_{m,n+1} + q_{m+1,n+1}.
    """
    from scipy.integrate import quad

    from sdpoisson.special import binom_weight

    coords = reduced_coords(params, s, t)
    y, z = coords.y, coords.z
    a, mu = params.a, params.mu

    def q(mm, nn):
        rho = (y - z) / mu

        def prob_at(w):
            return joint_ge_prob(mm, nn, rho, (y - w) / mu, mu)

        betas = [binom_weight(k, nn, a) for k in range(nn + 1)]
        atom = betas[0] * prob_at(0.0)

        def integrand(w):
            x = a * w
            if x <= 0.0:
                return 0.0
            total, f = 0.0, math.exp(-x)
            for k in range(1, nn + 1):
                total += betas[k] * f
                f *= x / k
            return total * prob_at(w)

        val, _ = quad(integrand, 0.0, y, epsabs=1e-12, limit=300)
        return atom + a * val

    return q(m, n) - q(m + 1, n) - q(m, n + 1) + q(m + 1, n + 1)


class TestGeProbRoute:
    @pytest.mark.parametrize("s,t", [(1.0, 0.4), (1.0, 0.8)])
    def test_pmf_reconstructed_from_ge_probabilities(self, s, t):
        for m in range(3):
            for n in range(3):
                want = _ge_route_pmf(PARAMS, m, n, s, t)
                got = joint_pmf(PARAMS, m, n, s, t).value
                assert abs(got - want) < 1e-8


class TestJointPmf:
    def test_low_order_values_negative_region(self):
        r = joint_pmf(PARAMS, 0, 0, 1.0, 0.4)
        assert r.value == pytest.approx(math.exp(-1.0), rel=1e-12)
        r = joint_pmf(PARAMS, 1, 1, 1.0, 0.4)
        want = (math.exp(-1.0) / 0.5) * (0.4 - 0.5 * (1 - math.exp(-0.4)))
        assert r.value == pytest.approx(want, rel=1e-11)

    def test_empty_region_is_symbolic_zero(self):
        r = joint_pmf(PARAMS, 0, 1, 1.0, 0.4)
        assert r.value == 0.0 and r.raw == 0.0
        assert r.method_used == "lemma-exact"
        assert r.closed_form is None and r.quadrature is None

    def test_empty_region_includes_boundary(self):
        r = joint_pmf(PARAMS, 1, 2, 1.0, 0.5)
        assert r.value == 0.0 and r.method_used == "lemma-exact"

    def test_positive_region_survival_identity(self):
        # p_{0,0}(s,t) = exp(-mu*s - a*z) when lam*t > a*mu*s
        for s, t, a in [(1.0, 0.6, 0.5), (0.8, 0.7, 0.3), (2.0, 1.9, 0.7)]:
            params = ModelParams(1.0, 1.0, a)
            z = (t - a * s) / a
            if z <= 0:
                continue
            want = math.exp(-s - a * z)
            assert joint_pmf(params, 0, 0, s, t).value == pytest.approx(want, rel=1e-11)

    def test_explicit_formula_regression(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(0.05, 0.95)
            s = rng.uniform(0.1, 3.0)
            t = rng.uniform(0.0, 1.0) * a * s
            if t <= 0.0:
                continue
            params = ModelParams(1.0, 1.0, a)
            for m in range(3):
                for n in range(m + 1):
                    got = joint_pmf(params, m, n, s, t, method="closed").raw
                    want = explicit_low_order(m, n, 1.0, 1.0, s, t, a)
                    worst = max(worst, abs(got - want))
        assert worst < 1e-10

    def test_boundary_average_and_continuity(self):
        r = joint_pmf(PARAMS, 0, 0, 1.0, 0.5)
        assert r.method_used == "boundary-average"
        assert r.value == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_boundary_negative_side_evaluates_q(self):
        # s = 1, t = 0.5 puts z exactly at 0: the closed route's negative
        # side must be the Q family, not the positive side evaluated twice.
        from sdpoisson.pmf import _closed_raw

        coords = reduced_coords(PARAMS, 1.0, 0.5)
        assert coords.z == 0.0
        a = PARAMS.a
        neg, _ = _closed_raw(2, 1, coords, a, Region.NEG_Z)
        assert neg == q_closed(2, 1, coords, a) - q_closed(2, 2, coords, a)

    @pytest.mark.parametrize("a", [0.3, 0.7])
    def test_continuity_across_zero_offset(self, a):
        params = ModelParams(1.0, 1.0, a)
        s = 1.0
        delta = 1e-6
        for m in range(6):
            for n in range(6):
                # t values straddling the boundary lam*t = a*mu*s
                t_minus = a * s - a * delta
                t_plus = a * s + a * delta
                p_minus = joint_pmf(params, m, n, s, t_minus, method="closed").raw
                p_plus = joint_pmf(params, m, n, s, t_plus, method="closed").raw
                assert abs(p_minus - p_plus) <= 1e-5

    def test_methods_agree(self):
        for s, t in [(1.0, 0.4), (1.0, 0.8), (2.0, 1.5)]:
            for m in range(4):
                for n in range(4):
                    rc = joint_pmf(PARAMS, m, n, s, t, method="closed").raw
                    rq = joint_pmf(PARAMS, m, n, s, t, method="quadrature").raw
                    assert abs(rc - rq) < 1e-8

    def test_crosscheck_populates_both_routes(self):
        r = joint_pmf(PARAMS, 2, 1, 1.0, 0.8, crosscheck=True)
        assert r.closed_form is not None and r.quadrature is not None
        assert abs(r.closed_form - r.quadrature) < 1e-8

    def test_crosscheck_on_the_boundary(self):
        # z = 0 exactly: each engine gives its own two-sided average
        r = joint_pmf(PARAMS, 2, 1, 1.0, 0.5, crosscheck=True)
        assert r.method_used == "boundary-average"
        assert r.closed_form == r.raw
        assert abs(r.closed_form - r.quadrature) < 1e-8
        quadr = joint_pmf(PARAMS, 2, 1, 1.0, 0.5, method="quadrature")
        assert r.quadrature == quadr.raw

    def test_auto_falls_back_on_cancellation(self):
        # far outside the desk box the guard must reroute to quadrature
        r = joint_pmf(PARAMS, 25, 22, 30.0, 28.0, method="auto")
        assert r.method_used == "quadrature"
        assert 0.0 <= r.value <= 1.0

    def test_against_mc(self):
        est = mc_joint_pmf(PARAMS, 0, 0, 1.0, 0.4, n_samples=200_000, seed=8)
        assert abs(est.value - math.exp(-1.0)) < 3.5 * est.std_error
        est = mc_joint_pmf(PARAMS, 0, 1, 1.0, 0.4, n_samples=50_000, seed=8)
        assert est.value == 0.0

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            joint_pmf(PARAMS, -1, 0, 1.0, 1.0)
        with pytest.raises(DomainError):
            joint_pmf(PARAMS, 0, 0, 1.0, 1.0, method="magic")

    def test_report_clamps_tiny_negative(self):
        # deep-tail cells may stray below zero by round-off only
        r = joint_pmf(PARAMS, 6, 6, 0.2, 0.05)
        assert r.value >= 0.0
        assert r.raw >= -1e-9

    def test_report_range_gate(self):
        from sdpoisson.pmf import _finalize

        with pytest.raises(ConsistencyError):
            _finalize(0, 0, 1.0, 1.0, 1.5, "closed", None, None)
        with pytest.raises(ConsistencyError):
            _finalize(0, 0, 1.0, 1.0, -1e-6, "closed", None, None)
        report = _finalize(0, 0, 1.0, 1.0, -1e-12, "closed", None, None)
        assert report.raw == -1e-12 and report.value == 0.0

    def test_integration_failure_carries_best_estimate(self):
        from sdpoisson.errors import IntegrationError

        # an unreachable tolerance forces the failure path
        with pytest.raises(IntegrationError) as exc:
            quadrature_term("Q", 3, 2, coords_at(0.8, -0.2), 0.5, tol=1e-18)
        assert exc.value.best_estimate == pytest.approx(0.01817762445, abs=1e-9)
        assert exc.value.error_bound > 1e-18


class TestPmfTable:
    def test_small_table_matches_scalar_evaluator(self):
        table = pmf_table(PARAMS, 1.0, 0.8, 5, 5)
        for m in range(6):
            for n in range(6):
                want = joint_pmf(PARAMS, m, n, 1.0, 0.8).value
                assert table.values[m, n] == pytest.approx(want, abs=1e-12)

    def test_deficit_against_tail_bound(self):
        # block small enough that the Poisson tail bound is well above the
        # float noise floor: the deficit must respect it exactly
        table = pmf_table(PARAMS, 1.0, 1.0, 12, 12)
        assert table.deficit >= -1e-9
        assert table.deficit <= table.tail_bound

    def test_large_block_deficit_within_float_noise(self):
        table = pmf_table(PARAMS, 1.0, 1.0, 40, 40)
        assert abs(table.deficit) < 1e-9

    def test_marginal_sums(self):
        table = pmf_table(PARAMS, 1.0, 1.0, 40, 40)
        assert np.max(np.abs(table.row_sums - table.poisson_row)) < 1e-8
        assert np.max(np.abs(table.col_sums - table.poisson_col)) < 1e-8

    def test_nonnegative_cells(self):
        table = pmf_table(PARAMS, 1.5, 0.9, 15, 15)
        assert table.values.min() >= 0.0

    def test_bad_block(self):
        with pytest.raises(DomainError):
            pmf_table(PARAMS, 1.0, 1.0, -1, 5)

    @pytest.mark.parametrize("name,s,t", [
        ("s", math.inf, 1.0), ("s", math.nan, 1.0), ("s", -1.0, 1.0),
        ("t", 1.0, math.inf), ("t", 1.0, math.nan), ("t", 1.0, -1.0),
    ])
    def test_bad_times_named(self, name, s, t):
        # rejected before the Poisson marginals are built from them
        with pytest.raises(DomainError, match=f"^{name} must"):
            pmf_table(PARAMS, s, t, 3, 3)

    @pytest.mark.parametrize("kwargs", [{"method": "magic"}, {"quad_tol": -1.0}])
    def test_bad_route_rejected_when_every_cell_is_pruned(self, kwargs):
        # at s = t = 60 every cell of the 2 x 2 block is pruned, so no
        # per-cell check would ever see the bad argument
        with pytest.raises(DomainError):
            pmf_table(PARAMS, 60.0, 60.0, 1, 1, **kwargs)

    def test_missing_mass_raises(self, monkeypatch):
        import sdpoisson.pmf as pmf

        real = pmf.joint_pmf

        def halve_one_cell(params, m, n, s, t, **kw):
            report = real(params, m, n, s, t, **kw)
            if (m, n) == (1, 1):
                report = dataclasses.replace(report, value=0.5 * report.value)
            return report

        monkeypatch.setattr(pmf, "joint_pmf", halve_one_cell)
        with pytest.raises(ConsistencyError):
            pmf_table(PARAMS, 1.0, 1.0, 12, 12)


def mp_mixture(n, a, x):
    """sum_{l=1}^{n} beta_l(n) pi_{l-1}(x), to 30 digits."""
    with mpmath.workdps(30):
        x, a = mpmath.mpf(x), mpmath.mpf(a)
        return float(mpmath.fsum(
            mpmath.binomial(n, l) * a ** (n - l) * (1 - a) ** l
            * mpmath.exp((l - 1) * mpmath.log(x) - x - mpmath.loggamma(l))
            for l in range(1, n + 1)
        ))


def mp_term_n1(term, m, y, z, a):
    """Q_{m,1} or C_{m,1} from the incomplete-gamma form of its integral, to 30 digits.

    With h_1 = a (atom) + (1-a) e^(-x) and P(Bin(m, p) >= 1) = 1 - (1-p)^m,
    the w-integral of e^(-a w) ((w - z)/(y - z))^m is an incomplete gamma.
    """
    with mpmath.workdps(30):
        y, z, a = mpmath.mpf(y), mpmath.mpf(z), mpmath.mpf(a)
        v = y - z
        pim = mpmath.exp(m * mpmath.log(v) - v - mpmath.loggamma(m + 1))
        lo = -a * z if term == "Q" else 0
        tail = ((1 - a) * mpmath.exp(-a * z - m * mpmath.log(a * v))
                * mpmath.gammainc(m + 1, lo, a * v))
        if term == "Q":
            body = a * (1 - (-z / v) ** m) + (1 - a) * (1 - mpmath.exp(-a * y)) - tail
        else:
            body = (1 - a) * (mpmath.exp(-a * z) - mpmath.exp(-a * y)) - tail
        return float(pim * body)


class TestLargeArguments:
    # exp(-v) is 0 past v ~ 745; the quadrature terms must not start there.
    @pytest.mark.parametrize("v", [800.0, 1600.0, 3000.0])
    @pytest.mark.parametrize("term", ["Q", "C"])
    def test_quadrature_term_at_large_horizon(self, term, v):
        # m at the mode of pi_m(y - z); for Q, y = 2 keeps the binomial
        # tail of the integrand away from 1 over the mass of h_1.
        y, z = (2.0, 2.0 - v) if term == "Q" else (v + 1.0, 1.0)
        m = int(v)
        want = mp_term_n1(term, m, y, z, 0.5)
        assert want > 1e-3
        got = quadrature_term(term, m, 1, coords_at(y, z), 0.5)
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("x", [800.0, 1600.0, 3000.0])
    def test_mixture_density_matches_log_space_sum(self, x):
        # the h_n that quadrature_term integrates against
        n = int(2 * x)
        want = mp_mixture(n, 0.5, x)
        assert want > 1e-3
        assert erlang_mixture_density(n, 0.5).density(x) == pytest.approx(want, rel=1e-10)

"""Renewal chains, counting processes, and the random-index Erlang law."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from sdpoisson.cli import main
from sdpoisson.errors import DomainError, PathExhaustedError
from sdpoisson.exponential import ModelParams, sample_triples
from sdpoisson.harness import mc_joint_pmf_grid, renewals_for_horizon
from sdpoisson.process import (
    _simulate_with_rng,
    compensated_at,
    count_at,
    simulate_path,
    zeta_pmf_mixture,
)
from sdpoisson.special import poisson_weight

KS_COEFF_1PCT = 1.6276


class _ScriptedRng:
    def __init__(self, uniforms, exponentials):
        self._u = list(uniforms)
        self._e = list(exponentials)

    @staticmethod
    def _take(queue, size):
        return np.array([queue.pop(0) for _ in range(size)])

    def random(self, size):
        return self._take(self._u, size)

    def exponential(self, scale, size):
        return self._take(self._e, size) * scale


def _marginal_counts(params, horizon, n_paths, seed, axis):
    """Histogram of N(horizon) (axis=1) or M(horizon) (axis=0)."""
    k_max = renewals_for_horizon(max(params.lam, params.mu), horizon) + 2
    freq = mc_joint_pmf_grid(params, [(horizon, horizon)], k_max, k_max, n_paths, seed)
    marginal = freq[0].sum(axis=1 if axis == 0 else 0)
    return marginal


class TestSimulatePath:
    def test_forced_single_step(self):
        params = ModelParams(1.0, 1.0, 0.5)
        rng = _ScriptedRng([0.9], [2.0, 5.0])  # b = 0, y = 2, z = 5
        path = _simulate_with_rng(params, 1, rng, seed=-1)
        assert path.t_arrivals.tolist() == [0.0, 1.0]
        assert path.s_arrivals.tolist() == [0.0, 2.0]
        assert path.b_count.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", [7, 2024])
    def test_one_stream_for_library_and_cli(self, seed, tmp_path):
        # simulate_path, sample_triples and `sdpoisson simulate` agree on
        # what a seed means: the path's steps are the block draw and its
        # arrival chains are the CLI's t_n/s_n columns, bit for bit.
        params = ModelParams(1.3, 0.7, 0.35)
        n = 40
        path = simulate_path(params, n, seed)
        x, y, _, _ = sample_triples(params, n, np.random.default_rng(seed))
        assert np.array_equal(path.x_steps, x)
        assert np.array_equal(path.y_steps, y)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--lambda", "1.3", "--mu", "0.7", "--a", "0.35",
                     "--n", str(n), "--seed", str(seed), "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[3]) for r in rows] == path.t_arrivals[1:].tolist()
        assert [float(r[4]) for r in rows] == path.s_arrivals[1:].tolist()

    def test_rejects_zero_renewals(self):
        with pytest.raises(DomainError):
            simulate_path(ModelParams(1.0, 1.0, 0.5), 0, 1)

    def test_deterministic_in_seed(self):
        params = ModelParams(1.0, 2.0, 0.4)
        p1 = simulate_path(params, 30, 99)
        p2 = simulate_path(params, 30, 99)
        assert np.array_equal(p1.t_arrivals, p2.t_arrivals)
        assert np.array_equal(p1.s_arrivals, p2.s_arrivals)

    def test_arrays_are_frozen(self):
        path = simulate_path(ModelParams(1.0, 1.0, 0.5), 5, 0)
        with pytest.raises(ValueError):
            path.t_arrivals[0] = 1.0

    def test_erlang_mean(self):
        params = ModelParams(1.0, 1.0, 0.5)
        finals = np.array(
            [simulate_path(params, 20, seed).t_arrivals[-1] for seed in range(10_000)]
        )
        se = math.sqrt(20.0) / math.sqrt(len(finals))  # Var(T_20) = 20 / lam^2
        assert abs(finals.mean() - 20.0) < 3.0 * se

    @pytest.mark.parametrize("seed", range(5))
    def test_pathwise_inequality(self, seed):
        params = ModelParams(1.3, 0.7, 0.6)
        path = simulate_path(params, 200, seed)
        floor = (params.a * params.mu / params.lam) * path.s_arrivals
        assert np.all(path.t_arrivals >= floor - 1e-12 * np.maximum(1.0, path.t_arrivals))

    @pytest.mark.parametrize("seed", range(3))
    def test_decomposition_ledger_exact_in_rationals(self, seed):
        # The stored renewal components satisfy the chain decomposition
        # T_n = (a mu / lam) S_n + zeta_n identically once the float
        # round-off of the running sums is taken out of the picture:
        # rebuild all three chains in exact rational arithmetic from the
        # raw sampled values and require exact equality.
        params = ModelParams(1.25, 0.75, 0.4)
        path = simulate_path(params, 120, seed)
        a = Fraction(params.a)
        lam = Fraction(params.lam)
        mu = Fraction(params.mu)
        t_exact = Fraction(0)
        s_exact = Fraction(0)
        zeta_exact = Fraction(0)
        for k in range(path.n_renewals):
            y = Fraction(float(path.y_steps[k]))
            z = Fraction(float(path.z_steps[k]))
            b = int(path.b_steps[k])
            # the sampler's own float expression, re-evaluated bitwise
            assert path.x_steps[k] == params.a * path.y_steps[k] + b * path.z_steps[k]
            t_exact += a * y + b * z
            s_exact += (lam / mu) * y
            zeta_exact += b * z
            assert t_exact - (a * mu / lam) * s_exact == zeta_exact
            # stored float chains track the exact values
            n = k + 1
            assert abs(float(t_exact) - path.t_arrivals[n]) <= 1e-13 * max(1.0, float(t_exact))
            assert abs(float(zeta_exact) - path.zeta[n]) <= 1e-13 * max(1.0, float(zeta_exact))
        assert path.b_count[-1] == int(path.b_steps.sum())


class TestCounting:
    def setup_method(self):
        self.params = ModelParams(1.0, 1.0, 0.5)
        self.path = simulate_path(self.params, 50, 7)

    def test_zero_time(self):
        assert count_at(self.path, 0.0, "N") == 0
        assert count_at(self.path, 0.0, "M") == 0

    def test_step_semantics(self):
        t3 = self.path.t_arrivals[3]
        assert count_at(self.path, t3 * (1 + 1e-12), "N") == 3
        assert count_at(self.path, self.path.t_arrivals[4] * (1 - 1e-12), "N") == 3

    def test_exhausted_query_raises(self):
        last = self.path.t_arrivals[-1]
        with pytest.raises(PathExhaustedError):
            count_at(self.path, last, "N")
        with pytest.raises(PathExhaustedError):
            count_at(self.path, last + 1.0, "N")

    def test_bad_axis(self):
        with pytest.raises(DomainError):
            count_at(self.path, 1.0, "X")

    @pytest.mark.parametrize("which", ["N", "M"])
    def test_nan_time_rejected(self, which):
        with pytest.raises(DomainError):
            count_at(self.path, math.nan, which)
        with pytest.raises(DomainError):
            compensated_at(self.path, math.nan, which)

    def test_compensated_values(self):
        t = 5.0
        n = count_at(self.path, t, "N")
        assert compensated_at(self.path, t, "N") == n - self.params.lam * t
        assert compensated_at(self.path, 0.0, "N") == 0.0

    @pytest.mark.parametrize("horizon", [1.0, 5.0, 10.0])
    def test_marginal_poissonity_chisquare(self, horizon):
        params = ModelParams(1.0, 1.0, 0.5)
        n_paths = 100_000
        for axis in (0, 1):
            rate = params.mu if axis == 0 else params.lam
            freq = _marginal_counts(params, horizon, n_paths, seed=31, axis=axis)
            counts = freq * n_paths
            expected = np.array(
                [poisson_weight(k, rate * horizon) * n_paths for k in range(len(counts))]
            )
            # pool the tail so every expected bin count is >= 5
            keep = expected >= 5.0
            obs = list(counts[keep]) + [counts[~keep].sum()]
            exp = list(expected[keep]) + [expected[~keep].sum()]
            stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
            p_value = chi2.sf(stat, df=len(obs) - 1)
            assert p_value > 0.01

    def test_compensated_mean_is_zero(self):
        # martingale property at t = 5 over the ensemble
        params = ModelParams(1.0, 1.0, 0.5)
        n_paths = 100_000
        freq = _marginal_counts(params, 5.0, n_paths, seed=13, axis=1)
        ks = np.arange(len(freq))
        mean_n = float((ks * freq).sum())
        se = math.sqrt(5.0 / n_paths)
        assert abs(mean_n - 5.0) < 3.0 * se

    def test_independence_limit_regime(self):
        params = ModelParams(1.0, 1.0, 0.01)
        freq = mc_joint_pmf_grid(params, [(5.0, 5.0)], 40, 40, 100_000, seed=3)[0]
        m_idx = np.arange(freq.shape[0])[:, None]
        n_idx = np.arange(freq.shape[1])[None, :]
        em = float((m_idx * freq).sum())
        en = float((n_idx * freq).sum())
        cov = float((m_idx * n_idx * freq).sum()) - em * en
        var_m = float((m_idx**2 * freq).sum()) - em * em
        var_n = float((n_idx**2 * freq).sum()) - en * en
        corr = cov / math.sqrt(var_m * var_n)
        assert abs(corr) < 0.05

    def test_comonotone_limit_regime(self):
        params = ModelParams(1.0, 1.0, 0.99)
        freq = mc_joint_pmf_grid(params, [(5.0, 5.0)], 40, 40, 100_000, seed=4)[0]
        p_equal = float(np.trace(freq))
        assert p_equal > 0.9


class TestZetaMixture:
    def test_empty_sum_is_atom(self):
        law = zeta_pmf_mixture(0, ModelParams(1.0, 1.0, 0.5))
        assert law.atom_weight == 1.0
        assert law.cdf(0.0) == 1.0

    def test_atom_weight(self):
        law = zeta_pmf_mixture(2, ModelParams(1.0, 1.0, 0.5))
        assert law.atom_weight == pytest.approx(0.25, abs=1e-16)

    def test_rescaling_against_unit_rate(self):
        params = ModelParams(2.0, 1.0, 0.3)
        law = zeta_pmf_mixture(3, params)
        # density transforms as lam * h(lam x)
        from sdpoisson.special import erlang_mixture_density

        base = erlang_mixture_density(3, params.a)
        for x in (0.1, 0.8, 2.0):
            assert law.density(x) == pytest.approx(2.0 * base.density(2.0 * x), rel=1e-12)

    def test_simulated_sum_matches_mixture_cdf(self):
        params = ModelParams(2.0, 1.0, 0.3)
        n, n_samples = 5, 100_000
        rng = np.random.default_rng(17)
        b = rng.random((n_samples, n)) < (1.0 - params.a)
        z = rng.exponential(1.0 / params.lam, (n_samples, n))
        zeta = np.sort((b * z).sum(axis=1))
        grid = np.concatenate([[0.0], np.unique(zeta)])
        emp = np.searchsorted(zeta, grid, side="right") / n_samples
        theo = np.array([law_cdf for law_cdf in map(zeta_pmf_mixture(n, params).cdf, grid)])
        assert np.max(np.abs(emp - theo)) < KS_COEFF_1PCT / math.sqrt(n_samples)

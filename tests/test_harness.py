"""Monte Carlo machinery: reproducibility, parallel merge, verdicts."""

import math

import numpy as np
import pytest

from sdpoisson.errors import DomainError
from sdpoisson.exponential import ModelParams
from sdpoisson.harness import (
    McEstimate,
    TolerancePolicy,
    Verdict,
    compare,
    mc_joint_pmf,
    mc_joint_pmf_grid,
    merge_counts,
    renewals_for_horizon,
    sample_correlation,
    worker_seeds,
)
from sdpoisson.harness import _count_grid
from sdpoisson.special import poisson_upper_tail

PARAMS = ModelParams(lam=1.0, mu=1.0, a=0.5)


class TestRenewalBudget:
    def test_rule_value(self):
        assert renewals_for_horizon(1.0, 5.0) == math.ceil(5 + 12 * math.sqrt(5) + 30)

    def test_censoring_probability_tiny(self):
        for rate, horizon in [(1.0, 1.0), (1.0, 10.0), (2.5, 4.0)]:
            k = renewals_for_horizon(rate, horizon)
            assert poisson_upper_tail(k + 1, rate * horizon) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            renewals_for_horizon(0.0, 1.0)

    def test_infinite_horizon_rejected(self):
        with pytest.raises(DomainError):
            mc_joint_pmf(PARAMS, 1, 1, math.inf, 1.0, n_samples=1_000, seed=0)


class TestReproducibility:
    def test_bit_identical_estimates(self):
        e1 = mc_joint_pmf(PARAMS, 1, 1, 1.0, 0.8, n_samples=20_000, seed=5)
        e2 = mc_joint_pmf(PARAMS, 1, 1, 1.0, 0.8, n_samples=20_000, seed=5)
        assert e1 == e2

    def test_seed_changes_estimate(self):
        e1 = mc_joint_pmf(PARAMS, 1, 1, 1.0, 0.8, n_samples=20_000, seed=5)
        e2 = mc_joint_pmf(PARAMS, 1, 1, 1.0, 0.8, n_samples=20_000, seed=6)
        assert e1.value != e2.value

    def test_grid_reproducible(self):
        points = [(1.0, 0.4), (1.0, 0.8)]
        f1 = mc_joint_pmf_grid(PARAMS, points, 3, 3, 10_000, seed=2)
        f2 = mc_joint_pmf_grid(PARAMS, points, 3, 3, 10_000, seed=2)
        assert np.array_equal(f1, f2)

    def test_counts_pinned(self):
        # Counts recorded when the kernel drew its batches inline.  A change
        # to the Monte Carlo stream must show up here as a deliberate edit.
        params = ModelParams(1.0, 1.5, 0.4)
        freq = mc_joint_pmf_grid(params, [(1.0, 0.5), (2.0, 1.5)], 2, 2, 2000, seed=2024)
        counts = [
            [[441, 0, 0, 0], [409, 291, 0, 0], [228, 161, 80, 0], [174, 116, 70, 30]],
            [[76, 20, 2, 0], [88, 172, 32, 4], [106, 161, 176, 17], [209, 314, 271, 352]],
        ]
        assert np.array_equal(freq, np.array(counts) / 2000)


class TestParallelMerge:
    def test_four_worker_merge_equals_manual_pooling(self):
        points = [(1.0, 0.8)]
        n_samples = 40_000
        merged = mc_joint_pmf_grid(PARAMS, points, 3, 3, n_samples, seed=9, n_workers=4)
        seqs = worker_seeds(9, 4)
        sizes = [10_000] * 4
        parts = [
            _count_grid(PARAMS, points, 3, 3, size, seq)
            for size, seq in zip(sizes, seqs)
        ]
        total, n_total = merge_counts(parts, sizes)
        assert n_total == n_samples
        assert np.array_equal(merged, total / n_total)

    def test_process_pool_matches_sequential(self):
        points = [(1.0, 0.5)]
        seq = mc_joint_pmf_grid(PARAMS, points, 2, 2, 20_000, seed=4, n_workers=4)
        par = mc_joint_pmf_grid(
            PARAMS, points, 2, 2, 20_000, seed=4, n_workers=4, parallel=True
        )
        assert np.array_equal(seq, par)

    def test_merge_is_associative(self):
        rng = np.random.default_rng(0)
        parts = [rng.integers(0, 50, (3, 3)) for _ in range(4)]
        t1, n1 = merge_counts(parts, [10, 20, 30, 40])
        t2, n2 = merge_counts(parts[::-1], [40, 30, 20, 10])
        assert np.array_equal(t1, t2) and n1 == n2

    def test_worker_seeds_deterministic(self):
        s1 = [s.generate_state(2).tolist() for s in worker_seeds(7, 3)]
        s2 = [s.generate_state(2).tolist() for s in worker_seeds(7, 3)]
        assert s1 == s2


class TestEstimates:
    def test_matches_known_probability(self):
        est = mc_joint_pmf(PARAMS, 0, 0, 1.0, 0.4, n_samples=100_000, seed=1)
        assert abs(est.value - math.exp(-1.0)) < 3.5 * est.std_error

    def test_empty_region_estimate_is_exact_zero(self):
        est = mc_joint_pmf(PARAMS, 0, 1, 1.0, 0.4, n_samples=10_000, seed=1)
        assert est.value == 0.0

    def test_frequencies_partition(self):
        freq = mc_joint_pmf_grid(PARAMS, [(1.0, 0.4)], 20, 20, 50_000, seed=3)
        assert freq[0][:21, :21].sum() == pytest.approx(1.0, abs=1e-3)
        assert freq[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_standard_error_definition(self):
        est = McEstimate.from_count(250, 1000, seed=0)
        assert est.value == 0.25
        assert est.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 1000), rel=1e-12)

    def test_sample_size_gate(self):
        with pytest.raises(DomainError):
            mc_joint_pmf(PARAMS, 0, 0, 1.0, 1.0, n_samples=100, seed=0)


class TestCompare:
    def test_pass_within_band(self):
        est = McEstimate(value=0.3681, std_error=0.0005, n_samples=930_000, seed=0)
        assert compare(0.3679, est) == Verdict.PASS

    def test_fail_outside_band(self):
        est = McEstimate(value=0.3750, std_error=0.0005, n_samples=930_000, seed=0)
        assert compare(0.3679, est) == Verdict.FAIL

    def test_inconclusive_when_se_exceeds_resolution(self):
        est = McEstimate(value=0.37, std_error=0.05, n_samples=100, seed=0)
        assert compare(0.3679, est) == Verdict.INCONCLUSIVE

    def test_zero_count_against_tiny_reference(self):
        # nominal SE collapses to 0; the reference-implied band plus the
        # absolute floor keeps deep-tail cells decidable
        est = McEstimate.from_count(0, 1_000_000, seed=0)
        policy = TolerancePolicy(abs_floor=3e-6)
        assert compare(1e-7, est, policy) == Verdict.PASS

    def test_quadrature_comparison_uses_abs_tol(self):
        assert compare(0.5, 0.5 + 5e-9, TolerancePolicy(abs_tol=1e-8)) == Verdict.PASS
        assert compare(0.5, 0.5 + 5e-8, TolerancePolicy(abs_tol=1e-8)) == Verdict.FAIL


class TestSampleCorrelation:
    def test_requires_matched_lengths(self):
        with pytest.raises(DomainError):
            sample_correlation(np.zeros(10), np.zeros(11))

    def test_recovers_strong_dependence(self):
        rng = np.random.default_rng(12)
        x = rng.exponential(1.0, 50_000)
        est = sample_correlation(x, x + 0.01 * rng.exponential(1.0, 50_000))
        assert est.value > 0.99
        assert est.std_error < 0.01

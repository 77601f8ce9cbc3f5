"""Sampler law, joint cdf/law, correlations, and the non-exponential sum."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import expon, kstest

from sdpoisson.errors import DomainError
from sdpoisson.harness import sample_correlation
from sdpoisson.exponential import (
    ModelParams,
    naive_sum_density,
    sample_pair_comonotone,
    sample_pair_independent,
    sample_triple,
    sample_triples,
    theoretical_correlations,
    xy_joint_cdf,
    xy_joint_law,
    za_cdf,
)

# One-sample Kolmogorov-Smirnov critical coefficient at the 1% level.
KS_COEFF_1PCT = 1.6276


class _ScriptedRng:
    """Plays back queued (uniform, exponential) draws for branch tests."""

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


class TestModelParams:
    def test_valid(self):
        p = ModelParams(lam=2.0, mu=0.5, a=0.7)
        assert p.a == 0.7

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_boundary_a_rejected(self, bad):
        with pytest.raises(DomainError):
            ModelParams(lam=1.0, mu=1.0, a=bad)

    @pytest.mark.parametrize("lam,mu", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0)])
    def test_bad_rates_rejected(self, lam, mu):
        with pytest.raises(DomainError):
            ModelParams(lam=lam, mu=mu, a=0.5)


class TestSampleTriple:
    def test_rejected_branch(self):
        # uniform 0.9 >= 1 - a = 0.5 -> b = 0 -> x = a*y
        params = ModelParams(1.0, 1.0, 0.5)
        rng = _ScriptedRng([0.9], [1.0, 2.0])
        trip = sample_triple(params, rng)
        assert (trip.x, trip.y, trip.z, trip.b) == (0.5, 1.0, 2.0, 0)

    def test_accepted_branch(self):
        params = ModelParams(1.0, 1.0, 0.5)
        rng = _ScriptedRng([0.1], [1.0, 2.0])
        trip = sample_triple(params, rng)
        assert (trip.x, trip.y, trip.z, trip.b) == (2.5, 1.0, 2.0, 1)

    def test_decomposition_identity_is_bitwise(self):
        params = ModelParams(1.3, 0.8, 0.37)
        rng = np.random.default_rng(42)
        for _ in range(200):
            trip = sample_triple(params, rng)
            assert trip.x == params.a * trip.y + trip.b * trip.z

    def test_marginal_law_ks(self):
        params = ModelParams(1.7, 1.0, 0.6)
        rng = np.random.default_rng(7)
        x, _, _, _ = sample_triples(params, 100_000, rng)
        stat = kstest(x, expon(scale=1.0 / params.lam).cdf).statistic
        assert stat < KS_COEFF_1PCT / math.sqrt(len(x))

    @pytest.mark.parametrize("a", [0.01, 0.3, 0.7, 0.99])
    def test_correlations_match_theory(self, a):
        params = ModelParams(1.0, 1.0, a)
        rng = np.random.default_rng(123)
        x, y, z, _ = sample_triples(params, 1_000_000, rng)
        est_xy = sample_correlation(x, y)
        est_xz = sample_correlation(x, z)
        assert abs(est_xy.value - a) < 3.0 * est_xy.std_error
        assert abs(est_xz.value - (1.0 - a)) < 3.0 * est_xz.std_error

    def test_block_shape_keeps_the_stream(self):
        # a shaped draw is the flat draw of the same length, reshaped
        params = ModelParams(1.2, 1.0, 0.4)
        flat = sample_triples(params, 12, np.random.default_rng(9))
        shaped = sample_triples(params, (3, 4), np.random.default_rng(9))
        for f, s in zip(flat, shaped):
            assert s.shape == (3, 4)
            assert np.array_equal(f.reshape(3, 4), s)

    def test_negative_size_rejected(self):
        with pytest.raises(DomainError):
            sample_triples(ModelParams(1.0, 1.0, 0.5), (2, -1), np.random.default_rng(0))

    def test_scalar_and_vector_samplers_share_stream_layout(self):
        params = ModelParams(1.0, 1.0, 0.25)
        scalar_rng = np.random.default_rng(5)
        trips = [sample_triple(params, scalar_rng) for _ in range(4)]
        assert all(t.x == params.a * t.y + t.b * t.z for t in trips)
        # one triple is the same three draws in either sampler
        block = sample_triples(params, 1, np.random.default_rng(5))
        assert tuple(v[0] for v in block) == (trips[0].x, trips[0].y, trips[0].z, trips[0].b)


class TestColumnPrefix:
    """The chunked prefix draw the Monte Carlo kernel relies on."""

    @pytest.mark.parametrize("rows,cols,columns", [
        (0, 5, 2), (1, 1, 1), (3, 7, 1),
        (2001, 146, 11),  # rows not a multiple of the row chunk
        (700, 2110, 300),
        (50, 4, 9),  # columns wider than the block
    ])
    def test_prefix_is_the_full_draw_cut(self, rows, cols, columns):
        params = ModelParams(1.3, 0.7, 0.35)
        full_rng, prefix_rng = np.random.default_rng(17), np.random.default_rng(17)
        full = sample_triples(params, (rows, cols), full_rng)
        prefix = sample_triples(params, (rows, cols), prefix_rng, columns=columns)
        for f, p in zip(full, prefix):
            assert p.dtype == f.dtype
            assert np.array_equal(f[:, :columns], p)
        assert prefix_rng.bit_generator.state == full_rng.bit_generator.state

    @pytest.mark.parametrize("draw", ["random", "exponential"])
    def test_row_chunks_consume_the_stream_as_one_block(self, draw):
        # numpy fills in C order, and the prefix draw depends on it
        block_rng, chunk_rng = np.random.default_rng(3), np.random.default_rng(3)
        block = getattr(block_rng, draw)(size=(1000, 37))
        chunks = [getattr(chunk_rng, draw)(size=(h, 37)) for h in (1, 300, 699)]
        assert np.array_equal(np.concatenate(chunks), block)
        assert chunk_rng.bit_generator.state == block_rng.bit_generator.state

    @pytest.mark.parametrize("size,columns", [(10, 2), ((2, 3, 4), 2), ((4, 5), -1)])
    def test_columns_needs_a_2d_size(self, size, columns):
        with pytest.raises(DomainError):
            sample_triples(ModelParams(1.0, 1.0, 0.5), size, np.random.default_rng(0),
                           columns=columns)


class TestLimitSamplers:
    def test_independent_pair(self):
        rng = _ScriptedRng([0.5], [1.5, 0.4])
        x, y = sample_pair_independent(2.0, rng)
        assert (x, y) == (0.2, 0.75)

    def test_comonotone_pair(self):
        rng = _ScriptedRng([0.5], [1.5, 0.4])
        x, y = sample_pair_comonotone(2.0, rng)
        assert x == y == 0.75

    def test_consume_three_variates_each(self):
        rng = _ScriptedRng([0.1, 0.2], [1.0, 2.0, 3.0, 4.0])
        sample_pair_independent(1.0, rng)
        x, y = sample_pair_comonotone(1.0, rng)
        assert (x, y) == (3.0, 3.0)


class TestZaCdf:
    def test_negative_support(self):
        assert za_cdf(-1.0, ModelParams(1.0, 1.0, 0.3)) == 0.0

    def test_atom_at_zero(self):
        assert za_cdf(0.0, ModelParams(1.0, 1.0, 0.3)) == pytest.approx(0.3, abs=1e-15)

    def test_limit_one(self):
        assert za_cdf(80.0, ModelParams(1.0, 1.0, 0.3)) == pytest.approx(1.0, abs=1e-14)

    def test_matches_empirical_residual_law(self):
        params = ModelParams(1.4, 1.0, 0.45)
        rng = np.random.default_rng(11)
        x, y, z, b = sample_triples(params, 100_000, rng)
        residual = np.sort(b * z)
        n = len(residual)
        grid = np.concatenate([[0.0], np.unique(residual)])
        emp_right = np.searchsorted(residual, grid, side="right") / n
        theo = np.array([za_cdf(v, params) for v in grid])
        # conservative for a law with an atom: KS dominance still applies
        assert np.max(np.abs(emp_right - theo)) < KS_COEFF_1PCT / math.sqrt(n)


class TestXYJointCdf:
    def test_support(self):
        params = ModelParams(1.0, 1.0, 0.5)
        assert xy_joint_cdf(-0.1, 2.0, params) == 0.0
        assert xy_joint_cdf(2.0, -0.1, params) == 0.0

    def test_marginal_recovery_at_cutoff(self):
        # cutoff 50/lam: the neglected tail e^(-50) is ~2e-22
        params = ModelParams(1.0, 1.0, 0.5)
        big = 50.0
        for v in (0.3, 1.0, 2.7):
            assert xy_joint_cdf(big, v, params) == pytest.approx(
                1.0 - math.exp(-v), abs=1e-12
            )
            assert xy_joint_cdf(v, big, params) == pytest.approx(
                1.0 - math.exp(-v), abs=1e-12
            )

    def test_two_increasing_on_grid(self):
        params = ModelParams(1.0, 1.0, 0.35)
        grid = np.linspace(0.0, 4.0, 21)
        h = np.array([[xy_joint_cdf(x, y, params) for y in grid] for x in grid])
        volumes = h[1:, 1:] - h[:-1, 1:] - h[1:, :-1] + h[:-1, :-1]
        assert volumes.min() >= -1e-12

    def test_matches_quadrature_of_joint_law(self):
        params = ModelParams(1.0, 1.0, 0.5)
        law = xy_joint_law(params)
        x_q, y_q = 1.0, 1.0
        # singular piece: the line x = a*y enters the box while y <= x_q/a
        y_stop = min(y_q, x_q / params.a)
        line_mass, _ = quad(law.line_mass_density, 0.0, y_stop, epsabs=1e-12)
        cont_mass, _ = dblquad(
            law.continuous_density,
            0.0, y_q,                      # y range
            lambda y: params.a * y, x_q,   # x range
            epsabs=1e-11,
        )
        assert xy_joint_cdf(x_q, y_q, params) == pytest.approx(
            line_mass + cont_mass, abs=1e-8
        )


class TestXYJointLaw:
    def test_component_masses(self):
        params = ModelParams(1.0, 1.0, 0.3)
        law = xy_joint_law(params)
        singular, _ = quad(law.line_mass_density, 0.0, 80.0, epsabs=1e-12)
        assert singular == pytest.approx(params.a, abs=1e-10)
        assert law.singular_mass == params.a
        assert law.continuous_mass == pytest.approx(1.0 - params.a, abs=1e-15)

    def test_continuous_mass_by_quadrature(self):
        params = ModelParams(1.0, 1.0, 0.3)
        law = xy_joint_law(params)
        mass, _ = dblquad(
            law.continuous_density, 0.0, 60.0, lambda y: params.a * y,
            lambda y: params.a * y + 60.0, epsabs=1e-10,
        )
        assert mass == pytest.approx(1.0 - params.a, abs=1e-8)

    def test_y_marginal_is_exponential(self):
        params = ModelParams(2.0, 1.0, 0.6)
        law = xy_joint_law(params)
        for y in (0.2, 1.0, 2.5):
            cont, _ = quad(
                lambda x: law.continuous_density(x, y),
                params.a * y, params.a * y + 40.0 / params.lam, epsabs=1e-12,
            )
            total = law.line_mass_density(y) + cont
            assert total == pytest.approx(
                params.lam * math.exp(-params.lam * y), abs=1e-9
            )


class TestCorrelationsAndNaiveSum:
    def test_correlation_values(self):
        tri = theoretical_correlations(ModelParams(1.0, 1.0, 0.5))
        assert (tri.r_xy, tri.r_xz, tri.r_xza) == (0.5, 0.5, 0.75)
        tri = theoretical_correlations(ModelParams(1.0, 1.0, 0.99))
        assert tri.r_xy == pytest.approx(0.99)
        assert tri.r_xz == pytest.approx(0.01)
        assert tri.r_xza == pytest.approx(0.0199)

    def test_small_a_limit(self):
        tri = theoretical_correlations(ModelParams(1.0, 1.0, 1e-12))
        assert tri.r_xy == pytest.approx(0.0, abs=1e-12)
        assert tri.r_xz == pytest.approx(1.0, abs=1e-12)
        assert tri.r_xza == pytest.approx(1.0, abs=1e-12)

    def test_naive_sum_support(self):
        assert naive_sum_density(-0.5, ModelParams(1.0, 1.0, 0.3)) == 0.0

    def test_naive_sum_erlang_limit(self):
        got = naive_sum_density(1.0, ModelParams(1.0, 1.0, 0.5))
        assert got == pytest.approx(4.0 * math.exp(-2.0), rel=1e-12)

    def test_naive_sum_is_continuous_near_half(self):
        x = 0.8
        at_half = naive_sum_density(x, ModelParams(1.0, 1.0, 0.5))
        nearby = naive_sum_density(x, ModelParams(1.0, 1.0, 0.5 + 1e-7))
        assert nearby == pytest.approx(at_half, rel=1e-5)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.77])
    def test_naive_sum_normalization(self, a):
        params = ModelParams(1.0, 1.0, a)
        mass, _ = quad(lambda x: naive_sum_density(x, params), 0.0, 120.0, epsabs=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_naive_sum_really_is_the_sum_law(self):
        # MC oracle: histogram of a*Y + (1-a)*Z against the density
        params = ModelParams(1.0, 1.0, 0.3)
        rng = np.random.default_rng(3)
        y = rng.exponential(1.0, 200_000)
        z = rng.exponential(1.0, 200_000)
        s = params.a * y + (1.0 - params.a) * z
        edges = np.linspace(0.0, 3.0, 16)
        hist, _ = np.histogram(s, bins=edges)
        freq = hist / len(s)
        for i in range(len(edges) - 1):
            prob, _ = quad(
                lambda x: naive_sum_density(x, params), edges[i], edges[i + 1],
                epsabs=1e-12,
            )
            se = math.sqrt(prob * (1.0 - prob) / len(s))
            assert abs(freq[i] - prob) < 4.0 * se + 1e-4

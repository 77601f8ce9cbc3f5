"""Monte Carlo estimation and statistical comparison machinery.

Estimates are frequencies over independently simulated renewal-path
ensembles.  Reproducibility contract: a given (params, seed, n_samples)
always produces bit-identical counts; parallel runs split the master seed
with :class:`numpy.random.SeedSequence`, and the merged estimate is the
plain pooled count, so running the workers sequentially or concurrently
is indistinguishable.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponential import ModelParams, sample_triples

__all__ = [
    "McEstimate",
    "Verdict",
    "TolerancePolicy",
    "mc_joint_pmf",
    "sample_correlation",
    "mc_joint_pmf_grid",
    "worker_seeds",
    "merge_counts",
    "compare",
    "renewals_for_horizon",
]

# Paths per simulation batch.  Of each (batch x renewals) draw a batch keeps
# only the max(m_max, n_max) + 1 columns its counts read: its peak is about
# batch x that width x 33 bytes at any horizon (32 MiB for a 10 x 8 block).
_BATCH = 100_000


@dataclass(frozen=True)
class McEstimate:
    """A frequency estimate with its binomial standard error."""

    value: float
    std_error: float
    n_samples: int
    seed: int

    @staticmethod
    def from_count(count: int, n_samples: int, seed: int) -> "McEstimate":
        p = count / n_samples
        return McEstimate(
            value=p,
            std_error=math.sqrt(p * (1.0 - p) / n_samples),
            n_samples=n_samples,
            seed=seed,
        )


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TolerancePolicy:
    """How :func:`compare` turns a discrepancy into a verdict.

    Monte Carlo comparisons use a ``k_se`` band around the estimate; the
    band width uses the larger of the estimate's own standard error and
    the one implied by the reference value (a zero-count estimate has
    zero nominal SE, which would otherwise reject any positive
    reference), plus ``abs_floor`` for the deep-tail cells.  An estimate
    whose SE exceeds ``resolution`` cannot support a conclusion at the
    requested precision and yields INCONCLUSIVE.  Oracle (quadrature)
    comparisons use the absolute tolerance ``abs_tol``.
    """

    k_se: float = 3.5
    abs_floor: float = 0.0
    resolution: float = 0.01
    abs_tol: float = 1e-8


def compare(closed: float, oracle, policy: TolerancePolicy = TolerancePolicy()) -> Verdict:
    """Verdict on |closed - oracle| under the policy's tolerance regime."""
    if isinstance(oracle, McEstimate):
        if oracle.std_error > policy.resolution:
            return Verdict.INCONCLUSIVE
        p_ref = min(max(closed, 0.0), 1.0)
        se_ref = math.sqrt(p_ref * (1.0 - p_ref) / oracle.n_samples)
        band = policy.k_se * max(oracle.std_error, se_ref) + policy.abs_floor
        return Verdict.PASS if abs(closed - oracle.value) <= band else Verdict.FAIL
    return Verdict.PASS if abs(closed - float(oracle)) <= policy.abs_tol else Verdict.FAIL


def sample_correlation(x: np.ndarray, y: np.ndarray, n_batches: int = 100) -> McEstimate:
    """Sample correlation with a batch-estimated standard error.

    The Gaussian-theory SE (1 - rho^2)/sqrt(n) badly underestimates the
    noise for heavy-tailed pairs, so the SE is measured: the sample is cut
    into ``n_batches`` blocks, the correlation is computed per block, and
    the SE of the pooled estimate is std(blocks)/sqrt(n_batches).
    """
    if n_batches < 2:
        raise DomainError(f"n_batches must be >= 2, got {n_batches}")
    n = len(x)
    if n != len(y) or n < 2 * n_batches:
        raise DomainError(f"need matched samples with >= {2 * n_batches} points")
    corr = float(np.corrcoef(x, y)[0, 1])
    size = n // n_batches
    blocks = [
        float(np.corrcoef(x[i * size:(i + 1) * size], y[i * size:(i + 1) * size])[0, 1])
        for i in range(n_batches)
    ]
    se = float(np.std(blocks, ddof=1) / math.sqrt(n_batches))
    return McEstimate(value=corr, std_error=se, n_samples=n, seed=-1)


def renewals_for_horizon(rate: float, horizon: float) -> int:
    """Renewal count keeping the censoring probability below ~1e-12.

    P(Poisson(rate*horizon) > K) < 1e-12 for
    K = ceil(rate*horizon + 12*sqrt(rate*horizon) + 30).
    """
    if not (0.0 < rate < math.inf and 0.0 <= horizon < math.inf):
        raise DomainError(f"need finite rate > 0 and horizon >= 0, got {rate}, {horizon}")
    load = rate * horizon
    return int(math.ceil(load + 12.0 * math.sqrt(load) + 30.0))


def worker_seeds(master_seed: int, n_workers: int) -> list[np.random.SeedSequence]:
    """Deterministic per-worker seed split of a master seed."""
    if n_workers < 1:
        raise DomainError(f"n_workers must be >= 1, got {n_workers}")
    return np.random.SeedSequence(master_seed).spawn(n_workers)


def merge_counts(counts: list[np.ndarray], n_list: list[int]) -> tuple[np.ndarray, int]:
    """Pooled-count merge of per-worker results (associative, order-free)."""
    total = np.zeros_like(counts[0])
    for c in counts:
        total = total + c
    return total, int(sum(n_list))


def _count_grid(
    params: ModelParams,
    points: list[tuple[float, float]],
    m_max: int,
    n_max: int,
    n_samples: int,
    seed_seq: np.random.SeedSequence,
) -> np.ndarray:
    """Counts of {M(s)=m, N(t)=n} per (s,t) point over one seeded stream.

    Each batch is one ``sample_triples(params, (batch, k_renewals), rng,
    columns=max(m_max, n_max) + 1)`` draw: the stream of the full block,
    of which only the columns the counts read are kept, so memory grows
    with the block width and not with the horizon.  Only the first
    n_max + 1 columns of x and m_max + 1 of y are summed and compared: the
    chains never decrease, so they count exactly min(N(t), n_max + 1) and
    min(M(s), m_max + 1).  The last row/column holds the overflow, so the
    returned array always totals n_samples per point.
    """
    rng = np.random.default_rng(seed_seq)
    horizon_t = max(t for _, t in points)
    horizon_s = max(s for s, _ in points)
    # T_n is Erlang_n(lam) and must cover t; S_n is Erlang_n(mu) and must
    # cover s; one shared renewal budget serves both chains.
    k_renewals = max(
        renewals_for_horizon(params.lam, horizon_t),
        renewals_for_horizon(params.mu, horizon_s),
    )
    keep = max(m_max, n_max) + 1
    counts = np.zeros((len(points), m_max + 2, n_max + 2), dtype=np.int64)
    done = 0
    while done < n_samples:
        batch = min(_BATCH, n_samples - done)
        done += batch
        x, y = sample_triples(params, (batch, k_renewals), rng, columns=keep)[:2]
        t_arr = np.cumsum(x[:, :n_max + 1], axis=1)
        s_arr = (params.lam / params.mu) * np.cumsum(y[:, :m_max + 1], axis=1)
        for i, (s_q, t_q) in enumerate(points):
            n_cnt = (t_arr <= t_q).sum(axis=1)
            m_cnt = (s_arr <= s_q).sum(axis=1)
            np.add.at(counts, (i, m_cnt, n_cnt), 1)
    return counts


def mc_joint_pmf_grid(
    params: ModelParams,
    points: list[tuple[float, float]],
    m_max: int,
    n_max: int,
    n_samples: int,
    seed: int,
    n_workers: int = 1,
    parallel: bool = False,
) -> np.ndarray:
    """Joint count frequencies for every (s,t) point and (m,n) <= block.

    Returns an array of shape (len(points), m_max+2, n_max+2); the last
    row/column hold the overflow mass beyond the block.  The result is a
    deterministic function of (params, points, block, n_samples, seed,
    n_workers) -- with ``parallel=True`` the same per-worker streams run
    in separate processes and are merged by pooled counts, yielding
    bit-identical frequencies.
    """
    if n_samples < 1_000:
        raise DomainError(f"n_samples must be >= 1e3, got {n_samples}")
    if not points:
        raise DomainError("points must be non-empty")
    if m_max < 0 or n_max < 0:
        raise DomainError(f"m_max, n_max must be >= 0, got {m_max}, {n_max}")
    for s, t in points:
        if not (0.0 < s < math.inf and 0.0 < t < math.inf):
            raise DomainError(f"points need positive finite s and t, got ({s}, {t})")
    seqs = worker_seeds(seed, n_workers)
    share = n_samples // n_workers
    sizes = [share + (1 if i < n_samples % n_workers else 0) for i in range(n_workers)]
    if parallel and n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_count_grid, params, points, m_max, n_max, sz, sq)
                for sz, sq in zip(sizes, seqs)
            ]
            parts = [f.result() for f in futures]
    else:
        parts = [
            _count_grid(params, points, m_max, n_max, sz, sq)
            for sz, sq in zip(sizes, seqs)
        ]
    total, n_total = merge_counts(parts, sizes)
    return total / n_total


def mc_joint_pmf(
    params: ModelParams,
    m: int,
    n: int,
    s: float,
    t: float,
    n_samples: int,
    seed: int,
    n_workers: int = 1,
    parallel: bool = False,
) -> McEstimate:
    """Frequency of {M(s) = m, N(t) = n} over n_samples simulated paths.

    Paths are simulated long enough that the censoring probability is
    below 1e-12 (:func:`renewals_for_horizon`).  Deterministic given
    (params, m, n, s, t, n_samples, seed, n_workers).
    """
    if m < 0 or n < 0:
        raise DomainError(f"m, n must be >= 0, got {m}, {n}")
    freq = mc_joint_pmf_grid(
        params, [(s, t)], m, n, n_samples, seed, n_workers=n_workers, parallel=parallel
    )
    count = int(round(freq[0, m, n] * n_samples))
    return McEstimate.from_count(count, n_samples, seed)

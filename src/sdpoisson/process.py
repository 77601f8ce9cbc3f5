"""Correlated renewal chains and their counting processes.

A path is built from i.i.d. triples (x_k, y_k, z_k, b_k) of the
self-decomposable construction: the two arrival chains are

    T_n = sum_{k<=n} x_k            (rate-lam chain, drives N(t))
    S_n = (lam/mu) sum_{k<=n} y_k   (rate-mu chain, drives M(s))

with T_0 = S_0 = 0.  Because x_k = a*y_k + b_k*z_k, every path satisfies
T_n = (a*mu/lam) S_n + zeta_n where zeta_n is the running sum of accepted
z's -- the pathwise inequality T_n >= (a*mu/lam) S_n is what empties one
half of the joint pmf's support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PathExhaustedError
from .exponential import ModelParams, sample_triples
from .exponential import sample_triple  # noqa: F401  perfbench/tracing.py wraps this name
from .special import AtomPlusDensity, erlang_mixture_density

__all__ = ["RenewalPath", "simulate_path", "count_at", "compensated_at", "zeta_pmf_mixture"]


@dataclass(frozen=True)
class RenewalPath:
    """Arrival sequences of both chains plus the raw renewal bookkeeping.

    ``t_arrivals`` and ``s_arrivals`` are the (n_renewals+1)-long arrival
    arrays starting at 0; ``b_count`` is the running count of accepted
    z's; ``zeta`` their running sum.  The per-step components
    (``x_steps`` .. ``b_steps``) are retained so the decomposition
    identity T_n = (a*mu/lam) S_n + zeta_n can be re-verified from the
    exact sampled values.  All arrays are read-only.
    """

    params: ModelParams
    seed: int
    t_arrivals: np.ndarray
    s_arrivals: np.ndarray
    b_count: np.ndarray
    zeta: np.ndarray
    x_steps: np.ndarray
    y_steps: np.ndarray
    z_steps: np.ndarray
    b_steps: np.ndarray

    @property
    def n_renewals(self) -> int:
        return len(self.x_steps)


def simulate_path(params: ModelParams, n_renewals: int, seed: int) -> RenewalPath:
    """Simulate both arrival chains for a fixed number of renewals.

    Renewal-count-driven by design: queries beyond the last arrival raise
    instead of silently extending the path, so a (params, n_renewals,
    seed) triple always denotes the same object.  The steps are
    ``sample_triples(params, n_renewals, default_rng(seed))``.
    """
    rng = np.random.default_rng(seed)
    return _simulate_with_rng(params, n_renewals, rng, seed)


def _simulate_with_rng(params: ModelParams, n_renewals: int, rng, seed: int) -> RenewalPath:
    if n_renewals < 1:
        raise DomainError(f"n_renewals must be >= 1, got {n_renewals}")
    x, y, z, accept = sample_triples(params, n_renewals, rng)
    b = accept.astype(np.int64)

    zero = np.zeros(1)
    t_arr = np.concatenate([zero, np.cumsum(x)])
    s_arr = (params.lam / params.mu) * np.concatenate([zero, np.cumsum(y)])
    zeta = np.concatenate([zero, np.cumsum(b * z)])
    b_cnt = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(b)])

    if np.any(np.diff(t_arr) < 0.0) or np.any(np.diff(s_arr) < 0.0):
        raise DomainError("arrival sequences must be nondecreasing")
    # pathwise floor T_n >= (a mu / lam) S_n, exact in the reals, allowed
    # one part in 1e12 of slack for the float cumulative sums
    floor = (params.a * params.mu / params.lam) * s_arr
    if np.any(t_arr < floor - 1e-12 * np.maximum(1.0, floor)):
        raise DomainError("arrival chains violate the decomposition floor")

    for arr in (t_arr, s_arr, zeta, b_cnt, x, y, z, b):
        arr.setflags(write=False)
    return RenewalPath(
        params=params,
        seed=seed,
        t_arrivals=t_arr,
        s_arrivals=s_arr,
        b_count=b_cnt,
        zeta=zeta,
        x_steps=x,
        y_steps=y,
        z_steps=z,
        b_steps=b,
    )


def _arrivals_for(path: RenewalPath, which: str) -> tuple[np.ndarray, float]:
    if which == "N":
        return path.t_arrivals, path.params.lam
    if which == "M":
        return path.s_arrivals, path.params.mu
    raise DomainError(f"which must be 'M' or 'N', got {which!r}")


def count_at(path: RenewalPath, t: float, which: str) -> int:
    """Counting process value: N(t) = max{n : T_n <= t} (or M via S_m).

    Raises :class:`PathExhaustedError` when t reaches the last simulated
    arrival, where the count would be censored.
    """
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    arrivals, _ = _arrivals_for(path, which)
    if t >= arrivals[-1]:
        raise PathExhaustedError(
            f"query time {t} is not below the last simulated arrival "
            f"{arrivals[-1]}; extend n_renewals"
        )
    return int(np.searchsorted(arrivals, t, side="right")) - 1


def compensated_at(path: RenewalPath, t: float, which: str) -> float:
    """Compensated count N(t) - lam*t (or M(t) - mu*t), a martingale in t."""
    _, rate = _arrivals_for(path, which)
    return count_at(path, t, which) - rate * t


def zeta_pmf_mixture(n: int, params: ModelParams) -> AtomPlusDensity:
    """Law of zeta_n = sum of the accepted z's among the first n renewals.

    An Erlang law with a binomial random index: mixture of Erl_k(lam)
    over k ~ Bin(n, 1-a), i.e. the unit-rate mixture h_n rescaled by lam.
    n = 0 is the pure atom at 0 (``erlang_mixture_density(0, a)``).
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    lam = params.lam
    base = erlang_mixture_density(n, params.a)
    return AtomPlusDensity(
        atom_weight=base.atom_weight,
        density=lambda x: lam * base.density(lam * x),
        cdf=lambda x: base.cdf(lam * x),
    )

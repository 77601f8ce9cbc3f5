"""Poisson and binomial weights, Erlang mixtures, and the degenerate Kummer function.

Every law handled here lives on [0, inf) and may carry unit mass at the
origin.  That mass is represented structurally (:class:`AtomPlusDensity`)
rather than as a numeric spike, with the convention that the atom sits just
to the *right* of zero: an integral over [0, b] picks it up, an integral
over (c, b] with c > 0 does not.  This convention is what makes the joint
pmf evaluators continuous across their region boundary.

Notation used throughout the package:

* ``poisson_weight(n, alpha)``  -- pi_n(alpha) = alpha^n e^(-alpha) / n!
* ``binom_weight(k, n, a)``     -- beta_k(n) = C(n,k) a^(n-k) (1-a)^k
* ``erlang_density(n)``         -- f_n, the unit-rate Erlang-n pdf (f_0 = atom)
* ``erlang_mixture_density``    -- h_n = sum_k beta_k(n) f_k
* ``kummer_series``             -- Phi(alpha; beta+1; x) for integers
  0 <= alpha <= beta by its all-positive ascending series; the pmf's
  closed kernels take every Kummer value from it.
* ``kummer_elementary``         -- the same Phi by the paper's reduction
  to a finite combination of powers and exponentials, checked against
  the series by ``sdpoisson verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.special import gammainc

from .errors import DomainError

__all__ = [
    "AtomPlusDensity",
    "poisson_weight",
    "poisson_upper_tail",
    "binom_weight",
    "erlang_density",
    "erlang_mixture_density",
    "poisson_tail_integral",
    "kummer_series",
    "kummer_elementary",
    "KUMMER_CANCEL_GUARD",
]

# Largest index for which binomial coefficients go through exact integer
# arithmetic (math.comb); beyond this, log-space is used.  Python ints are
# exact at any size, but converting C(n, n/2) to float overflows near
# n = 1029, so the cap is generous while staying far from that edge.
_EXACT_BINOM_MAX_N = 60

# A closed-form Kummer evaluation whose largest intermediate term exceeds
# this multiple of the result has lost too many digits to cancellation and
# is recomputed from the series.  The per-term inputs (incomplete-gamma
# tails) carry ~1e-14 relative error, so a factor 100 admits errors of a
# few 1e-12 relative: 2.1e-12 measured against mpmath.hyp1f1 on
# alpha <= beta <= 40, 0.05 <= x <= 60.
KUMMER_CANCEL_GUARD = 1e2

# exp(-v) turns subnormal near v = 708 and is 0 past v ~ 745, so the upward
# Erlang recurrence of the mixture density, which starts from it, forms each
# weight in log space beyond this v.  Below it the recurrence runs unchanged.
_LOG_SPACE_V = 700.0


@dataclass(frozen=True)
class AtomPlusDensity:
    """A sub-probability atom at 0+ together with a density on x > 0.

    Invariants: ``atom_weight`` lies in [0, 1], ``density(x)`` is
    nonnegative for x > 0 and zero for x < 0, and
    ``atom_weight + integral of density over (0, inf)`` equals 1.

    ``cdf``, when present, is the right-continuous distribution function
    including the atom: ``cdf(0) == atom_weight``.
    """

    atom_weight: float
    density: Callable[[float], float]
    cdf: Callable[[float], float] | None = None


def _check_count(n: int, name: str = "n") -> int:
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"{name} must be >= 0, got {n}")
    return n


def poisson_weight(n: int, alpha: float) -> float:
    """Poisson mass pi_n(alpha) = alpha^n e^(-alpha) / n!, in log space.

    The degenerate case pi_n(0) = 1 if n == 0 else 0 encodes the
    convention that a zero-intensity Poisson count sits at zero.
    """
    _check_count(n)
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"alpha must be >= 0 and finite, got {alpha}")
    if alpha == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(alpha) - alpha - math.lgamma(n + 1))


def poisson_upper_tail(k: int, alpha: float) -> float:
    """P(Poisson(alpha) >= k) = 1 - sum_{j<k} pi_j(alpha).

    Evaluated as the regularized lower incomplete gamma P(k, alpha), which
    is stable for large k where the naive complement loses digits; every
    Erlang (Gamma) CDF of this module is this call.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"k must be an integer, got {k!r}")
    if not alpha >= 0.0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if k <= 0:
        return 1.0
    if alpha == 0.0:
        return 0.0
    return float(gammainc(k, alpha))


def binom_weight(k: int, n: int, a: float) -> float:
    """Binomial mass beta_k(n) = C(n,k) a^(n-k) (1-a)^k for Bin(n, 1-a).

    Exact integer binomials up to n = 60 (documented in
    ``_EXACT_BINOM_MAX_N``), log-space beyond.  beta_0(0) = 1.
    """
    _check_count(n)
    _check_count(k, "k")
    if k > n:
        raise DomainError(f"k must be <= n, got k={k}, n={n}")
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"a must lie in [0, 1], got {a}")
    if n == 0:
        return 1.0
    if a == 0.0:
        return 1.0 if k == n else 0.0
    if a == 1.0:
        return 1.0 if k == 0 else 0.0
    if n <= _EXACT_BINOM_MAX_N:
        return math.comb(n, k) * a ** (n - k) * (1.0 - a) ** k
    log_c = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log_c + (n - k) * math.log(a) + k * math.log1p(-a))


def erlang_density(n: int) -> AtomPlusDensity:
    """Unit-rate Erlang-n law: a pure atom for n = 0, else the pdf f_n.

    For n >= 1, f_n(x) = x^(n-1) e^(-x) / (n-1)! on x > 0, which equals
    the Poisson weight pi_{n-1}(x).
    """
    _check_count(n)
    if n == 0:
        return AtomPlusDensity(
            atom_weight=1.0,
            density=lambda x: 0.0,
            cdf=lambda x: 1.0 if x >= 0.0 else 0.0,
        )
    return AtomPlusDensity(
        atom_weight=0.0,
        density=lambda x: 0.0 if x < 0.0 else poisson_weight(n - 1, x),
        cdf=lambda x: poisson_upper_tail(n, x) if x > 0.0 else 0.0,
    )


def erlang_mixture_density(n: int, a: float) -> AtomPlusDensity:
    """Mixture h_n = sum_k beta_k(n) f_k of unit-rate Erlang laws.

    The index k is binomial Bin(n, 1-a), so the k = 0 component leaves an
    atom of weight a^n at the origin while the k >= 1 components supply
    the density on x > 0.
    """
    _check_count(n)
    if not 0.0 < a < 1.0:
        raise DomainError(f"a must lie in the open interval (0, 1), got {a}")
    weights = [binom_weight(k, n, a) for k in range(n + 1)]

    def density(x: float) -> float:
        if x <= 0.0:
            # f_1(0) = 1 is the only component reaching the origin.
            return weights[1] if (x == 0.0 and n >= 1) else 0.0
        if x > _LOG_SPACE_V:
            # f_k(x) = pi_{k-1}(x), each in log space
            return sum(weights[k] * poisson_weight(k - 1, x) for k in range(1, n + 1))
        total = 0.0
        # f_k(x) by upward recurrence: f_{k+1} = f_k * x / k.
        f = math.exp(-x)
        for k in range(1, n + 1):
            total += weights[k] * f
            f *= x / k
        return total

    def cdf(x: float) -> float:
        if x < 0.0:
            return 0.0
        total = weights[0]
        if x > 0.0:
            for k in range(1, n + 1):
                total += weights[k] * poisson_upper_tail(k, x)
        return min(total, 1.0)

    return AtomPlusDensity(atom_weight=weights[0], density=density, cdf=cdf)


def poisson_tail_integral(n: int, lam: float, z: float) -> float:
    """lam * integral over [0, z] of pi_n(lam x) dx = 1 - sum_{k<=n} pi_k(lam z).

    Equals the regularized lower incomplete gamma gamma(n+1, lam z) / n!,
    i.e. the Erlang-(n+1) cdf at z.  Nondecreasing in z with limit 1.
    """
    _check_count(n)
    if lam <= 0.0:
        raise DomainError(f"lam must be > 0, got {lam}")
    if z < 0.0 or math.isnan(z):
        raise DomainError(f"z must be >= 0, got {z}")
    return poisson_upper_tail(n + 1, lam * z)


def _check_kummer_args(alpha: int, beta: int, x: float) -> None:
    _check_count(alpha, "alpha")
    _check_count(beta, "beta")
    if alpha > beta:
        raise DomainError(f"alpha must be <= beta, got alpha={alpha}, beta={beta}")
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"x must be >= 0, got {x}")


def kummer_series(alpha: int, beta: int, x: float) -> float:
    """Phi(alpha; beta+1; x) by its ascending series, all terms positive.

    Term ratio is (alpha+k) x / ((beta+1+k)(k+1)) <= x/(k+1) since
    alpha <= beta, so once k+1 >= 2x the ratio is below 1/2 and the tail
    is bounded by twice the next term; summation stops when that bound
    drops below machine precision relative to the partial sum.
    """
    _check_kummer_args(alpha, beta, x)
    if alpha == 0 or x == 0.0:
        return 1.0
    total = 1.0
    term = 1.0
    k = 0
    while True:
        term *= (alpha + k) * x / ((beta + 1 + k) * (k + 1))
        total += term
        k += 1
        if k + 1 >= 2.0 * x and 2.0 * term <= 1e-17 * total:
            return total
        if k > 100_000:  # unreachable for the supported domain
            raise DomainError(f"kummer series failed to converge for x={x}")


def kummer_elementary(alpha: int, beta: int, x: float) -> float:
    """Phi(alpha; beta+1; x) via its finite power-and-exponential form.

    For alpha >= 1 the closed form is

        e^x * sum_{g=0}^{alpha-1} (-1)^(alpha-g-1) C(beta-g-1, beta-alpha)
              * (pi_g(x) / pi_beta(x)) * P(Poisson(x) >= beta - g)

    an alternating sum whose terms blow up like x^(g-beta) at small x.
    The terms are summed exactly rounded (``math.fsum``), and whenever
    the largest term magnitude shows that cancellation exceeds
    ``KUMMER_CANCEL_GUARD`` the result falls back to :func:`kummer_series`,
    which has only positive terms.  Validated region (measured against the
    series at alpha <= beta <= 15): the closed form alone holds 1e-12
    relative accuracy for x >= beta; the guard extends correctness to the
    whole domain, within 2.1e-12 relative of ``mpmath.hyp1f1`` on
    alpha <= beta <= 40, 0.05 <= x <= 60, where the series alone stays
    within 2.2e-15.  So the pmf evaluators call :func:`kummer_series`;
    this reduction is the paper's, kept for checking against it.
    """
    _check_kummer_args(alpha, beta, x)
    if alpha == 0 or x == 0.0:
        return 1.0
    value = _kummer_reduction(alpha, beta, x)
    return kummer_series(alpha, beta, x) if value is None else value


def _kummer_reduction(alpha: int, beta: int, x: float) -> float | None:
    # The alternating sum of kummer_elementary, for alpha >= 1 and x > 0,
    # or None wherever it cannot be trusted: a term underflows or would
    # overflow, or the cancellation guard trips.
    log_x = math.log(x)
    terms = []
    for g in range(alpha):
        # e^x * pi_g(x) / pi_beta(x) = exp(x ... ) assembled in log space;
        # the e^x factor is folded in so no separate overflow point exists.
        log_ratio = x + math.lgamma(beta + 1) - math.lgamma(g + 1) - (beta - g) * log_x
        tail = poisson_upper_tail(beta - g, x)
        if tail == 0.0:
            # mathematically positive, so this is underflow; the closed
            # form's cancellation bookkeeping is broken at such x
            return None
        log_comb = (
            math.lgamma(beta - g) - math.lgamma(beta - alpha + 1) - math.lgamma(alpha - g)
        )
        if log_comb + log_ratio + math.log(tail) > 700.0:
            # x far below beta: the x^(g-beta) blowup both overflows and
            # cancels catastrophically; the positive-term series is exact.
            return None
        if log_comb + log_ratio > 690.0:
            # finite term but exact-integer assembly would overflow en route
            term = math.exp(log_comb + log_ratio + math.log(tail))
        else:
            term = math.comb(beta - g - 1, beta - alpha) * math.exp(log_ratio) * tail
        terms.append(-term if (alpha - g - 1) % 2 == 1 else term)
    result = math.fsum(terms)
    # Phi(alpha; beta+1; x) >= 1 for x >= 0 (positive series); a smaller
    # result is itself evidence of catastrophic cancellation.
    if result < 1.0 or max(map(abs, terms)) > KUMMER_CANCEL_GUARD * abs(result):
        return None
    return result

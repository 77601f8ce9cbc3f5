"""Exact joint distribution p_{m,n}(s,t) = P(M(s) = m, N(t) = n).

Everything is evaluated in reduced coordinates

    y = lam*t / a        z = (lam*t - a*mu*s) / a  ( < y always )

with unit-rate Poisson weights; the original rates and times enter only
through :func:`reduced_coords`.  The sign of z selects the branch:

* z < 0 (a*mu*s > lam*t): the pathwise inequality empties m < n, and
  p_{m,n} = Q_{n,n} on the diagonal, Q_{m,n} - Q_{m,n+1} above it.
* 0 < z < y: p_{m,n} combines the A, B, C terms depending on sign(m - n).
* z = 0: both branches are evaluated and must agree (the two families of
  formulas connect continuously across z = 0); their average is returned.

Each of Q, A, B, C exists in two independent forms: an elementary closed
form (finite sums of powers, exponentials, and degenerate Kummer
functions) and a defining integral against the Erlang-mixture density
h_n, evaluated by adaptive quadrature with the atom at 0+ handled
analytically.  The four integrals share one formula,
pi_m(y - z) (atom g(0) + a int h(a w) g(w) dw), whose factor g is 1, a
Poisson CDF or a binomial tail (:func:`quadrature_term`); ``tol`` bounds
the bare integral.  Each special function has one evaluator here: every
Kummer value comes from the all-positive series
:func:`~sdpoisson.special.kummer_series`, h_n and its CDF from
:func:`~sdpoisson.special.erlang_mixture_density`, and g from scipy's
incomplete gamma and beta functions.  The paper's finite
Kummer reduction, :func:`~sdpoisson.special.kummer_elementary`, is not
on these paths; ``sdpoisson verify`` checks it against the series.  The
closed forms are exact but alternate in sign with
a^(-j) factors, so they lose digits for small a or large indices; the
quadrature route is the accuracy authority there.  ``method="auto"``
switches on one measured index limit plus a per-evaluation
cancellation guard.  Both forms assemble p_{m,n} from the same list of
signed terms, so every route evaluates both branches at z = 0.

Within one evaluation -- one :func:`pmf_table`, or one lone
:func:`joint_pmf` -- each telescoping term, each Kummer value and each
mixture h_n is computed once and shared by every cell that needs it.  So
is each part of a closed term that does not depend on the row m: the A
sums S^A_n, the running B sums P^B_n and the Q rows T_{j,n}, which leave
O(m - n) work per Q term and O(1) per A or B term.  The memo holding them
is dropped when that call returns; nothing is cached across calls.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, gammaincc

from .errors import ConsistencyError, DomainError, IntegrationError
from .exponential import ModelParams
from .special import (
    AtomPlusDensity,
    binom_weight,
    erlang_mixture_density,
    kummer_series,
    poisson_upper_tail,
    poisson_weight,
)
from .special import kummer_elementary  # noqa: F401  perfbench/tracing.py wraps this name

if TYPE_CHECKING:  # pragma: no cover
    from .harness import McEstimate

__all__ = [
    "Region",
    "ReducedCoords",
    "PmfReport",
    "PmfTable",
    "reduced_coords",
    "joint_ge_prob",
    "q_closed",
    "a_closed",
    "b_closed",
    "c_closed",
    "quadrature_term",
    "joint_pmf",
    "pmf_table",
    "closed_form_stable_limit",
]

Method = Literal["closed", "quadrature", "auto"]

# |z| below this (relative to max(1, y)) counts as the region boundary.
BOUNDARY_RTOL = 1e-12
# The two one-sided evaluations at z = 0 must agree this tightly; a larger
# gap signals an implementation bug, not round-off.
BOUNDARY_AGREE_TOL = 1e-8
# Allowed numerical excursion of a probability outside [0, 1].
EPS_NUM = 1e-9
# Auto mode falls back to quadrature when the largest intermediate term of
# the alternating closed-form sums exceeds this magnitude.  Measured
# against the quadrature oracle: below it the absolute error stays under
# ~1e-8 (typically far under 1e-10); desk-scale evaluations sit well
# below the threshold, so the fallback only triggers for large reduced
# coordinates where the a^(-j) terms genuinely explode.
CANCEL_MAG_LIMIT = 8.0
# Table cells whose marginal Poisson bound is below this are exactly the
# tails the deficit bound already accounts for; they are reported as 0.
TABLE_PRUNE_TOL = 1e-18
# Round-off allowed on top of the tail bound in a table's deficit (at
# s = t = 5, 30 x 30 closed-form cells the deficit is 9.8e-15 against a
# bound of 9.0e-15); pmf_table adds 4 * quad_tol per cell for quadrature.
_DEFICIT_SLACK = 1e-12


class Region(enum.Enum):
    NEG_Z = "neg_z"
    POS_Z = "pos_z"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ReducedCoords:
    """Reduced time y = lam*t/a and offset z = (lam*t - a*mu*s)/a."""

    y: float
    z: float
    region: Region


@dataclass(frozen=True)
class PmfReport:
    """One evaluation of p_{m,n}(s,t) with its verification companions.

    ``raw`` is the value as computed (allowed to stray numerically into
    [-1e-9, 1+1e-9]); ``value`` is clamped to [0, 1].  ``closed_form``
    and ``quadrature`` are populated when the corresponding route ran.
    """

    m: int
    n: int
    s: float
    t: float
    raw: float
    value: float
    method_used: str
    closed_form: float | None = None
    quadrature: float | None = None
    mc: "McEstimate | None" = None


def reduced_coords(params: ModelParams, s: float, t: float) -> ReducedCoords:
    """Map (s, t) to the reduced coordinates indexing the pmf formulas."""
    if not 0.0 < s < math.inf:
        raise DomainError(f"s must be positive and finite, got {s}")
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    y = params.lam * t / params.a
    z = (params.lam * t - params.a * params.mu * s) / params.a
    if abs(z) < BOUNDARY_RTOL * max(1.0, y):
        region = Region.BOUNDARY
    elif z < 0.0:
        region = Region.NEG_Z
    else:
        region = Region.POS_Z
    return ReducedCoords(y=y, z=z, region=region)


def joint_ge_prob(m: int, n: int, rho: float, tau: float, mu: float) -> float:
    """P(S_m <= rho, S_n <= tau) for the arrival chain of a rate-mu Poisson M.

    Equals P(M(rho) >= m, M(tau) >= n); monotonicity of M collapses it to

        P(M(rho ^ tau) >= m v n)
        + [extra]  sum_{k=m^n}^{(m v n)-1} P(M(|rho-tau|) >= (m v n)-k)
                                           * P(M(rho ^ tau) = k)

    where the extra sum applies only when the larger index is paired with
    the larger time.
    """
    if m < 0 or n < 0:
        raise DomainError(f"m, n must be >= 0, got {m}, {n}")
    if rho < 0.0 or tau < 0.0:
        raise DomainError(f"rho, tau must be >= 0, got {rho}, {tau}")
    if mu <= 0.0:
        raise DomainError(f"mu must be > 0, got {mu}")
    big, small = max(m, n), min(m, n)
    t_min = min(rho, tau)
    value = poisson_upper_tail(big, mu * t_min)
    needs_extra = (n > m and tau >= rho) or (m > n and rho >= tau)
    if needs_extra:
        diff = mu * abs(rho - tau)
        for k in range(small, big):
            value += poisson_upper_tail(big - k, diff) * poisson_weight(k, mu * t_min)
    return min(value, 1.0)


# ---------------------------------------------------------------------------
# Elementary closed forms
# ---------------------------------------------------------------------------


# One evaluation's memo: Kummer values and telescoping terms, each keyed on
# its full inputs, so a stale hit is impossible.  ``pmf_table`` opens it
# around its cell loop and ``joint_pmf`` around a lone call; it is dropped
# when that call returns, so memory is bounded by one table and nothing is
# cached across calls.  Outside an open memo every value is computed afresh.
_MEMO: ContextVar[dict | None] = ContextVar("sdpoisson_pmf_memo", default=None)


@contextmanager
def _shared_terms():
    # Open the memo unless an enclosing call already holds one.
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoized(key: tuple, compute, *args):
    memo = _MEMO.get()
    if memo is None:
        return compute(*args)
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute(*args)
    return value


def _phi(alpha: int, beta: int, x: float) -> float:
    # _memoized inlined: this is the innermost call of the closed kernels.
    memo = _MEMO.get()
    if memo is None:
        return kummer_series(alpha, beta, x)
    key = ("phi", alpha, beta, x)
    value = memo.get(key)
    if value is None:
        value = memo[key] = kummer_series(alpha, beta, x)
    return value


def _betas(n: int, a: float) -> list[float]:
    # [beta_0(n), ..., beta_n(n)], shared by every term of one evaluation.
    return _memoized(("betas", n, a), lambda: [binom_weight(l, n, a) for l in range(n + 1)])


def _mixture(n: int, a: float) -> AtomPlusDensity:
    # h_n (atom, density and CDF), shared by every term of one evaluation.
    return _memoized(("mixture", n, a), erlang_mixture_density, n, a)


def _q_row(j: int, n: int, y: float, a: float) -> tuple[float, float]:
    # T_{j,n} = sum_{l=0}^{n} beta_l(n) phi_{j,l} and max_l |beta_l(n) phi_{j,l}|;
    # neither depends on m, so one row serves Q_{m,n} for every m >= j.
    # The l = 0 term carries Phi with equal parameters, i.e. e^(a y), so
    # phi_{j,0} = (a y)^j / j! is formed directly.
    ay = a * y
    log_ay = math.log(ay)
    betas = _betas(n, a)
    t_jn = 0.0
    mag = 0.0
    for l in range(n + 1):
        if l == 0:
            ph = math.exp(j * log_ay - math.lgamma(j + 1))
        else:
            ph = poisson_weight(j + l, ay) * _phi(j + 1, j + l, ay)
        term = betas[l] * ph
        t_jn += term
        mag = max(mag, abs(term))
    return t_jn, mag


def _q_closed(m: int, n: int, y: float, z: float, a: float) -> tuple[float, float]:
    # Q_{m,n}(y,z) = sum_{k=n}^{m} sum_{j=k}^{m} (-1)^(j-k) a^(-j) C(j,k)
    #   * sum_{l=0}^{n} beta_l(n) pi_{m-j}(y-z) phi_{j,l},
    #   phi_{j,l} = pi_{j+l}(a y) Phi(j+1; j+l+1; a y).
    # Only C(j,k) depends on k, so the k-sum folds into one coefficient:
    #   c_{j,n} = sum_{k=n}^{j} (-1)^(j-k) C(j,k) = (-1)^(j-n) C(j-1, n-1)
    # for n >= 1 (a partial alternating sum of a binomial row), and [j = 0]
    # for n = 0.  Hence
    #   Q_{m,n} = sum_{j=n}^{m} c_{j,n} a^(-j) pi_{m-j}(y-z) T_{j,n},
    # with the rows T_{j,n} of _q_row shared across m, so each Q term costs
    # O(m - n) once its rows exist.
    # The guard magnitude is the largest |term| of the triple sum:
    # over k in [n, j], C(j,k) peaks at k = max(n, floor(j/2)), so it is
    # that peak times the row's largest |beta_l phi_{j,l}|.
    parts = []
    max_mag = 0.0
    for j in range(n, m + 1):
        pw = poisson_weight(m - j, y - z)
        if pw == 0.0:
            # every term of this j is zero: no T_{j,n}, no Kummer values
            continue
        inv_aj = a ** (-j)
        peak = math.comb(j, max(n, j // 2)) * inv_aj * pw
        t_jn, row_mag = _memoized(("Q-row", j, n, y, a), _q_row, j, n, y, a)
        max_mag = max(max_mag, peak * row_mag)
        c_jn = (-1) ** (j - n) * math.comb(j - 1, n - 1) if n else int(j == 0)
        parts.append(c_jn * inv_aj * pw * t_jn)
    return math.fsum(parts), max_mag


def _a_sum(n: int, z: float, a: float) -> float:
    # S^A_n = sum_{k=0}^{n} beta_k(n) P(Poisson(az) >= k), the h_n CDF at az.
    return _mixture(n, a).cdf(a * z)


def _a_closed(m: int, n: int, y: float, z: float, a: float) -> tuple[float, float]:
    # A_{m,n}(y,z) = pi_m(y-z) S^A_n, with S^A_n shared across m.
    value = poisson_weight(m, y - z) * _memoized(("A-sum", n, z, a), _a_sum, n, z, a)
    return value, value


def _b_inner(k: int, n: int, z: float, a: float) -> float:
    # sum_{l=0}^{n+1} beta_l(n+1) (az)^l k!/(k+l)! Phi(l; k+l+1; (1-a) z); z > 0.
    log_az = math.log(a * z)
    x = (1.0 - a) * z
    betas = _betas(n + 1, a)
    inner = betas[0]
    for l in range(1, n + 2):
        ratio = math.exp(l * log_az + math.lgamma(k + 1) - math.lgamma(k + l + 1))
        inner += betas[l] * ratio * _phi(l, k + l, x)
    return inner


def _b_prefix(n: int, z: float, a: float, top: int) -> float:
    # P^B_n[top] = sum_{k=0}^{top} pi_k(z) inner(k, n).  The running sums are
    # shared across m and grow on demand in increasing k, so each one is the
    # float a direct loop up to top would hold, and no inner(k, n) beyond the
    # largest top asked for is evaluated.
    memo = _MEMO.get()
    sums = memo.setdefault(("B-prefix", n, z, a), []) if memo is not None else []
    total = sums[-1] if sums else 0.0
    for k in range(len(sums), top + 1):
        pk = poisson_weight(k, z)
        if pk != 0.0:
            total += pk * _b_inner(k, n, z, a)
        sums.append(total)
    return sums[top]


def _b_closed(m: int, n: int, y: float, z: float, a: float) -> tuple[float, float]:
    # B_{m,n}(y,z) = pi_m(y-z) sum_{k=0}^{n-m} pi_k(z) inner(k, n)
    #   = pi_m(y-z) P^B_n[n-m]; all terms positive.
    if z == 0.0:
        value = poisson_weight(m, y) * a ** (n + 1)
        return value, value
    value = poisson_weight(m, y - z) * _b_prefix(n, z, a, n - m)
    return value, value


def _c_closed(m: int, n: int, y: float, z: float, a: float) -> tuple[float, float]:
    # C_{m,n}(y,z) = e^(-(1-a)(y-z)) a^(-m) sum_{l=1}^{n} beta_l(n)
    #   sum_{k=n}^{m} sum_{j=0}^{l-1} (-1)^(l-1-j) C(k+l-j-1, k)
    #   * pi_j(ay) pi_{m+l-j}(a(y-z)) Phi(k+l-j; m+l-j+1; a(y-z))
    # C_{m,0} = 0 identically: the mixture for n = 0 is the pure atom,
    # which the integration range (z, y] never reaches.
    # With r = l - j every factor but beta_l pi_{l-r}(ay) depends on (k, r)
    # alone, so the triple sum factors, in O(m n) work, as
    #   C_{m,n} = sum_{r=1}^{n} (-1)^(r-1) core_r G_r W_r,
    #   core_r = e^(-(1-a)(y-z)) a^(-m) pi_{m+r}(u),  u = a(y-z),
    #   G_r = sum_{k=n}^{m} C(k+r-1, k) Phi(k+r; m+r+1; u),
    #   W_r = sum_{l=r}^{n} beta_l(n) pi_{l-r}(ay).
    # Every factor is positive, so the largest |term| of the triple sum
    # (the guard magnitude) is core_r times the largest G_r and W_r summands,
    # maximized over r.
    if n == 0:
        return 0.0, 0.0
    u = a * (y - z)
    ay = a * y
    log_u = math.log(u)
    # a^(-m), e^(-(1-a)(y-z)) and pi_{m+r}(u) assembled in one exponent.
    log_pref = -(1.0 - a) * (y - z) - m * math.log(a)
    betas = _betas(n, a)
    pis = [poisson_weight(i, ay) for i in range(n)]
    parts = []
    max_mag = 0.0
    for r in range(1, n + 1):
        core = math.exp(log_pref + (m + r) * log_u - u - math.lgamma(m + r + 1))
        g_terms = [math.comb(k + r - 1, k) * _phi(k + r, m + r, u) for k in range(n, m + 1)]
        w_terms = [betas[l] * pis[l - r] for l in range(r, n + 1)]
        parts.append((-1) ** (r - 1) * core * sum(g_terms) * sum(w_terms))
        max_mag = max(max_mag, core * max(g_terms) * max(w_terms))
    return math.fsum(parts), max_mag


# term -> (side, index rule, rule check): the region each term's formula
# lives on and the (m, n) it is defined for.  On the boundary z = 0 every
# term is allowed, with z clamped to its side.
_TERMS = {
    "Q": (Region.NEG_Z, "m >= n >= 0", lambda m, n: m >= n >= 0),
    "A": (Region.POS_Z, "m, n >= 0", lambda m, n: min(m, n) >= 0),
    "B": (Region.POS_Z, "n >= m >= 0", lambda m, n: n >= m >= 0),
    "C": (Region.POS_Z, "m >= n >= 0", lambda m, n: m >= n >= 0),
}


def _side_z(coords: ReducedCoords, side: Region) -> float:
    # z clamped to the closure of ``side``.
    return min(coords.z, 0.0) if side == Region.NEG_Z else max(coords.z, 0.0)


def _term_z(term: str, m: int, n: int, coords: ReducedCoords) -> float:
    # Validate ``term`` at (m, n) on ``coords``; return z clamped to its side.
    if term not in _TERMS:
        raise DomainError(f"term must be one of 'Q', 'A', 'B', 'C', got {term!r}")
    side, rule, holds = _TERMS[term]
    if not holds(m, n):
        raise DomainError(f"{term} requires {rule}, got m={m}, n={n}")
    if coords.region not in (side, Region.BOUNDARY):
        raise DomainError(
            f"{term} is defined for region {side.value} (or the boundary), "
            f"got {coords.region.value}"
        )
    return _side_z(coords, side)


def q_closed(m: int, n: int, coords: ReducedCoords, a: float) -> float:
    """Closed form of the Q term (z <= 0 branch); requires m >= n >= 0."""
    return _q_closed(m, n, coords.y, _term_z("Q", m, n, coords), a)[0]


def a_closed(m: int, n: int, coords: ReducedCoords, a: float) -> float:
    """Closed form of the A term (z >= 0 branch); defined for all m, n >= 0."""
    return _a_closed(m, n, coords.y, _term_z("A", m, n, coords), a)[0]


def b_closed(m: int, n: int, coords: ReducedCoords, a: float) -> float:
    """Closed form of the B term (z >= 0 branch); requires n >= m >= 0."""
    return _b_closed(m, n, coords.y, _term_z("B", m, n, coords), a)[0]


def c_closed(m: int, n: int, coords: ReducedCoords, a: float) -> float:
    """Closed form of the C term (z >= 0 branch); requires m >= n >= 0."""
    return _c_closed(m, n, coords.y, _term_z("C", m, n, coords), a)[0]


_CLOSED = {"Q": _q_closed, "A": _a_closed, "B": _b_closed, "C": _c_closed}


# ---------------------------------------------------------------------------
# Quadrature forms
# ---------------------------------------------------------------------------


def _scaled_integral(fn, lo: float, hi: float, tol: float, scale: float, offset: float) -> float:
    # offset + scale * (integral of fn over [lo, hi] to absolute accuracy
    # tol); a failure's best estimate and error bound refer to the
    # assembled term, not the bare integral.
    if hi <= lo:
        return offset + scale * 0.0
    value, abserr = quad(fn, lo, hi, epsabs=tol * 0.5, epsrel=1e-12, limit=200)
    if abserr > tol:
        # Long reduced intervals can stall the global refinement; a uniform
        # split localizes the mass and almost always rescues the tolerance.
        pieces = 8
        grid = np.linspace(lo, hi, pieces + 1)
        value = 0.0
        abserr = 0.0
        for left, right in zip(grid[:-1], grid[1:]):
            v, e = quad(fn, left, right, epsabs=tol / (2 * pieces), epsrel=1e-12, limit=200)
            value += v
            abserr += e
        if abserr > tol:
            raise IntegrationError(
                f"quadrature failed to reach tol={tol} on [{lo}, {hi}] "
                f"(claimed error {abserr})",
                best_estimate=offset + scale * value,
                error_bound=abs(scale) * abserr,
            )
    return offset + scale * value


def quadrature_term(
    term: str, m: int, n: int, coords: ReducedCoords, a: float, tol: float = 1e-10
) -> float:
    """Evaluate Q, A, B, or C from its defining integral.

    Every term is one formula,

        T = pi_m(y - z) * (atom * g(0) + a * integral of h(a w) g(w) dw),

    with h = h_n (h_{n+1} for B) and its atom at w = 0+ handled
    analytically.  The integral runs over [0, z] for A and B, over [0, y]
    for Q and over (z, y] for C, which misses the atom.  g is 1 for A,
    P(Poisson(z - w) <= n - m) for B, and P(Bin(m, (y-w)/(y-z)) >= n)
    for Q and C, which is their Poisson pair sum
    sum_{k=n}^{m} pi_{m-k}(w - z) pi_k(y - w) over pi_m(y - z).  g comes
    from scipy's incomplete gamma and beta functions.  Adaptive
    Gauss-Kronrod quadrature holds the bare integral to absolute accuracy
    ``tol``, so the term is within a * pi_m(y - z) * tol <= tol; failure
    raises :class:`IntegrationError` carrying the best estimate of the term.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    z = _term_z(term, m, n, coords)
    y = coords.y
    h = _mixture(n + 1 if term == "B" else n, a)
    if term == "B":
        g = lambda w: float(gammaincc(n - m + 1, z - w))
    elif term == "A" or n == 0:
        g = lambda w: 1.0
    else:
        g = lambda w: float(betainc(n, m - n + 1, (y - w) / (y - z)))
    lo, hi = {"A": (0.0, z), "B": (0.0, z), "Q": (0.0, y), "C": (z, y)}[term]
    atom = 0.0 if term == "C" else h.atom_weight * g(0.0)
    pim = poisson_weight(m, y - z)
    return _scaled_integral(
        lambda w: h.density(a * w) * g(w), lo, hi, tol, scale=pim * a, offset=pim * atom
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Largest index max(m, n) + 1 for which the closed forms hold 1e-8
# absolute accuracy against the quadrature oracle, measured on the box
# lam*t <= 6, mu*s <= 6 for a in [0.05, 0.95] (worst observed gap 7e-11;
# tests/test_stability.py reproduces the measurement).  The measured limit
# is the same at every a.  Beyond this box the binding variable is the
# magnitude of the reduced coordinates, not the index: the per-evaluation
# cancellation guard (``CANCEL_MAG_LIMIT``) catches those cases and
# reroutes auto mode to quadrature.
_STABLE_LIMIT = 48


def closed_form_stable_limit(a: float) -> int:
    """Largest pmf index trusted to the closed forms (auto mode); the same at every a."""
    return _STABLE_LIMIT


def _telescope(m: int, n: int, side: Region) -> tuple[tuple[int, str, int, int], ...]:
    # The signed terms (sign, term, i, j) whose sum is p_{m,n} on ``side``.
    # The negative side is only asked for m >= n: m < n is the zero region.
    if side == Region.NEG_Z:
        if m == n:
            return ((1, "Q", n, n),)
        return ((1, "Q", m, n), (-1, "Q", m, n + 1))
    if n > m:
        return ((1, "A", m, n), (-1, "A", m, n + 1), (1, "B", m, n), (-1, "B", m, n - 1))
    if m == n:
        return ((1, "A", n, n), (-1, "A", n, n + 1), (1, "B", n, n), (1, "C", n, n))
    return ((1, "A", m, n), (-1, "A", m, n + 1), (1, "C", m, n), (-1, "C", m, n + 1))


def _closed_raw(
    m: int, n: int, coords: ReducedCoords, a: float, side: Region
) -> tuple[float, float]:
    # Assemble p_{m,n} from the closed forms; returns (value, max term).
    y, z = coords.y, _side_z(coords, side)
    total = 0.0
    max_mag = 0.0
    for sign, term, i, j in _telescope(m, n, side):
        v, g = _memoized(("closed", term, i, j, y, z, a), _CLOSED[term], i, j, y, z, a)
        total += sign * v
        max_mag = max(max_mag, g)
    return total, max_mag


def _quadrature_raw(
    m: int, n: int, coords: ReducedCoords, a: float, tol: float, side: Region
) -> float:
    total = 0.0
    for sign, term, i, j in _telescope(m, n, side):
        total += sign * _memoized(
            ("quadrature", term, i, j, coords.y, coords.z, a, tol),
            quadrature_term, term, i, j, coords, a, tol,
        )
    return total


def _one_sided_raw(
    m: int, n: int, coords: ReducedCoords, params: ModelParams, method: Method,
    quad_tol: float, side: Region,
) -> tuple[float, str]:
    # Evaluate the pmf on a definite side (z sign forced), choosing engine.
    a = params.a
    if method == "closed":
        return _closed_raw(m, n, coords, a, side)[0], "closed"
    if method == "quadrature":
        return _quadrature_raw(m, n, coords, a, quad_tol, side), "quadrature"
    # auto: closed form inside the validated domain, quadrature outside or
    # when the cancellation guard trips.
    if max(m, n) + 1 <= closed_form_stable_limit(a):
        value, max_mag = _closed_raw(m, n, coords, a, side)
        if max_mag <= CANCEL_MAG_LIMIT:
            return value, "closed"
    return _quadrature_raw(m, n, coords, a, quad_tol, side), "quadrature"


def _region_raw(
    m: int, n: int, coords: ReducedCoords, params: ModelParams, method: Method,
    quad_tol: float,
) -> tuple[float, str]:
    # Evaluate the pmf on the region of ``coords``; on the boundary z = 0,
    # both sides are evaluated and their average is returned.
    if coords.region != Region.BOUNDARY:
        return _one_sided_raw(m, n, coords, params, method, quad_tol, coords.region)
    raw_neg, _ = _one_sided_raw(m, n, coords, params, method, quad_tol, Region.NEG_Z)
    raw_pos, _ = _one_sided_raw(m, n, coords, params, method, quad_tol, Region.POS_Z)
    if abs(raw_neg - raw_pos) > BOUNDARY_AGREE_TOL:
        raise ConsistencyError(
            f"one-sided limits at z=0 disagree: {raw_neg} vs {raw_pos} "
            f"for (m,n)=({m},{n})"
        )
    return 0.5 * (raw_neg + raw_pos), "boundary-average"


def _check_method(method: str, quad_tol: float) -> None:
    if method not in ("closed", "quadrature", "auto"):
        raise DomainError(f"method must be 'closed', 'quadrature' or 'auto', got {method!r}")
    if not quad_tol > 0.0:
        raise DomainError(f"quad_tol must be > 0, got {quad_tol}")


def _finalize(
    m: int, n: int, s: float, t: float, raw: float, method_used: str,
    closed: float | None, quadr: float | None,
) -> PmfReport:
    if not (-EPS_NUM <= raw <= 1.0 + EPS_NUM):
        raise ConsistencyError(
            f"p_{{{m},{n}}}({s},{t}) = {raw} strays outside [0,1] beyond the "
            f"numerical allowance {EPS_NUM}"
        )
    return PmfReport(
        m=m, n=n, s=s, t=t, raw=raw, value=min(max(raw, 0.0), 1.0),
        method_used=method_used, closed_form=closed, quadrature=quadr,
    )


def joint_pmf(
    params: ModelParams,
    m: int,
    n: int,
    s: float,
    t: float,
    method: Method = "auto",
    quad_tol: float = 1e-10,
    crosscheck: bool = False,
) -> PmfReport:
    """Evaluate p_{m,n}(s,t) = P(M(s) = m, N(t) = n).

    ``method`` picks the evaluation route; ``"auto"`` uses the closed
    forms below one measured index limit (unless the cancellation guard
    trips) and quadrature otherwise.  ``quad_tol`` must be positive on
    every route.
    In the a*mu*s >= lam*t region the m < n probabilities vanish
    identically and are returned as exact zeros without any floating
    evaluation (``method_used == "lemma-exact"``).

    On the region boundary z = 0 both branch families (Q, and A/B/C) are
    evaluated by the chosen route and averaged; disagreement beyond
    ``BOUNDARY_AGREE_TOL`` raises
    :class:`ConsistencyError`.  With ``crosscheck=True`` the closed form
    and the quadrature oracle are both computed (on the boundary, each
    as its own two-sided average) and a gap above 1e-6 raises
    :class:`ConsistencyError`.
    """
    if m < 0 or n < 0:
        raise DomainError(f"m, n must be >= 0, got m={m}, n={n}")
    _check_method(method, quad_tol)
    coords = reduced_coords(params, s, t)
    if m < n and coords.region != Region.POS_Z:
        # a*mu*s >= lam*t, so the zero region applies; on the boundary the
        # z->0+ limit of the positive branch agrees.
        return _finalize(m, n, s, t, 0.0, "lemma-exact", None, None)
    with _shared_terms():
        raw, used = _region_raw(m, n, coords, params, method, quad_tol)
        closed_val = raw if used == "closed" else None
        quad_val = raw if used == "quadrature" else None
        if crosscheck:
            if closed_val is None:
                closed_val = _region_raw(m, n, coords, params, "closed", quad_tol)[0]
            if quad_val is None:
                quad_val = _region_raw(m, n, coords, params, "quadrature", quad_tol)[0]
    if crosscheck and abs(closed_val - quad_val) > 1e-6:
        raise ConsistencyError(
            f"closed form and quadrature disagree for (m,n)=({m},{n}) at "
            f"(s,t)=({s},{t}): {closed_val} vs {quad_val}"
        )
    return _finalize(m, n, s, t, raw, used, closed_val, quad_val)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PmfTable:
    """Grid of p_{m,n}(s, t) for m <= m_max, n <= n_max plus bookkeeping.

    ``deficit`` is 1 minus the table total.  :func:`pmf_table` checks
    that it is nonnegative (up to 1e-9) and at most the Poisson tail mass
    ``tail_bound`` = P(M(s) > m_max) + P(N(t) > n_max) plus a round-off
    slack of 1e-12 + 4 * quad_tol * cells, and raises
    :class:`ConsistencyError` otherwise.  Row and column sums approximate
    the Poisson marginals pi_m(mu s) and pi_n(lam t).
    """

    params: ModelParams
    s: float
    t: float
    values: np.ndarray
    deficit: float
    tail_bound: float
    row_sums: np.ndarray
    col_sums: np.ndarray
    poisson_row: np.ndarray
    poisson_col: np.ndarray


def pmf_table(
    params: ModelParams,
    s: float,
    t: float,
    m_max: int,
    n_max: int,
    method: Method = "auto",
    quad_tol: float = 1e-10,
) -> PmfTable:
    """Evaluate the full pmf block [0..m_max] x [0..n_max] at (s, t).

    Cells whose Poisson marginal bound min(pi_m(mu s), pi_n(lam t)) is
    below ``TABLE_PRUNE_TOL`` are reported as exact zeros: their combined
    true mass is below (m_max+1)(n_max+1) * 1e-18, far inside the deficit
    tolerance.
    """
    if m_max < 0 or n_max < 0:
        raise DomainError(f"m_max, n_max must be >= 0, got {m_max}, {n_max}")
    _check_method(method, quad_tol)
    reduced_coords(params, s, t)  # names a bad s or t before the marginals use it
    mu_s = params.mu * s
    lam_t = params.lam * t
    pm = np.array([poisson_weight(m, mu_s) for m in range(m_max + 1)])
    pn = np.array([poisson_weight(n, lam_t) for n in range(n_max + 1)])
    values = np.zeros((m_max + 1, n_max + 1))
    # Every live cell still goes through joint_pmf; the shared memo lets
    # neighbouring cells reuse each other's terms and Kummer values.
    with _shared_terms():
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                if min(pm[m], pn[n]) < TABLE_PRUNE_TOL:
                    continue
                values[m, n] = joint_pmf(
                    params, m, n, s, t, method=method, quad_tol=quad_tol
                ).value
    total = float(values.sum())
    deficit = 1.0 - total
    tail_bound = poisson_upper_tail(m_max + 1, mu_s) + poisson_upper_tail(n_max + 1, lam_t)
    if deficit < -EPS_NUM:
        raise ConsistencyError(f"pmf table total exceeds 1 by {-deficit}")
    slack = _DEFICIT_SLACK + 4.0 * quad_tol * values.size
    if deficit > tail_bound + slack:
        raise ConsistencyError(
            f"pmf table misses {deficit} of mass, more than the Poisson tail "
            f"bound {tail_bound} plus round-off slack {slack}"
        )
    return PmfTable(
        params=params,
        s=s,
        t=t,
        values=values,
        deficit=deficit,
        tail_bound=tail_bound,
        row_sums=values.sum(axis=1),
        col_sums=values.sum(axis=0),
        poisson_row=pm,
        poisson_col=pn,
    )

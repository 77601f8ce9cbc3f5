"""Correlated exponential pairs from self-decomposability.

An exponential law is self-decomposable: for every 0 < a < 1 an Exp(lam)
variable X can be written X = a*Y + B*Z with Y, Z ~ Exp(lam) and
B ~ Bernoulli(1-a), the three mutually independent.  The product B*Z is
the residual variable, a mixture of an atom at 0 (weight a) and Exp(lam).
The pair (X, Y) is then exponentially distributed on both margins with
correlation exactly a, which is the whole point: a single parameter dials
the dependence of the renewals feeding the counting processes in
:mod:`sdpoisson.process`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "ModelParams",
    "TripleSample",
    "CorrelationTriple",
    "XYJointLaw",
    "sample_triple",
    "sample_triples",
    "sample_pair_independent",
    "sample_pair_comonotone",
    "za_cdf",
    "xy_joint_cdf",
    "xy_joint_law",
    "theoretical_correlations",
    "naive_sum_density",
]


@dataclass(frozen=True)
class ModelParams:
    """Rates of the two renewal chains and the decomposition parameter.

    ``a`` is restricted to the *open* interval (0, 1): the independent
    (a -> 0) and comonotone (a -> 1) regimes exist only as limits of the
    construction and are served by the dedicated samplers
    :func:`sample_pair_independent` and :func:`sample_pair_comonotone`.
    """

    lam: float
    mu: float
    a: float

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DomainError(f"lam must be a positive finite rate, got {self.lam}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise DomainError(f"mu must be a positive finite rate, got {self.mu}")
        if not 0.0 < self.a < 1.0:
            raise DomainError(
                f"a must lie strictly inside (0, 1), got {self.a}; the a=0 and "
                "a=1 limits have dedicated samplers"
            )


@dataclass(frozen=True)
class TripleSample:
    """One realization (x, y, z, b) with x = a*y + b*z by construction."""

    x: float
    y: float
    z: float
    b: int


@dataclass(frozen=True)
class CorrelationTriple:
    r_xy: float
    r_xz: float
    r_xza: float


_CHUNK = 2**18  # variates per row chunk of a column-prefix draw (2 MB)


def _draw(draw, size, columns):
    # draw(size), or its first `columns` columns.  The generator fills in
    # C order, so successive row chunks consume it exactly as one block.
    if columns is None or columns >= size[1]:
        return draw(size)
    rows, cols = size
    out = np.empty((rows, columns))
    step = max(1, _CHUNK // cols)
    for r in range(0, rows, step):
        out[r:r + step] = draw((min(step, rows - r), cols))[:, :columns]
    return out


def _draw_triples(lam: float, a: float, size, rng, columns=None) -> tuple[np.ndarray, ...]:
    # The one owner of the draw order of sample_triples, for any a in
    # [0, 1].  At a = 0 every b is 1 and x = z; at a = 1 every b is 0 and
    # x = y, both bit for bit.  Only `columns` columns are kept (_draw).
    scale = 1.0 / lam
    accept = _draw(rng.random, size, columns) < 1.0 - a
    y = _draw(partial(rng.exponential, scale), size, columns)
    z = _draw(partial(rng.exponential, scale), size, columns)
    return a * y + accept * z, y, z, accept


def sample_triple(params: ModelParams, rng) -> TripleSample:
    """Draw one (x, y, z, b) with y, z ~ Exp(lam) and P(b = 1) = 1 - a.

    The first triple of ``sample_triples(params, 1, rng)``: three variates
    whatever the outcome of b.
    """
    x, y, z, accept = _draw_triples(params.lam, params.a, 1, rng)
    return TripleSample(x=float(x[0]), y=float(y[0]), z=float(z[0]), b=int(accept[0]))


def sample_triples(params: ModelParams, size, rng, *, columns=None) -> tuple[np.ndarray, ...]:
    """Arrays (x, y, z, b) of i.i.d. triples; the package's stream contract.

    ``b`` is the boolean acceptance mask.  ``size`` is a count or an array
    shape.  The generator is consumed in three blocks of that shape, in
    fixed order: uniforms for b, then exponentials for y, then
    exponentials for z.  ``simulate_path``,
    ``sdpoisson simulate`` and the Monte Carlo kernel all draw through
    here, so one seed denotes the same triples in each.

    With ``columns``, ``size`` must be a 2-D shape ``(rows, cols)``: the
    call returns the first ``columns`` columns of that draw, made in row
    chunks, and leaves the generator exactly where the full draw would,
    in ``rows * columns`` memory instead of ``rows * cols``.
    """
    if np.any(np.asarray(size) < 0):
        raise DomainError(f"size must be >= 0, got {size}")
    if columns is not None and (np.ndim(size) != 1 or len(size) != 2 or columns < 0):
        raise DomainError(f"columns={columns} needs a 2-D size and columns >= 0, got {size}")
    return _draw_triples(params.lam, params.a, size, rng, columns)


def _limit_pair(lam: float, a: float, rng) -> tuple[float, float]:
    if lam <= 0.0:
        raise DomainError(f"lam must be > 0, got {lam}")
    x, y, _, _ = _draw_triples(lam, a, 1, rng)
    return float(x[0]), float(y[0])


def sample_pair_independent(lam: float, rng) -> tuple[float, float]:
    """The a -> 0 limit: (x, y) independent Exp(lam) variables.

    In the limit the rescaled component a*Y vanishes and b = 1 almost
    surely, leaving x = z independent of y.  Draws the triple stream at
    a = 0, so it consumes three variates like :func:`sample_triple`.
    """
    return _limit_pair(lam, 0.0, rng)


def sample_pair_comonotone(lam: float, rng) -> tuple[float, float]:
    """The a -> 1 limit: x = y almost surely, both Exp(lam).

    Draws the triple stream at a = 1, consuming three variates like
    :func:`sample_triple`.
    """
    return _limit_pair(lam, 1.0, rng)


def za_cdf(z: float, params: ModelParams) -> float:
    """Distribution function of the residual b*z: atom a at 0, Exp(lam) tail.

    Right-continuous: za_cdf(0) = a.
    """
    if z < 0.0:
        return 0.0
    a = params.a
    return a + (1.0 - a) * (-math.expm1(-params.lam * z))


def xy_joint_cdf(x: float, y: float, params: ModelParams) -> float:
    """Joint cdf H(x, y) of the correlated pair, in closed form.

    With w = min(y, x/a),

        H(x, y) = (1 - e^(-lam w)) - e^(-lam x) (1 - e^(-lam (1-a) w))

    for w >= 0 and zero otherwise.  Both margins are Exp(lam).
    """
    a = params.a
    lam = params.lam
    if x < 0.0 or y < 0.0:
        return 0.0
    w = min(y, x / a)
    return (-math.expm1(-lam * w)) - math.exp(-lam * x) * (-math.expm1(-lam * (1.0 - a) * w))


@dataclass(frozen=True)
class XYJointLaw:
    """Decomposition of the (X, Y) law into a line mass plus a density.

    The singular part lives on the line x = a*y with linear mass density
    ``line_mass_density(y) = a lam e^(-lam y)`` (total mass a); the
    absolutely continuous part has density ``continuous_density(x, y) =
    (1-a) lam^2 e^(-lam y) e^(-lam (x - a y))`` on x > a*y > 0 (total
    mass 1 - a).  Integrating both pieces reproduces :func:`xy_joint_cdf`.
    """

    line_slope: float
    line_mass_density: Callable[[float], float]
    continuous_density: Callable[[float, float], float]
    singular_mass: float
    continuous_mass: float


def xy_joint_law(params: ModelParams) -> XYJointLaw:
    """Structured joint law of (X, Y): line atom on x = a*y plus a density."""
    a = params.a
    lam = params.lam

    def line_mass_density(y: float) -> float:
        if y < 0.0:
            return 0.0
        return a * lam * math.exp(-lam * y)

    def continuous_density(x: float, y: float) -> float:
        if y <= 0.0 or x <= a * y:
            return 0.0
        return (1.0 - a) * lam * lam * math.exp(-lam * y) * math.exp(-lam * (x - a * y))

    return XYJointLaw(
        line_slope=a,
        line_mass_density=line_mass_density,
        continuous_density=continuous_density,
        singular_mass=a,
        continuous_mass=1.0 - a,
    )


def theoretical_correlations(params: ModelParams) -> CorrelationTriple:
    """Model correlations (r_XY, r_XZ, r_XZa) = (a, 1-a, 1-a^2).

    The first two are complementary: r_XY + r_XZ = 1.
    """
    a = params.a
    triple = CorrelationTriple(r_xy=a, r_xz=1.0 - a, r_xza=1.0 - a * a)
    assert abs(triple.r_xy + triple.r_xz - 1.0) < 1e-15
    return triple


# Below this distance from a = 1/2 the two exponentials in the naive-sum
# density cancel and the Erlang-2 limit value is more accurate.
_NAIVE_SUM_LIMIT_WIDTH = 1e-9


def naive_sum_density(x: float, params: ModelParams) -> float:
    """Density of a*Y + (1-a)*Z -- the combination that is *not* exponential.

    For a != 1/2 it is lam/(1-2a) (e^(-lam x/(1-a)) - e^(-lam x/a)) on
    x > 0, a genuine two-rate convolution; only in the removable
    singularity a -> 1/2 does it collapse to the Erlang-2(2 lam) density
    4 lam^2 x e^(-2 lam x).
    """
    if x < 0.0:
        return 0.0
    a = params.a
    lam = params.lam
    if abs(1.0 - 2.0 * a) < _NAIVE_SUM_LIMIT_WIDTH:
        return 4.0 * lam * lam * x * math.exp(-2.0 * lam * x)
    return lam / (1.0 - 2.0 * a) * (
        math.exp(-lam * x / (1.0 - a)) - math.exp(-lam * x / a)
    )

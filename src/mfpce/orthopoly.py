"""One-dimensional orthonormal polynomial families and Gauss quadrature.

Two families are supported, each orthonormal with respect to a probability
density, ``E[psi_j psi_k] = delta_jk``:

* Legendre, ``psi_k = sqrt(2k + 1) P_k`` (with ``P_k(1) = 1``), for the
  uniform density ``1/2`` on ``[-1, 1]``.
* Probabilists' Hermite, ``psi_k = He_k / sqrt(k!)``, for the standard
  normal density on the real line.

One three-term recurrence per family (:func:`_recurrence`) defines both the
polynomials and the Gauss rules: a rule's points are the zeros of
``psi_m``, found by root-finding on the recurrence from asymptotic guesses,
and its weights come from the Christoffel function. No eigensolver, and no
LAPACK or BLAS call, is involved, so a rule's bits do not depend on the
BLAS library or its kernel.

All quadrature weights are probability-normalized (they sum to one), so
integrating a function against a rule approximates an expectation under the
corresponding density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .philox import Philox


class PolyFamily(Enum):
    LEGENDRE = "legendre"
    HERMITE = "hermite"


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"Uniform requires a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"Normal requires sigma > 0, got {self.sigma}")


@dataclass(frozen=True)
class VariableSpec:
    """One input random variable and the polynomial family it induces."""

    name: str
    dist: Uniform | Normal

    @property
    def family(self) -> PolyFamily:
        return PolyFamily.LEGENDRE if isinstance(self.dist, Uniform) else PolyFamily.HERMITE

    def to_standard(self, xi):
        """Map physical coordinates onto the family's standard support."""
        xi = np.asarray(xi, dtype=float)
        if isinstance(self.dist, Uniform):
            a, b = self.dist.a, self.dist.b
            return (2.0 * xi - a - b) / (b - a)
        return (xi - self.dist.mu) / self.dist.sigma

    def from_standard(self, x):
        """Inverse of :meth:`to_standard`."""
        x = np.asarray(x, dtype=float)
        if isinstance(self.dist, Uniform):
            a, b = self.dist.a, self.dist.b
            return 0.5 * (x * (b - a) + a + b)
        return self.dist.mu + self.dist.sigma * x

    def sample(self, rng: Philox | np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples in physical coordinates with ``rng``'s
        ``uniform`` or ``normal``: a :class:`~mfpce.philox.Philox` or any
        object with those two ``Generator`` methods."""
        if isinstance(self.dist, Uniform):
            return rng.uniform(self.dist.a, self.dist.b, size)
        return rng.normal(self.dist.mu, self.dist.sigma, size)


def sample_points(specs, rng: Philox | np.random.Generator, size: int) -> np.ndarray:
    """``size`` points of ``specs`` as one ``(size, n)`` array: the draws of
    each variable in turn, in the order of ``specs``, written into its
    column (:meth:`VariableSpec.sample`)."""
    X = np.empty((size, len(specs)))
    for j, spec in enumerate(specs):
        X[:, j] = spec.sample(rng, size)
    return X


@dataclass(frozen=True)
class GaussRule:
    """Points and probability-normalized weights of a 1D Gauss rule."""

    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.points)


def _recurrence(family: PolyFamily, m: int) -> np.ndarray:
    """``b_1 .. b_{m-1}`` of the orthonormal three-term recurrence
    ``x psi_k = b_{k+1} psi_{k+1} + b_k psi_{k-1}`` (both densities are
    symmetric, so the diagonal is zero). They are the off-diagonal of the
    family's Jacobi matrix."""
    k = np.arange(1, m, dtype=float)
    if family is PolyFamily.LEGENDRE:
        return k / np.sqrt(4.0 * k * k - 1.0)
    return np.sqrt(k)


def eval_poly_table(family: PolyFamily, max_degree: int, x, out=None) -> np.ndarray:
    """Evaluate the orthonormal polynomials of degree 0..max_degree at ``x``.

    Returns an array of shape ``(max_degree + 1, len(x))`` built with the
    recurrence of :func:`_recurrence`, multiplied through by ``1 / b_{k+1}``.
    Each row is written in place, with one scratch vector, in the operation
    order of ``x * T[k] * a_k - c_k * T[k-1]`` with ``a_k = 1 / b_{k+1}``
    and ``c_k = b_k * a_k``. The table is written into ``out`` when given
    (a float array of that shape, whose rows may be strided slices of a
    larger buffer), and returned.
    """
    if max_degree < 0:
        raise ValueError("degree must be non-negative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shape = (max_degree + 1, x.size)
    table = np.empty(shape) if out is None else out
    if table.shape != shape or table.dtype != np.float64:
        raise ValueError(f"out must be a float array of shape {shape}, got {out.dtype} {out.shape}")
    table[0] = 1.0
    if max_degree == 0:
        return table
    b = _recurrence(family, max_degree + 1)  # b[k - 1] is b_k
    a = 1.0 / b  # a[k] is a_k
    c = b[:-1] * a[1:]  # c[k - 1] is c_k
    np.multiply(x, a[0], out=table[1])
    scratch = np.empty(x.size)
    for k in range(1, max_degree):
        row = table[k + 1]
        np.multiply(x, table[k], out=row)
        np.multiply(row, a[k], out=row)
        np.multiply(table[k - 1], c[k - 1], out=scratch)
        np.subtract(row, scratch, out=row)
    return table


#: The zeros of the Airy function Ai nearest 0, which place the outermost
#: Hermite guesses (see :func:`_hermite_guesses`).
_AIRY_ZEROS = (
    -2.338107410459767, -4.087949444130971, -5.520559828095551, -6.786708090071759,
    -7.944133587120853, -9.022650853340980, -10.04017434155809, -11.00852430373326,
    -11.93601556323626, -12.82877675286576,
)
#: :func:`_positive_zeros` stops after a step no larger than this. Its
#: convergence is cubic, so the error left is about ``K^2 * 1e-30`` with
#: ``K = |psi_m'' / psi_m'|``, at most ``m^2 / 5`` (Legendre, at the
#: outermost zero): far below one unit in the last place.
_STEP_TOL = 1e-10
_MAX_STEPS = 10


def _legendre_guesses(m: int) -> np.ndarray:
    """Tricomi's guesses for the positive zeros of ``P_m``, ascending, with
    the terms to ``m^-4`` (Hale and Townsend, SIAM J. Sci. Comput. 35,
    2013)."""
    k = np.arange(m // 2, 0, -1)
    theta = np.pi * (4 * k - 1) / (4 * m + 2)
    return (1 - (m - 1) / (8 * m**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * m**4)) * np.cos(theta)


def _hermite_guesses(m: int) -> np.ndarray:
    """Guesses for the positive zeros of ``He_m``, ascending: Tricomi's in
    the bulk, and Gatteschi's from the Airy zeros for the outermost
    ``round(h ** (1/3))`` of the ``h = m // 2``, at most 10 (Gatteschi,
    J. Comput. Appl. Math. 144, 2002; Townsend, Trogdon and Olver, IMA J.
    Numer. Anal. 36, 2016). Both place the zeros of the physicists'
    ``H_m``, which are those of ``He_m`` over ``sqrt(2)``."""
    h, a, nu = m // 2, 0.5 if m % 2 else -0.5, 2 * m + 1
    edge = min(len(_AIRY_ZEROS), max(1, round(h ** (1 / 3))))
    # Tricomi's angle solves t - sin(t) = rhs, by Newton's method from pi/2.
    rhs = np.pi * (4 * np.arange(h - 1, edge - 1, -1) + 3) / nu
    t = np.full(len(rhs), np.pi / 2)
    for _ in range(7):
        t -= (t - np.sin(t) - rhs) / (1 - np.cos(t))
    c = np.cos(t / 2) ** 2
    bulk = np.sqrt(nu * c - (5 / (4 * (1 - c) ** 2) - 1 / (1 - c) - 1 + 3 * a * a) / (3 * nu))
    r = nu ** (1 / 3)
    outer = [
        math.sqrt(
            nu + 2 ** (2 / 3) * z * r + 2 ** (4 / 3) / 5 * z**2 / r
            + (11 / 35 - a * a - 12 / 175 * z**3) / nu
            + (16 / 1575 * z + 92 / 7875 * z**4) * 2 ** (2 / 3) / r**5
            - (15152 / 3031875 * z**5 + 1088 / 121275 * z**2) * 2 ** (1 / 3) / r**7
        )
        for z in _AIRY_ZEROS[edge - 1 :: -1]
    ]
    return math.sqrt(2) * np.concatenate([bulk, outer])


def _positive_zeros(family: PolyFamily, m: int) -> np.ndarray:
    """The positive zeros of ``psi_m``, ascending, by Halley's method from
    the family's asymptotic guesses.

    Each step evaluates ``psi_m`` and ``psi_{m-1}`` by the recurrence of
    :func:`eval_poly_table`. The Newton step ``dx = psi_m / psi_m'`` takes
    the derivative from ``psi_{m-1}``: ``psi_m' = sqrt(m) psi_{m-1}``
    (Hermite), and ``(1 - x^2) psi_m' = m (sqrt((2m + 1) / (2m - 1))
    psi_{m-1} - x psi_m)`` (Legendre). The family's differential equation
    gives ``psi_m''`` at no further cost, ``psi_m'' / psi_m' = x - m dx``
    (Hermite) and ``(2x - m (m + 1) dx) / (1 - x^2)`` (Legendre), and with
    it Halley's step ``dx / (1 - dx psi_m'' / (2 psi_m'))``. Two
    evaluations suffice from ``m = 11`` on, and three at most below.

    No eigensolver and no BLAS call is made, so the zeros do not depend on
    the BLAS kernel; past the guesses (numpy's sin and cos, and ``pow``),
    every operation is a correctly rounded one. They are within 4 units in
    the last place of the true zeros where checked (``m <= 511``). Far out
    on a Hermite axis, ``psi_m`` overflows from about ``m = 740`` on; such
    a zero keeps its guess (see :func:`gauss_rule` for that limit)."""
    legendre = family is PolyFamily.LEGENDRE
    x = _legendre_guesses(m) if legendre else _hermite_guesses(m)
    c = math.sqrt((2 * m + 1) / (2 * m - 1))
    for _ in range(_MAX_STEPS):
        with np.errstate(over="ignore", invalid="ignore"):
            table = eval_poly_table(family, m, x)
            p, q = table[m], table[m - 1]
            if legendre:
                u = 1 - x * x
                dx = p * u / (m * (c * q - x * p))
                half_curve = (x - 0.5 * m * (m + 1) * dx) / u
            else:
                dx = p / (math.sqrt(m) * q)
                half_curve = 0.5 * (x - m * dx)
            step = dx / (1 - dx * half_curve)
        step[~np.isfinite(step)] = 0.0
        x = x - step
        if np.abs(step).max() <= _STEP_TOL:
            break
    return x


@lru_cache(maxsize=None)
def gauss_rule(family: PolyFamily, m: int) -> GaussRule:
    """m-point Gauss rule, exact for polynomials of degree <= 2m - 1.

    The points are the zeros of ``psi_m``, found on the three-term
    recurrence of :func:`_recurrence` alone (:func:`_positive_zeros`), with
    no eigensolver, so their bits do not depend on the BLAS kernel. The
    negative points mirror the positive ones, and an odd rule's centre is
    exactly 0.0. The weights come from the Christoffel function of the same
    recurrence, ``1 / sum_k psi_k(x_i)^2`` over ``k < m``, which keeps its
    relative accuracy at the outermost points; ``psi_k(-x) = (-1)^k
    psi_k(x)`` holds bit for bit, so they are symmetric too. Far-out
    Hermite points whose true weight is below the smallest double get
    weight 0.

    That limits Hermite exactness at ``m = 511`` (a normal axis at sparse
    level 8): 40 weights are 0, and the Gram matrix ``sum_i w_i psi_j(x_i)
    psi_k(x_i)``, ``j < m``, ``k <= m``, is 0.45 off the identity, against
    2.9e-15 at ``m = 255``. Smooth integrands, which are negligible that
    far out, are unaffected; high-degree polynomial exactness is lost. From
    ``m = 727`` on, the recurrence overflows at the outermost Hermite
    points and the weights are NaN, so a study refuses a level above 8 on
    a normal variable (``config.MAX_LEVEL``).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return GaussRule(points=np.zeros(1), weights=np.ones(1))
    positive = _positive_zeros(family, m)
    points = np.concatenate([-positive[::-1], np.zeros(m % 2), positive])
    with np.errstate(over="ignore"):
        weights = 1.0 / np.square(eval_poly_table(family, m - 1, points)).sum(axis=0)
    weights /= weights.sum()
    points.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(points=points, weights=weights)

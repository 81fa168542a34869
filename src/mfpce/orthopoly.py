"""One-dimensional orthonormal polynomial families and Gauss quadrature.

Two families are supported, each orthonormal with respect to a probability
density, ``E[psi_j psi_k] = delta_jk``:

* Legendre, ``psi_k = sqrt(2k + 1) P_k`` (with ``P_k(1) = 1``), for the
  uniform density ``1/2`` on ``[-1, 1]``.
* Probabilists' Hermite, ``psi_k = He_k / sqrt(k!)``, for the standard
  normal density on the real line.

One three-term recurrence per family (:func:`_recurrence`) defines both the
polynomials and the Gauss rules.

All quadrature weights are probability-normalized (they sum to one), so
integrating a function against a rule approximates an expectation under the
corresponding density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np


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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples in physical coordinates."""
        if isinstance(self.dist, Uniform):
            return rng.uniform(self.dist.a, self.dist.b, size)
        return rng.normal(self.dist.mu, self.dist.sigma, size)


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


@lru_cache(maxsize=None)
def gauss_rule(family: PolyFamily, m: int) -> GaussRule:
    """m-point Gauss rule, exact for polynomials of degree <= 2m - 1.

    Golub-Welsch: the points are the eigenvalues of the Jacobi matrix of
    :func:`_recurrence`. The weights come from the Christoffel function of
    the same recurrence, ``1 / sum_k psi_k(x_i)^2`` over ``k < m``, which
    keeps its relative accuracy at the outermost points, where squared
    eigenvector components do not. Far-out Hermite points whose true weight
    is below the smallest double get weight 0.

    That limits Hermite exactness at ``m = 511`` (a normal axis at sparse
    level 8): 40 weights are 0, and the Gram matrix ``sum_i w_i psi_j(x_i)
    psi_k(x_i)``, ``j < m``, ``k <= m``, is 0.45 off the identity, against
    2.1e-14 at ``m = 255``. Smooth integrands, which are negligible that
    far out, are unaffected; high-degree polynomial exactness is lost.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return GaussRule(points=np.zeros(1), weights=np.ones(1))
    b = _recurrence(family, m)
    points = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))[0]
    with np.errstate(over="ignore"):
        weights = 1.0 / np.square(eval_poly_table(family, m - 1, points)).sum(axis=0)
    # Both densities are symmetric; enforce the symmetry the eigensolver
    # delivers only to rounding error.
    points = 0.5 * (points - points[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights /= weights.sum()
    if m % 2 == 1:
        points[m // 2] = 0.0
    points.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(points=points, weights=weights)

"""One-dimensional orthogonal polynomial families and Gauss quadrature.

Two families are supported, each orthogonal with respect to a probability
density:

* Legendre ``P_k`` (convention ``P_k(1) = 1``) for the uniform density
  ``1/2`` on ``[-1, 1]``.
* Probabilists' Hermite ``He_k`` for the standard normal density on the
  real line.

All quadrature weights are probability-normalized (they sum to one), so
integrating a function against a rule approximates an expectation under the
corresponding density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import factorial

import numpy as np
from scipy.linalg import eigh_tridiagonal


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


def eval_poly_table(family: PolyFamily, max_degree: int, x) -> np.ndarray:
    """Evaluate all polynomials of degree 0..max_degree at points ``x``.

    Returns an array of shape ``(max_degree + 1, len(x))`` built with the
    three-term recurrence of the family. Each row is written in place, with
    one scratch vector, in the operation order of
    ``((2k + 1) * x * T[k] - k * T[k-1]) / (k + 1)`` (Legendre) and
    ``x * T[k] - k * T[k-1]`` (Hermite).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((max_degree + 1, x.size))
    table[0] = 1.0
    if max_degree == 0:
        return table
    table[1] = x
    scratch = np.empty(x.size)
    legendre = family is PolyFamily.LEGENDRE
    for k in range(1, max_degree):
        row = table[k + 1]
        if legendre:
            np.multiply(x, 2 * k + 1, out=row)
            np.multiply(row, table[k], out=row)
        else:
            np.multiply(x, table[k], out=row)
        np.multiply(table[k - 1], k, out=scratch)
        np.subtract(row, scratch, out=row)
        if legendre:
            np.divide(row, k + 1, out=row)
    return table


def eval_poly(family: PolyFamily, degree: int, x: float) -> float:
    """Evaluate a single polynomial of the family at a scalar point."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return float(eval_poly_table(family, degree, x)[degree, 0])


def norm_sq(family: PolyFamily, degree: int) -> float:
    """Closed-form ``E[Psi_k^2]`` under the family's probability density."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if family is PolyFamily.LEGENDRE:
        return 1.0 / (2 * degree + 1)
    return float(factorial(degree))


@lru_cache(maxsize=None)
def gauss_rule(family: PolyFamily, m: int) -> GaussRule:
    """m-point Gauss rule, exact for polynomials of degree <= 2m - 1.

    Computed by Golub-Welsch: eigendecomposition of the symmetric
    tridiagonal Jacobi matrix of the recurrence, with weights from the
    squared first eigenvector components (total mass 1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return GaussRule(points=np.zeros(1), weights=np.ones(1))
    k = np.arange(1, m, dtype=float)
    if family is PolyFamily.LEGENDRE:
        offdiag = k / np.sqrt(4.0 * k * k - 1.0)
    else:
        offdiag = np.sqrt(k)
    try:
        points, vecs = eigh_tridiagonal(np.zeros(m), offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK defect
        raise RuntimeError(f"Jacobi eigensolve failed for {family}, m={m}") from exc
    weights = vecs[0] ** 2
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

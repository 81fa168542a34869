"""Sobol index post-processing of expansions plus a Monte Carlo oracle.

The variance of an orthonormal expansion partitions over subsets of variable
positions: a multi-index contributes its squared coefficient to the subset
of dimensions where its degree is non-zero. First-order, arbitrary-subset, and total indices all fall out of
that partition. ``mc_sobol`` estimates first-order and total indices
directly from model samples (pick-freeze design) for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import Model
from .orthopoly import sample_points
from .pce import Expansion, mean, variance
from .philox import Philox
from .sparse_grid import first_occurrences, row_keys

#: Subsets contributing less than this fraction of the variance are dropped
#: from report maps; absent entries read as zero.
_SUBSET_FLOOR = 1e-15

#: Variance below this fraction of max(1, mean^2) counts as degenerate.
#: Projecting a constant response leaves rounding-level residual
#: coefficients, so the variance of a constant is tiny but rarely zero.
_DEGENERATE_REL = 1e-24


class ZeroVarianceError(ValueError):
    """Raised when indices are requested for a degenerate (constant) model."""


@dataclass(frozen=True)
class SobolReport:
    """Variance decomposition keyed by 0-based variable-position subsets."""

    mean: float
    variance: float
    subset_indices: dict[tuple[int, ...], float] = field(repr=False)
    total_indices: tuple[float, ...]
    first_order_se: tuple[float, ...] | None = None
    total_se: tuple[float, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.total_indices)

    def first_order(self, i: int) -> float:
        return self.subset_indices.get((i,), 0.0)


def _decomposition(e: Expansion) -> tuple[float, np.ndarray, np.ndarray]:
    """The variance, the supports (the distinct 0/1 rows of "degree
    non-zero" over the non-constant multi-indices) and each support's
    partial variance, the sum of its terms' squared coefficients."""
    if e.coeffs.ndim != 1:
        raise ValueError(
            f"Sobol indices need scalar coefficients, got shape {e.coeffs.shape}; "
            "pass each expansion of a union on its own"
        )
    d = variance(e)
    if d <= _DEGENERATE_REL * max(1.0, mean(e) ** 2):
        raise ZeroVarianceError("expansion has zero variance; Sobol indices are undefined")
    nonconstant = e.terms[1:] > 0
    _, first, inverse = first_occurrences(row_keys(nonconstant))
    supports = nonconstant[first]
    partials = np.bincount(inverse, weights=e.coeffs[1:] ** 2, minlength=len(supports))
    return float(d), supports, partials


def all_indices(e: Expansion) -> SobolReport:
    """Full report: every contributing subset plus totals and moments."""
    d, supports, partials = _decomposition(e)
    keep = partials >= _SUBSET_FLOOR * d
    subsets = sorted(
        (tuple(np.flatnonzero(s).tolist()), float(dv) / d)
        for s, dv in zip(supports[keep], partials[keep])
    )
    return SobolReport(
        mean=float(mean(e)),
        variance=d,
        subset_indices=dict(subsets),
        total_indices=tuple((partials @ supports / d).tolist()),
    )


def mc_sobol(model: Model, specs, N: int, seed: int) -> SobolReport:
    """Sampling-based first-order and total index estimates.

    Uses a pick-freeze design with two base matrices (``N * (n + 2)`` model
    evaluations): the Saltelli first-order estimator and the Jansen total
    estimator, with standard errors from the per-sample estimator spread.
    Deterministic given the seed: the samples are drawn by
    :class:`~mfpce.philox.Philox`, the Philox4x64-10 stream of numpy's
    ``Generator(Philox(key=seed))``, so uniform inputs import no
    ``numpy.random``.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    specs = list(specs)
    n = len(specs)
    rng = Philox(seed)
    A = sample_points(specs, rng, N)
    B = sample_points(specs, rng, N)
    y_a = model.batch(A)
    y_b = model.batch(B)

    d = np.var(np.concatenate([y_a, y_b]), ddof=1)
    if d <= 0.0:
        raise ZeroVarianceError(f"model {model.id} is constant on the sampled inputs")
    mu = float(np.mean(np.concatenate([y_a, y_b])))

    first = np.empty(n)
    first_se = np.empty(n)
    total = np.empty(n)
    total_se = np.empty(n)
    for i in range(n):
        AB = A.copy()
        AB[:, i] = B[:, i]
        y_ab = model.batch(AB)
        s_terms = y_b * (y_ab - y_a)
        first[i] = np.mean(s_terms) / d
        first_se[i] = np.std(s_terms, ddof=1) / (np.sqrt(N) * d)
        t_terms = 0.5 * (y_a - y_ab) ** 2
        total[i] = np.mean(t_terms) / d
        total_se[i] = np.std(t_terms, ddof=1) / (np.sqrt(N) * d)

    return SobolReport(
        mean=mu,
        variance=float(d),
        subset_indices={(i,): float(first[i]) for i in range(n)},
        total_indices=tuple(total),
        first_order_se=tuple(first_se),
        total_se=tuple(total_se),
    )

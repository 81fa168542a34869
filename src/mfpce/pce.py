"""Polynomial chaos expansions via pseudo-spectral projection on sparse grids.

An :class:`Expansion` maps multi-indices (per-dimension polynomial degrees)
to coefficients, with the basis norms ``E[Psi^2]`` tracked alongside the
unnormalized coefficients. Coefficients are computed subspace-wise: each
tensor term of the Smolyak combination contributes its own tensor-product
pseudo-spectral coefficients, capped at the degree the term's Gauss rules
integrate exactly, and the signed combination of these partial tables is the
sparse expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .orthopoly import PolyFamily, VariableSpec, eval_poly_table, gauss_rule, norm_sq
from .sparse_grid import PLAN_CACHE_SIZE, MultiIndex, compositions, grid_plan, growth

# ``project`` takes values in ``smolyak_grid`` node order; the name stays in
# this namespace, where bench/tracer.py and bench/selftest.py expect it.
from .sparse_grid import smolyak_grid  # noqa: F401


@dataclass(frozen=True)
class Expansion:
    """A PCE: coefficient and basis-norm tables over a multi-index set."""

    specs: tuple[VariableSpec, ...]
    terms: dict[MultiIndex, float] = field(repr=False)
    norms: dict[MultiIndex, float] = field(repr=False)
    provenance: str = "HF"  # HF | LF | Correction | Combined

    @property
    def n(self) -> int:
        return len(self.specs)

    def __post_init__(self) -> None:
        zero = (0,) * self.n
        if zero not in self.terms:
            raise ValueError("the zero multi-index must be present")
        missing = set(self.terms) - set(self.norms)
        if missing:
            raise ValueError(f"missing basis norms for {sorted(missing)[:3]}")


def tensor_index_set(p: MultiIndex) -> set[MultiIndex]:
    """All degrees with ``phi_j <= p_j``; cardinality ``prod(p_j + 1)``."""
    return set(product(*(range(pj + 1) for pj in p)))


def total_order_index_set(n: int, p: int) -> set[MultiIndex]:
    """All degrees with ``|phi| <= p``; cardinality ``(n+p)! / (n! p!)``."""
    out: set[MultiIndex] = set()
    for total in range(p + 1):
        out.update(compositions(n, total))
    return out


def sparse_index_set(n: int, w: int) -> set[MultiIndex]:
    """Union over admissible levels of the degree boxes each level's rule
    integrates without noise (``phi_j <= growth(l_j) - 1``)."""
    out: set[MultiIndex] = set()
    for levels in compositions(n, w):
        out.update(product(*(range(growth(l)) for l in levels)))
    return out


def basis_norms(specs, indices) -> dict[MultiIndex, float]:
    """``E[Psi_phi^2]`` per multi-index: the product of the per-axis norms,
    multiplied left to right."""
    indices = list(indices)
    degrees = np.array(indices, dtype=int).reshape(len(indices), len(specs))
    norms = np.ones(len(indices))
    for spec, axis in zip(specs, degrees.T):
        table = np.array([norm_sq(spec.family, d) for d in range(axis.max(initial=0) + 1)])
        norms = norms * table[axis]
    return dict(zip(indices, norms.tolist()))


@dataclass(frozen=True)
class _TermProjection:
    """One Smolyak term of a projection plan (see :func:`projection_plan`)."""

    coeff: int
    rows: np.ndarray  # grid positions of the term's nodes, tensor order
    shape: tuple[int, ...]  # points per axis
    tables: tuple[np.ndarray, ...]  # per axis, B[d, p] = Psi_d(x_p) * w_p
    norms: np.ndarray  # E[Psi^2] over the term's degree box, shape ``shape``
    slots: np.ndarray  # coefficient positions of the degree box, C order


@dataclass(frozen=True)
class ProjectionPlan:
    """Everything :func:`project` needs for one ``(n, w, families)``.

    The coefficient order and basis norms are kept as arrays, which take a
    fraction of the memory of the tuples and floats an expansion is made of.
    """

    size: int  # grid nodes
    index: np.ndarray  # (K, n) degrees, coefficient order
    norms: np.ndarray  # (K,) basis norms
    terms: tuple[_TermProjection, ...]  # sorted by levels


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def projection_plan(w: int, families: tuple[PolyFamily, ...]) -> ProjectionPlan:
    """Per Smolyak term, in sorted level order: where its nodes sit in the
    cached grid, its ``Psi * w`` matrices and norm tensor, and the slots its
    coefficients add into. Slots index ``list(sparse_index_set(n, w))``.
    Terms share the matrices of each (family, level) rule."""
    plan = grid_plan(w, families)
    index = list(sparse_index_set(len(families), w))
    slot_of = {phi: i for i, phi in enumerate(index)}
    rules = {(f, l): gauss_rule(f, growth(l)) for f in set(families) for l in range(w + 1)}
    tables = {k: eval_poly_table(k[0], len(r) - 1, r.points) * r.weights for k, r in rules.items()}
    axis_norms = {k: np.array([norm_sq(k[0], d) for d in range(len(r))]) for k, r in rules.items()}
    terms = []
    for term, rows in sorted(zip(plan.terms, plan.rows), key=lambda tr: tr[0].levels):
        keys = list(zip(families, term.levels))
        shape = tuple(len(rules[k]) for k in keys)
        norm_tensor = np.ones(())
        for k in keys:
            norm_tensor = np.multiply.outer(norm_tensor, axis_norms[k])
        slots = np.array([slot_of[phi] for phi in product(*(range(m) for m in shape))])
        terms.append(
            _TermProjection(term.coeff, rows, shape, tuple(tables[k] for k in keys), norm_tensor, slots)
        )
    norms = np.array(list(basis_norms(plan.specs, index).values()))
    index = np.array(index, dtype=np.int32).reshape(len(index), len(families))
    for a in (*tables.values(), index, norms, *(t.norms for t in terms), *(t.slots for t in terms)):
        a.setflags(write=False)
    return ProjectionPlan(size=len(plan.weights), index=index, norms=norms, terms=tuple(terms))


def project(grid_values, w: int, specs, provenance: str = "HF") -> Expansion:
    """Spectral projection of model values sampled on ``smolyak_grid``.

    ``grid_values`` must be aligned with the canonical node order of
    ``smolyak_grid(len(specs), w, specs)``. The grid is not rebuilt: each
    term gathers its values through the cached :func:`projection_plan`,
    contracts them with its ``Psi * w`` matrices, divides by the basis norms
    and scatter-adds the result into the coefficient vector.
    """
    specs = tuple(specs)
    plan = projection_plan(w, tuple(spec.family for spec in specs))
    values = np.asarray(grid_values, dtype=float)
    if values.shape != (plan.size,):
        raise ValueError(
            f"expected {plan.size} grid values for (n={len(specs)}, w={w}), got {values.shape}"
        )
    coeffs = np.zeros(len(plan.index))
    # Fixed (sorted) term order keeps the accumulation bitwise reproducible.
    for term in plan.terms:
        # Contract one dimension at a time; after n contractions the axes
        # are the per-dimension degrees.
        partial = values[term.rows].reshape(term.shape)
        for table in term.tables:
            partial = np.tensordot(partial, table, axes=([0], [1]))
        coeffs[term.slots] += term.coeff * (partial / term.norms).ravel()

    index = list(map(tuple, plan.index.tolist()))
    return Expansion(
        specs=specs,
        terms=dict(zip(index, coeffs)),
        norms=dict(zip(index, plan.norms.tolist())),
        provenance=provenance,
    )


def evaluate_batch(e: Expansion, xi_physical) -> np.ndarray:
    """Evaluate the expansion at rows of physical-coordinate points."""
    X = np.atleast_2d(np.asarray(xi_physical, dtype=float))
    if X.shape[1] != e.n:
        raise ValueError(f"expected {e.n}-dimensional points, got {X.shape[1]}")
    phis = np.array(sorted(e.terms), dtype=int)
    coeffs = np.array([e.terms[tuple(phi)] for phi in phis])
    std = np.column_stack([spec.to_standard(X[:, j]) for j, spec in enumerate(e.specs)])

    out = np.empty(len(X))
    chunk = max(1, int(2e7) // max(1, len(phis)))
    for start in range(0, len(X), chunk):
        stop = min(start + chunk, len(X))
        block = np.ones((len(phis), stop - start))
        for j, spec in enumerate(e.specs):
            table = eval_poly_table(spec.family, int(phis[:, j].max()), std[start:stop, j])
            block *= table[phis[:, j], :]
        out[start:stop] = coeffs @ block
    return out


def evaluate(e: Expansion, xi_physical) -> float:
    """Evaluate the expansion at a single physical-coordinate point."""
    return float(evaluate_batch(e, np.asarray(xi_physical, dtype=float)[None, :])[0])


def mean(e: Expansion) -> float:
    """The expansion mean is the constant-term coefficient."""
    return e.terms[(0,) * e.n]


def variance(e: Expansion) -> float:
    """Sum of squared non-constant coefficients weighted by basis norms."""
    zero = (0,) * e.n
    return sum(c * c * e.norms[phi] for phi, c in e.terms.items() if phi != zero)

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
    """A PCE: coefficient and basis-norm tables over a multi-index set.

    A coefficient is a float, or a length-``E`` vector for ``E`` outputs
    over the shared basis (see :func:`stack`). Vector coefficients are for
    :func:`evaluate_batch` only; :func:`mean`, :func:`variance` and the
    Sobol post-processing take scalar coefficients.
    """

    specs: tuple[VariableSpec, ...]
    terms: dict[MultiIndex, float | np.ndarray] = field(repr=False)
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


def stack(expansions) -> Expansion:
    """One multi-output expansion over the shared index set of
    ``expansions``: per multi-index, the vector of their coefficients in
    order. :func:`evaluate_batch` returns one column per expansion."""
    expansions = list(expansions)
    if not expansions:
        raise ValueError("need at least one expansion")
    first = expansions[0]
    for e in expansions[1:]:
        if e.specs != first.specs or e.terms.keys() != first.terms.keys():
            raise ValueError("stacked expansions must share specs and multi-indices")
    return Expansion(
        specs=first.specs,
        terms={phi: np.array([e.terms[phi] for e in expansions]) for phi in first.terms},
        norms=first.norms,
        provenance="+".join(e.provenance for e in expansions),
    )


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


# ``evaluate_batch`` blocking: the 1D tables are built once per outer block
# of points, and the prefix products run over inner column blocks of about
# ``INNER_BYTES``, so that they stay in cache.
OUTER_POINTS = 4096
INNER_BYTES = 1 << 20


def _evaluation_plan(phis: np.ndarray, coeffs: np.ndarray):
    """How :func:`evaluate_batch` forms the sorted multi-indices ``phis``
    with their ``(K, E)`` coefficients.

    The sorted multi-indices form a prefix tree. Each distinct prefix over
    axes ``0..n-2`` needs the product of its 1D polynomials, and a trailing
    degree 0 leaves a product unchanged (``T[0] = 1``), so a product row is
    made once, at the last axis where its prefix has a non-zero degree, as
    its parent's row times one table row. Returns the row of the empty
    product, per axis ``j < n - 1`` the ``(rows, parents, degrees)`` made
    there, and the row count.

    The distinct prefixes take the first rows, ordered stably by last-axis
    width (largest last degree + 1), and are cut into runs of equal width
    ``d``. Per run the plan holds ``(first, stop, d, C)``: its rows and its
    coefficient block. A run of at least ``d`` rows contracts its rows in
    the matrix product: ``C`` is ``(d * E, rows)`` and its row ``k * E + c``
    holds output ``c``'s coefficients of last degree ``k``. A shorter run
    contracts its degrees: ``C`` is ``(rows * E, d)`` and its row
    ``u * E + c`` holds output ``c``'s coefficients of the run's row ``u``.
    """
    K, n = phis.shape
    new = np.zeros(K, dtype=bool)
    new[0] = True
    ids = np.zeros(K, dtype=np.intp)
    row = np.zeros(1, dtype=np.intp)  # product row per distinct prefix
    steps, made = [], 1
    for j in range(n - 1):
        new[1:] |= phis[1:, j] != phis[:-1, j]
        starts = np.flatnonzero(new)
        parent, degree = row[ids[starts]], phis[starts, j]
        fresh = np.flatnonzero(degree)
        row = parent.copy()
        row[fresh] = np.arange(made, made + len(fresh))
        steps.append((row[fresh], parent[fresh], degree[fresh]))
        made += len(fresh)
        ids = np.cumsum(new) - 1

    last = phis[:, -1]
    widths = np.zeros(len(row), dtype=np.intp)
    np.maximum.at(widths, ids, last + 1)
    order = np.argsort(widths, kind="stable")
    target = np.full(made, -1)
    target[row[order]] = np.arange(len(row))
    target[target < 0] = np.arange(len(row), made)  # products no term uses
    steps = [(target[rows], target[parents], degree) for rows, parents, degree in steps]

    E = coeffs.shape[1]
    widths, slot = widths[order], target[row[ids]]
    cuts = [0, *(np.flatnonzero(np.diff(widths)) + 1).tolist(), len(widths)]
    runs = []
    for first, stop in zip(cuts[:-1], cuts[1:]):
        d = int(widths[first])
        mine = (slot >= first) & (slot < stop)
        block = np.zeros((d, E, stop - first))
        block[last[mine], :, slot[mine] - first] = coeffs[mine]
        if stop - first < d:
            block = block.transpose(2, 1, 0).copy()
        runs.append((first, stop, d, block.reshape(-1, block.shape[-1])))
    return int(target[0]), steps, made, runs


def evaluate_batch(e: Expansion, xi_physical) -> np.ndarray:
    """Evaluate the expansion at rows of physical-coordinate points.

    Returns shape ``(N,)`` for scalar coefficients and ``(N, E)`` for
    length-``E`` coefficient vectors, one column per output; all outputs
    share the tables and products below.

    The products of the 1D polynomials over axes ``0..n-2`` are formed
    once per distinct prefix of the multi-indices, as a parent's product
    times one table row, multiplied left to right (see
    :func:`_evaluation_plan`). The last axis is ragged: the prefixes are
    grouped into runs of equal last-axis width ``d``, and each run is one
    matrix product ``Z`` of its coefficient block with its prefix products,
    followed by ``sum_k T_last[k] * Z[k]`` over ``k < d``; a run of fewer
    than ``d`` prefixes contracts the degrees with ``T_last`` first and sums
    over its prefixes after. For a downward-closed set that is ``K * E``
    multiply-adds per point.

    Two block levels bound memory: the 1D tables are built once per outer
    block of ``OUTER_POINTS`` points, and the products run over inner column
    blocks sized from the number of prefix products alone, so that they
    take about ``INNER_BYTES``.
    """
    X = np.atleast_2d(np.asarray(xi_physical, dtype=float))
    if X.shape[1] != e.n:
        raise ValueError(f"expected {e.n}-dimensional points, got {X.shape[1]}")
    index = sorted(e.terms)
    # Raises ValueError unless all coefficients are scalars or all are
    # vectors of one length.
    coeffs = np.array([e.terms[phi] for phi in index], dtype=float)
    E = coeffs.shape[1] if coeffs.ndim == 2 else 1
    phis = np.array(index, dtype=np.intp)
    one, steps, made, runs = _evaluation_plan(phis, coeffs.reshape(len(index), E))
    top = phis.max(axis=0)
    width = min(OUTER_POINTS, max(1, INNER_BYTES // (8 * made)))

    out = np.zeros((E, len(X)))
    products = np.empty((made, min(width, len(X))))
    for start in range(0, len(X), OUTER_POINTS):
        block = X[start : start + OUTER_POINTS]
        tables = [
            eval_poly_table(spec.family, int(top[j]), spec.to_standard(block[:, j]))
            for j, spec in enumerate(e.specs)
        ]
        for a in range(0, len(block), width):
            b = min(a + width, len(block))
            prod = products[:, : b - a]
            prod[one] = 1.0
            for (rows, parents, degree), table in zip(steps, tables):
                made_here = prod[parents]
                made_here *= table[degree, a:b]
                prod[rows] = made_here
            acc = out[:, start + a : start + b]
            for first, stop, d, C in runs:
                if stop - first < d:
                    Z = (C @ tables[-1][:d, a:b]).reshape(stop - first, E, b - a)
                    Z *= prod[first:stop, None, :]
                else:
                    Z = (C @ prod[first:stop]).reshape(d, E, b - a)
                    Z *= tables[-1][:d, None, a:b]
                acc += Z.sum(axis=0)
    return out.T if coeffs.ndim == 2 else out[0]


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

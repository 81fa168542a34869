"""Polynomial chaos expansions via pseudo-spectral projection on sparse grids.

An :class:`Expansion` holds its multi-indices (per-dimension polynomial
degrees) as rows of an integer array and its coefficients in the
orthonormal basis of :mod:`mfpce.orthopoly`, so no basis norms are needed:
the mean is the constant-term coefficient and every other squared
coefficient is that term's share of the variance. Coefficients are computed
subspace-wise: each tensor term of the Smolyak combination contributes its
own tensor-product pseudo-spectral coefficients, capped at the degree the
term's Gauss rules integrate exactly, and the signed combination of these
partial tables is the sparse expansion. The terms, their tables and the
index set come from the grid's own cached plan
(:func:`mfpce.sparse_grid.grid_plan`); :func:`project` only gathers,
contracts and adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .orthopoly import VariableSpec, eval_poly_table
from .sparse_grid import grid_plan

# ``project`` takes values in ``smolyak_grid`` node order; the name stays in
# this namespace, where bench/tracer.py and bench/selftest.py expect it.
from .sparse_grid import smolyak_grid  # noqa: F401


@dataclass(frozen=True)
class Expansion:
    """A PCE in the orthonormal basis.

    ``terms`` is an ``(K, n)`` integer array of distinct multi-indices in
    lexicographic order, so row 0 is the zero index. ``coeffs[k]`` is the
    coefficient of ``terms[k]``: ``coeffs`` is ``(K,)``, or ``(K, E)`` for
    ``E`` outputs over the shared basis (see :func:`stack`). Vector
    coefficients are for :func:`evaluate_batch` only; the Sobol
    post-processing takes scalar coefficients.
    """

    specs: tuple[VariableSpec, ...]
    terms: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    provenance: str = "HF"  # HF | LF | Correction | Combined

    @property
    def n(self) -> int:
        return len(self.specs)

    def __post_init__(self) -> None:
        terms = np.asarray(self.terms, dtype=np.intp).reshape(-1, self.n)
        # Raises ValueError for coefficient vectors of unequal length.
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim not in (1, 2) or len(coeffs) != len(terms):
            raise ValueError(f"expected {len(terms)} coefficients, got shape {coeffs.shape}")
        step = np.diff(terms, axis=0)
        first = (step != 0).argmax(axis=1)
        increasing = (step[np.arange(len(step)), first] > 0).all()
        if len(terms) == 0 or terms[0].any() or (terms < 0).any() or not increasing:
            raise ValueError("terms must start at the zero index and increase lexicographically")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "coeffs", coeffs)


def stack(expansions) -> Expansion:
    """One multi-output expansion over the shared multi-indices of
    ``expansions``: per multi-index, the vector of their coefficients in
    order. :func:`evaluate_batch` returns one column per expansion."""
    expansions = list(expansions)
    if not expansions:
        raise ValueError("need at least one expansion")
    first = expansions[0]
    for e in expansions[1:]:
        if e.specs != first.specs or not np.array_equal(e.terms, first.terms):
            raise ValueError("stacked expansions must share specs and multi-indices")
    return Expansion(
        specs=first.specs,
        terms=first.terms,
        coeffs=np.column_stack([e.coeffs for e in expansions]),
        provenance="+".join(e.provenance for e in expansions),
    )


def project(grid_values, w: int, specs, provenance: str = "HF") -> Expansion:
    """Spectral projection of model values sampled on ``smolyak_grid``.

    ``grid_values`` must be aligned with the canonical node order of
    ``smolyak_grid(len(specs), w, specs)``. The grid is not rebuilt: each
    term of the cached :func:`~mfpce.sparse_grid.grid_plan` gathers its
    values, contracts them with the ``psi * w`` tables of its level > 0
    axes and scatter-adds the result into the coefficient vector.
    """
    specs = tuple(specs)
    plan = grid_plan(w, tuple(spec.family for spec in specs))
    values = np.asarray(grid_values, dtype=float)
    if values.shape != (len(plan.grid),):
        raise ValueError(
            f"expected {len(plan.grid)} grid values for (n={len(specs)}, w={w}), "
            f"got {values.shape}"
        )
    coeffs = np.zeros(len(plan.index))
    # Fixed (sorted) term order keeps the accumulation bitwise reproducible.
    for term in plan.terms:
        # Contract one level > 0 axis at a time; after the last contraction
        # the axes are those axes' degrees (a level-0 axis has degree 0 only).
        # Each step is ``np.tensordot(partial, table, ([0], [1]))`` without
        # its per-call overhead: the same transposed views go to ``np.dot``.
        partial = values[term.rows]
        for table in term.tables:
            partial = np.dot(partial.reshape(table.shape[1], -1).T, table.T)
        coeffs[term.slots] += term.coeff * partial.ravel()
    return Expansion(specs=specs, terms=plan.index, coeffs=coeffs, provenance=provenance)


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
    phis, coeffs = e.terms, e.coeffs
    E = coeffs.shape[1] if coeffs.ndim == 2 else 1
    one, steps, made, runs = _evaluation_plan(phis, coeffs.reshape(len(phis), E))
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


def mean(e: Expansion):
    """The expansion mean is the constant-term coefficient."""
    return e.coeffs[0]


def variance(e: Expansion):
    """The sum of the squared non-constant coefficients."""
    return (e.coeffs[1:] ** 2).sum(axis=0)

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
    ``E`` outputs over the shared basis (see :func:`union`). Vector
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


def union(expansions) -> Expansion:
    """One multi-output expansion over the union of the multi-indices of
    the scalar ``expansions``: column ``i`` holds expansion ``i``'s
    coefficients and 0 at the multi-indices it lacks. :func:`evaluate_batch`
    evaluates each column over its own non-zero terms only."""
    expansions = list(expansions)
    if not expansions:
        raise ValueError("need at least one expansion")
    first = expansions[0]
    if any(e.specs != first.specs for e in expansions[1:]):
        raise ValueError("united expansions must share specs")
    terms, slot = np.unique(
        np.concatenate([e.terms for e in expansions]), axis=0, return_inverse=True
    )
    column = np.repeat(np.arange(len(expansions)), [len(e.terms) for e in expansions])
    coeffs = np.zeros((len(terms), len(expansions)))
    coeffs[slot.reshape(-1), column] = np.concatenate([e.coeffs for e in expansions])
    return Expansion(
        specs=first.specs,
        terms=terms,
        coeffs=coeffs,
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


def _segment(first: int, degree: np.ndarray):
    """Plan rows ``first, first + 1, ...`` taken or multiplied by the table
    rows ``degree``: ``(first, stop, degree, used)``, where the rows read
    lie below ``used``."""
    return first, first + len(degree), degree, int(degree.max(initial=0)) + 1


def _evaluation_plan(phis: np.ndarray, coeffs: np.ndarray):
    """How :func:`evaluate_batch` forms the sorted multi-indices ``phis``
    with their ``(K, E)`` coefficients.

    The sorted multi-indices form a prefix tree. A prefix over axes
    ``0..j`` is made as its parent's product (its prefix over axes
    ``0..j-1``) times the axis-``j`` table row of its degree; row 0 is the
    empty product. Each axis ``j < n - 1`` makes one range of rows, in axis
    order, so that every parent precedes its children. Axes ``j < n - 2``
    make only the prefixes whose axis-``j`` degree is non-zero: a trailing
    degree 0 leaves a product unchanged (``T[0] = 1``), so such a prefix
    reuses its parent's row. Axis ``n - 2`` makes every distinct prefix over
    axes ``0..n-2``, the ones the terms contract. Returns per axis
    ``(start, parents, segments)``: the rows from ``start`` on are copies of
    the rows ``parents``, and each :func:`_segment` of them is multiplied by
    its table rows. On axis 0 ``parents`` is None, as the parent is the
    empty product: the segments are the table rows themselves. Then the row
    count, and the runs.

    The prefixes over axes ``0..n-2`` (the empty product when ``n = 1``)
    are ordered by last-axis width (largest last degree + 1) and cut into
    runs of equal width ``d``. Within a width, the prefixes whose axis-
    ``n - 2`` degree is 0 come first: they are copies of their parents, so
    the rest are one multiplied segment per width. Per run the plan holds
    ``(first, stop, d, C)``: its rows and its coefficient block. A run of
    at least ``d`` rows contracts its rows in the matrix product: ``C`` is
    ``(d * E, rows)`` and its row ``k * E + c`` holds output ``c``'s
    coefficients of last degree ``k``. A shorter run contracts its degrees:
    ``C`` is ``(rows * E, d)`` and its row ``u * E + c`` holds output
    ``c``'s coefficients of the run's row ``u``.
    """
    K, n = phis.shape
    new = np.zeros(K, dtype=bool)
    new[0] = True
    ids = np.zeros(K, dtype=np.intp)  # per term, its distinct prefix so far
    row = np.zeros(1, dtype=np.intp)  # product row per distinct prefix
    steps, made = [], 1
    for j in range(n - 1):
        new[1:] |= phis[1:, j] != phis[:-1, j]
        starts = np.flatnonzero(new)
        parent, degree = row[ids[starts]], phis[starts, j]
        ids = np.cumsum(new) - 1
        if j < n - 2:
            fresh = np.flatnonzero(degree)
            row = parent.copy()
            row[fresh] = np.arange(made, made + len(fresh))
            steps.append((made, parent[fresh] if j else None, [_segment(made, degree[fresh])]))
            made += len(fresh)

    last = phis[:, -1]
    widths = np.zeros(ids[-1] + 1, dtype=np.intp)
    np.maximum.at(widths, ids, last + 1)
    if n == 1:
        order, base = np.zeros(1, dtype=np.intp), 0
    else:
        order, base = np.lexsort((degree != 0, widths)), made
        degree = degree[order]
        if n == 2:
            steps.append((made, None, [_segment(made, degree)]))
        else:
            cuts = np.flatnonzero(np.diff(np.r_[0, degree != 0, 0])).reshape(-1, 2)
            steps.append((made, parent[order], [_segment(made + lo, degree[lo:hi]) for lo, hi in cuts]))
        made += len(order)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))

    E = coeffs.shape[1]
    widths, slot = widths[order], rank[ids]
    cuts = [0, *(np.flatnonzero(np.diff(widths)) + 1).tolist(), len(widths)]
    runs = []
    for first, stop in zip(cuts[:-1], cuts[1:]):
        d = int(widths[first])
        mine = (slot >= first) & (slot < stop)
        block = np.zeros((d, E, stop - first))
        block[last[mine], :, slot[mine] - first] = coeffs[mine]
        if stop - first < d:
            block = block.transpose(2, 1, 0).copy()
        runs.append((base + first, base + stop, d, block.reshape(-1, block.shape[-1])))
    return steps, made, runs


def _column_groups(terms: np.ndarray, coeffs: np.ndarray):
    """``(columns, plan, width)`` per group of the columns of the ``(K, E)``
    ``coeffs`` that have the same non-zero terms (the zero term counts in
    every column): the group's own :func:`_evaluation_plan` over those
    terms, and its inner block width, sized from its number of prefix
    products so that they take about ``INNER_BYTES``."""
    nonzero = coeffs != 0
    nonzero[0] = True
    members: dict[bytes, list[int]] = {}
    for c in range(coeffs.shape[1]):
        members.setdefault(nonzero[:, c].tobytes(), []).append(c)
    groups = []
    for columns in members.values():
        rows = nonzero[:, columns[0]]
        plan = _evaluation_plan(terms[rows], coeffs[np.ix_(rows, columns)])
        width = min(OUTER_POINTS, max(1, INNER_BYTES // (8 * plan[1])))
        groups.append((np.array(columns), plan, width))
    return groups


def _view(buffer: np.ndarray, rows: int, columns: int) -> np.ndarray:
    """The first ``rows * columns`` entries of a flat scratch buffer as a
    C-contiguous ``(rows, columns)`` array."""
    return buffer[: rows * columns].reshape(rows, columns)


def evaluate_batch(e: Expansion, xi_physical, *, each_block=None) -> np.ndarray | None:
    """Evaluate the expansion at rows of physical-coordinate points.

    Returns shape ``(N,)`` for scalar coefficients and ``(N, E)`` for
    length-``E`` coefficient vectors, one column per output. Given
    ``each_block``, it returns None and holds no such array: it calls
    ``each_block(start, block)`` once per outer block of points, in order,
    where ``block`` is the ``(E, b)`` outputs at points ``start..start+b``
    (``E = 1`` for scalar coefficients). ``block`` is a buffer that the
    next block overwrites, so it is valid only during that call. Without
    ``each_block``, the same loop copies each block into the result, so
    both give the same values, bit for bit.

    Columns with the same non-zero terms form a group that contracts only
    those terms, so an expansion over the union of several index sets (see
    :func:`union`) costs about what each set costs alone; all groups share
    one pass over the points and its 1D tables.

    Per group, the products of the 1D polynomials over axes ``0..n-2`` are
    formed once per distinct prefix of its multi-indices, as a parent's
    product times one table row, multiplied left to right (see
    :func:`_evaluation_plan`). The last axis is ragged: the prefixes are
    grouped into runs of equal last-axis width ``d``, and each run is one
    matrix product ``Z`` of its coefficient block with its prefix products,
    followed by ``sum_k T_last[k] * Z[k]`` over ``k < d``; a run of fewer
    than ``d`` prefixes contracts the degrees with ``T_last`` first and sums
    over its prefixes after. For a downward-closed set that is ``K * E``
    multiply-adds per point.

    Two block levels bound memory. The 1D tables are built once per outer
    block of ``OUTER_POINTS`` points, at the expansion's top degree per
    axis, and each group's products run over inner column blocks of its own
    width (see :func:`_column_groups`). The tables and every per-block
    temporary (gathers, matrix products, sums) live in buffers allocated
    once per call, as does the ``(E, OUTER_POINTS)`` block of outputs, so
    that a call holds its result (none with ``each_block``), one block's
    tables and a few ``INNER_BYTES``-sized buffers, whatever the number of
    points.
    """
    X = np.atleast_2d(np.asarray(xi_physical, dtype=float))
    if X.shape[1] != e.n:
        raise ValueError(f"expected {e.n}-dimensional points, got {X.shape[1]}")
    coeffs = e.coeffs.reshape(len(e.terms), -1)
    groups = _column_groups(e.terms, coeffs)
    outer = min(OUTER_POINTS, len(X))
    tables = [np.empty((int(top) + 1, outer)) for top in e.terms.max(axis=0)]
    # One flat buffer per temporary, for the largest of the groups' uses:
    # prefix products, one segment's table rows, one run's matrix product
    # and two for sums, each of its rows times the group's width.
    sizes = np.zeros(4, dtype=np.intp)
    for columns, (steps, made, runs), width in groups:
        segment = max((hi - lo for *_, segments in steps for lo, hi, *_ in segments), default=0)
        rows = [made, segment, max(len(C) for *_, C in runs), len(columns)]
        sizes = np.maximum(sizes, width * np.array(rows))
    products, factors, Z_flat, total, part = (np.empty(size) for size in sizes[[0, 1, 2, 3, 3]])

    values = np.empty((coeffs.shape[1], outer))
    out = None
    if each_block is None:
        out = np.empty((coeffs.shape[1], len(X)))

        def each_block(start, block):
            out[:, start : start + block.shape[1]] = block

    for start in range(0, len(X), OUTER_POINTS):
        points = X[start : start + OUTER_POINTS]
        T = [
            eval_poly_table(
                spec.family, len(table) - 1, spec.to_standard(points[:, j]), out=table[:, : len(points)]
            )
            for j, (spec, table) in enumerate(zip(e.specs, tables))
        ]
        for columns, (steps, made, runs), width in groups:
            E = len(columns)
            for a in range(0, len(points), width):
                b = min(a + width, len(points))
                prod = _view(products, made, b - a)
                prod[0] = 1.0
                # ``take`` with mode="clip" skips the index check, which
                # would buffer ``out``; it copies a strided source whole, so
                # the table is cut to the rows a segment reads.
                for (first, parents, segments), table in zip(steps, T):
                    if parents is not None:
                        copies = prod[first : first + len(parents)]
                        prod[:first].take(parents, axis=0, out=copies, mode="clip")
                    for lo, hi, degree, used in segments:
                        source = table[:used, a:b]
                        if parents is None:
                            source.take(degree, axis=0, out=prod[lo:hi], mode="clip")
                            continue
                        factor = _view(factors, hi - lo, b - a)
                        source.take(degree, axis=0, out=factor, mode="clip")
                        prod[lo:hi] *= factor
                acc, Z_sum = _view(total, E, b - a), _view(part, E, b - a)
                acc[...] = 0.0
                for first, stop, d, C in runs:
                    Z = _view(Z_flat, len(C), b - a)
                    if stop - first < d:
                        np.matmul(C, T[-1][:d, a:b], out=Z)
                        Z = Z.reshape(stop - first, E, b - a)
                        Z *= prod[first:stop, None, :]
                    else:
                        np.matmul(C, prod[first:stop], out=Z)
                        Z = Z.reshape(d, E, b - a)
                        Z *= T[-1][:d, None, a:b]
                    acc += Z.sum(axis=0, out=Z_sum)
                values[columns, a:b] = acc
        each_block(start, values[:, : len(points)])
    if out is None:
        return None
    return out.T if e.coeffs.ndim == 2 else out[0]


def mean(e: Expansion):
    """The expansion mean is the constant-term coefficient."""
    return e.coeffs[0]


def variance(e: Expansion):
    """The sum of the squared non-constant coefficients."""
    return (e.coeffs[1:] ** 2).sum(axis=0)

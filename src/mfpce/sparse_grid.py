"""Isotropic Smolyak sparse grids with the 2m+1 growth rule.

Levels are counted from zero. A grid at level ``w`` in ``n`` dimensions is a
signed combination of small tensor-product Gauss grids; nodes recurring in
several tensor terms are deduplicated with their weights accumulated.

Node identity is exact and integer. On each axis, the rules at levels
``0..w`` together have a sorted set of distinct points, and a point's id is
its rank in that set. Under the 2m+1 growth the center 0.0 is the only point
two rules share, so no rounding tolerance is involved. A tensor node is the
row of its ``n`` axis ids. The grid lists its nodes in lexicographic order of
those rows, which is lexicographic order of the coordinates. A grid
(:class:`QuadratureGrid`) keeps only the axis points, the ids and the
weights; coordinates are gathered from them when read.

The same signed combination is the sparse projection, where each term
projects its own nodes (:func:`mfpce.pce.project`). One cached
:func:`grid_plan` per ``(w, families)`` holds the grid and, per term,
everything the projection reads; a term contracts only its level > 0 axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .orthopoly import GaussRule, Normal, PolyFamily, Uniform, VariableSpec
from .orthopoly import eval_poly_table, gauss_rule

MultiIndex = tuple[int, ...]

#: Ids in row keys: big-endian, so that comparing the bytes of two rows
#: compares their ids lexicographically.
_ID_DTYPE = np.dtype(">u4")

#: Grids live in standard coordinates, where a variable is known by its
#: family alone; plans are assembled from one standard spec per family.
_STANDARD_SPECS = {
    PolyFamily.LEGENDRE: VariableSpec("u", Uniform(-1.0, 1.0)),
    PolyFamily.HERMITE: VariableSpec("z", Normal(0.0, 1.0)),
}

#: Distinct (n, w, families) plans kept per process. A converge study uses
#: a handful; the bound keeps a long-lived process from holding every grid.
PLAN_CACHE_SIZE = 8


@dataclass(frozen=True)
class LevelTerm:
    levels: MultiIndex
    coeff: int


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights in standard coordinates, as ids into axis points.

    ``points[j]`` are the sorted points that axis ``j`` draws from: the axis
    rule for a tensor grid, and the distinct points of the rules at levels
    ``0..w`` for a Smolyak grid at level ``w``. Node ``k`` has coordinate
    ``points[j][ids[k, j]]`` on axis ``j`` and weight ``weights[k]``.
    """

    points: tuple[np.ndarray, ...] = field(repr=False)
    ids: np.ndarray = field(repr=False)  # shape (N, n), integer
    weights: np.ndarray = field(repr=False)  # shape (N,)

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def nodes(self) -> np.ndarray:
        """The ``(N, n)`` coordinates, gathered from ``points`` on each read."""
        return np.column_stack([p[i] for p, i in zip(self.points, self.ids.T)])


@dataclass(frozen=True)
class PlanTerm:
    """One tensor term of a :class:`GridPlan`. Its nodes, in C order of
    their per-axis point indices, and its degree box (``d_j < growth(l_j)``,
    the degrees its rules integrate exactly) share one shape and order. A
    level-0 axis's table is exactly ``[[1.0]]``, so it has none in ``tables``."""

    levels: MultiIndex
    coeff: int
    rows: np.ndarray = field(repr=False)  # grid positions of the term's nodes
    tables: tuple[np.ndarray, ...] = field(repr=False)  # per level > 0 axis
    slots: np.ndarray = field(repr=False)  # positions in the index of the degree box


@dataclass(frozen=True)
class GridPlan:
    """A Smolyak grid and the projection onto its index set.

    ``index`` is the union of the terms' degree boxes in lexicographic
    order. ``terms`` are in sorted level order, the order in which
    :func:`mfpce.pce.project` adds them up.
    """

    grid: QuadratureGrid
    index: np.ndarray = field(repr=False)  # (K, n) degrees
    terms: tuple[PlanTerm, ...]


def growth(level: int) -> int:
    """Points of the 1D rule at a sparse level: 1, 3, 7, 15, ..."""
    if level < 0:
        raise ValueError("level must be non-negative")
    return 2 ** (level + 1) - 1


def compositions(n: int, total: int):
    """All n-tuples of non-negative integers summing to ``total``."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(n - 1, total - head):
            yield (head,) + rest


def level_terms(n: int, w: int) -> list[LevelTerm]:
    """Smolyak combination: levels with ``w - n + 1 <= |l| <= w`` and their
    signed binomial coefficients. The coefficients always sum to one."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if w < 0:
        raise ValueError("w must be non-negative")
    terms = []
    for total in range(max(0, w - n + 1), w + 1):
        coeff = (-1) ** (w - total) * comb(n - 1, w - total)
        for levels in compositions(n, total):
            terms.append(LevelTerm(levels=levels, coeff=coeff))
    return terms


def tensor_grid(levels: MultiIndex, specs: list[VariableSpec]) -> QuadratureGrid:
    """Cartesian product of the per-dimension Gauss rules, in C order of the
    per-axis point indices (which are the grid's ``ids``)."""
    if len(levels) != len(specs):
        raise ValueError("levels must have one entry per variable")
    rules = [gauss_rule(spec.family, growth(l)) for l, spec in zip(levels, specs)]
    ids = np.indices([len(r) for r in rules]).reshape(len(rules), -1).T
    weights = np.ones(1)
    for r in rules:
        weights = np.outer(weights, r.weights).ravel()
    return QuadratureGrid(points=tuple(r.points for r in rules), ids=ids, weights=weights)


def row_keys(rows) -> np.ndarray:
    """One opaque key per row of a non-negative integer array, ordered as
    the rows are lexicographically: the bytes of the row's big-endian ids.
    ``np.unique`` and ``np.searchsorted`` work on them."""
    rows = np.ascontiguousarray(rows, dtype=_ID_DTYPE)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def unique_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a non-negative integer array in lexicographic
    order, and the position among them of each input row."""
    keys, inverse = np.unique(row_keys(rows), return_inverse=True)
    return keys.view(_ID_DTYPE).reshape(len(keys), -1).astype(np.intp), inverse


def _axis_ids(rules: list[GaussRule]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct points of an axis's rules at levels ``0..w``, and at
    ``[l, i]`` the id among them of point ``i`` of the level-``l`` rule."""
    points = np.unique(np.concatenate([r.points for r in rules]))
    table = np.zeros((len(rules), len(rules[-1])), dtype=np.intp)
    for l, r in enumerate(rules):
        table[l, : len(r)] = np.searchsorted(points, r.points)
    return points, table


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def grid_plan(w: int, families: tuple[PolyFamily, ...]) -> GridPlan:
    """Assemble the Smolyak grid of level ``w`` over ``families`` and its
    projection.

    Each term's per-axis point indices come from :func:`tensor_grid`. They
    are the term's degree box, so one ``np.unique`` over them gives the
    index set and each term's slots in it. Mapped to rows of axis ids, they
    are the term's nodes: a second ``np.unique`` over the rows' bytes, whose
    sort order is the canonical node order, deduplicates them. Weights are
    summed per node with ``np.bincount`` in ``level_terms`` order. Terms
    share the ``psi * w`` tables of each (family, level) rule. The plan is
    cached and its arrays are read-only.
    """
    n = len(families)
    terms = level_terms(n, w)
    specs = tuple(_STANDARD_SPECS[f] for f in families)
    rules = {(f, l): gauss_rule(f, growth(l)) for f in set(families) for l in range(w + 1)}
    tables = {k: eval_poly_table(k[0], len(r) - 1, r.points) * r.weights for k, r in rules.items()}
    axes = {f: _axis_ids([rules[f, l] for l in range(w + 1)]) for f in set(families)}
    boxes, term_weights = [], []
    for term in terms:
        sub = tensor_grid(term.levels, specs)
        boxes.append(sub.ids)
        term_weights.append(term.coeff * sub.weights)
    sizes = [len(b) for b in boxes]
    boxes = np.concatenate(boxes)
    index, slots = unique_rows(boxes)
    levels = np.array([t.levels for t in terms])
    node_ids = np.empty(boxes.shape, dtype=_ID_DTYPE)
    for j, f in enumerate(families):
        node_ids[:, j] = axes[f][1][np.repeat(levels[:, j], sizes), boxes[:, j]]
    del boxes  # lowers the peak of the second np.unique
    ids, inverse = unique_rows(node_ids)
    ids = ids.astype(np.uint32)
    weights = np.bincount(inverse, weights=np.concatenate(term_weights), minlength=len(ids))
    cuts = np.cumsum(sizes)[:-1]
    grid = QuadratureGrid(points=tuple(axes[f][0] for f in families), ids=ids, weights=weights)
    for a in (weights, ids, index, *grid.points, *tables.values(), inverse, slots):
        a.setflags(write=False)
    plan_terms = (
        PlanTerm(t.levels, t.coeff, r, tuple(tables[k] for k in zip(families, t.levels) if k[1]), s)
        for t, r, s in zip(terms, np.split(inverse, cuts), np.split(slots, cuts))
    )
    return GridPlan(grid, index, tuple(sorted(plan_terms, key=lambda t: t.levels)))


def smolyak_grid(n: int, w: int, specs: list[VariableSpec]) -> QuadratureGrid:
    """Union of the combination's tensor grids with accumulated weights.

    Nodes are in the canonical order (lexicographic by axis ids, hence by
    coordinates), so the grid is deterministic for a given (n, w,
    families). The grid is the cached plan's, and its arrays are read-only.
    """
    if len(specs) != n:
        raise ValueError(f"expected {n} variable specs, got {len(specs)}")
    return grid_plan(w, tuple(spec.family for spec in specs)).grid


def physical_nodes(grid: QuadratureGrid, specs) -> np.ndarray:
    """``grid.nodes`` in the physical coordinates of ``specs``, mapped per axis point."""
    return np.column_stack(
        [spec.from_standard(p)[i] for spec, p, i in zip(specs, grid.points, grid.ids.T)]
    )

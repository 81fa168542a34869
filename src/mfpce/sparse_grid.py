"""Isotropic Smolyak sparse grids with the 2m+1 growth rule.

Levels are counted from zero. A grid at level ``w`` in ``n`` dimensions is a
signed combination of small tensor-product Gauss grids; nodes recurring in
several tensor terms are deduplicated with their weights accumulated.

Node identity is exact and integer. On each axis, the rules at levels
``0..w`` together have a sorted set of distinct points, and a point's id is
its rank in that set. Under the 2m+1 growth the center 0.0 is the only point
two rules share, so no rounding tolerance is involved. A tensor node is the
row of its ``n`` axis ids. The grid lists its nodes in lexicographic order of
those rows, which is lexicographic order of the coordinates.

Each ``(n, w, families)`` grid is assembled once per process and kept in a
small cache (:func:`grid_plan`), together with the grid positions of every
tensor term's nodes, which :func:`mfpce.pce.project` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .orthopoly import GaussRule, Normal, PolyFamily, Uniform, VariableSpec, gauss_rule

MultiIndex = tuple[int, ...]

#: Axis ids in deduplication: big-endian, so that comparing the bytes of
#: two rows compares their ids lexicographically.
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
    """Node/weight set in standard coordinates.

    ``ids[:, j]`` indexes the sorted points that axis ``j`` draws from: the
    axis rule for a tensor grid, and the distinct points of the rules at
    levels ``0..w`` for a Smolyak grid at level ``w``.
    """

    nodes: np.ndarray = field(repr=False)  # shape (N, n)
    weights: np.ndarray = field(repr=False)  # shape (N,)
    ids: np.ndarray = field(repr=False)  # shape (N, n), integer

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def ndim(self) -> int:
        return self.nodes.shape[1]


@dataclass(frozen=True)
class GridPlan:
    """A Smolyak grid by node ids, with the grid positions of each term's
    nodes.

    ``points[j]`` are the sorted distinct points of axis ``j``, which
    ``ids[:, j]`` index. ``rows[k]`` lists, in :func:`tensor_grid` order,
    the positions in the grid of the nodes of ``terms[k]`` (``level_terms``
    order). Coordinates are not kept: :func:`smolyak_grid` gathers them
    from ``points`` when asked, so a cached plan holds a few bytes per node.
    """

    ids: np.ndarray = field(repr=False)  # (N, n), canonical order
    weights: np.ndarray = field(repr=False)  # (N,)
    points: tuple[np.ndarray, ...] = field(repr=False)
    terms: tuple[LevelTerm, ...]
    rows: tuple[np.ndarray, ...] = field(repr=False)
    specs: tuple[VariableSpec, ...]  # standard specs, one per axis


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


def _rules_for(levels: MultiIndex, specs: list[VariableSpec]) -> list[GaussRule]:
    return [gauss_rule(spec.family, growth(l)) for l, spec in zip(levels, specs)]


def tensor_grid(levels: MultiIndex, specs: list[VariableSpec]) -> QuadratureGrid:
    """Cartesian product of the per-dimension Gauss rules, in C order of the
    per-axis point indices (which are the grid's ``ids``)."""
    if len(levels) != len(specs):
        raise ValueError("levels must have one entry per variable")
    rules = _rules_for(levels, specs)
    shape = tuple(len(r) for r in rules)
    ids = np.indices(shape).reshape(len(shape), -1).T
    nodes = np.column_stack([r.points[i] for r, i in zip(rules, ids.T)])
    weights = np.ones(1)
    for r in rules:
        weights = np.outer(weights, r.weights).ravel()
    return QuadratureGrid(nodes=nodes, weights=weights, ids=ids)


def _axis_ids(family: PolyFamily, w: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted distinct points of the family's rules at levels ``0..w``, and
    per level the ids of that rule's points among them."""
    rules = [gauss_rule(family, growth(l)) for l in range(w + 1)]
    points = np.unique(np.concatenate([r.points for r in rules]))
    return points, [np.searchsorted(points, r.points) for r in rules]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def grid_plan(w: int, families: tuple[PolyFamily, ...]) -> GridPlan:
    """Assemble the Smolyak grid of level ``w`` over ``families``.

    Each term's nodes come from :func:`tensor_grid` and are mapped to rows of
    axis ids; the rows of all terms are deduplicated in one ``np.unique``
    over their bytes, whose sort order is the canonical node order. Weights
    are summed per node with ``np.bincount`` in ``level_terms`` order. The
    plan is cached and its arrays are read-only.
    """
    n = len(families)
    terms = level_terms(n, w)
    specs = tuple(_STANDARD_SPECS[f] for f in families)
    axes = {f: _axis_ids(f, w) for f in set(families)}
    term_ids, term_weights = [], []
    for term in terms:
        sub = tensor_grid(term.levels, specs)
        term_ids.append(
            np.column_stack(
                [axes[f][1][l][i] for f, l, i in zip(families, term.levels, sub.ids.T)]
            )
        )
        term_weights.append(term.coeff * sub.weights)
    all_ids = np.concatenate(term_ids).astype(_ID_DTYPE)
    row_bytes = all_ids.view(np.dtype((np.void, all_ids.itemsize * n))).ravel()
    unique, inverse = np.unique(row_bytes, return_inverse=True)
    ids = unique.view(_ID_DTYPE).reshape(-1, n).astype(np.uint32)
    weights = np.bincount(inverse, weights=np.concatenate(term_weights), minlength=len(ids))
    rows = tuple(np.split(inverse, np.cumsum([len(t) for t in term_ids])[:-1]))
    points = tuple(axes[f][0] for f in families)
    for a in (weights, ids, *points, *rows):
        a.setflags(write=False)
    return GridPlan(ids=ids, weights=weights, points=points, terms=tuple(terms), rows=rows, specs=specs)


def smolyak_grid(n: int, w: int, specs: list[VariableSpec]) -> QuadratureGrid:
    """Union of the combination's tensor grids with accumulated weights.

    Nodes are returned in the canonical order (lexicographic by axis ids,
    hence by coordinates), so the grid is deterministic for a given
    (n, w, families). Its ``weights`` and ``ids`` are the cached plan's,
    and read-only.
    """
    if len(specs) != n:
        raise ValueError(f"expected {n} variable specs, got {len(specs)}")
    plan = grid_plan(w, tuple(spec.family for spec in specs))
    nodes = np.column_stack([p[i] for p, i in zip(plan.points, plan.ids.T)])
    return QuadratureGrid(nodes=nodes, weights=plan.weights, ids=plan.ids)

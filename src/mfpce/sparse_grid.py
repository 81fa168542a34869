"""Isotropic Smolyak sparse grids with the 2m+1 growth rule.

Levels are counted from zero. A grid at level ``w`` in ``n`` dimensions is a
signed combination of small tensor-product Gauss grids; nodes recurring in
several tensor terms are deduplicated.

Node identity is exact and integer. On each axis, the rules at levels
``0..w`` together have a sorted set of distinct points, and a point's id is
its rank in that set. Under the 2m+1 growth the center 0.0 is the only point
two rules share, so no rounding tolerance is involved. A tensor node is the
row of its ``n`` axis ids. The grid lists its nodes in lexicographic order of
those rows, which is lexicographic order of the coordinates. A grid
(:class:`QuadratureGrid`) keeps only the axis points and the ids;
coordinates are gathered from them when read. Both the nodes and
the projection's degrees form sets with a closed form, so a row's position
in its set is counted from its entries, not found by sorting all rows
(:func:`grid_plan`), and a grid's size before it is built (:func:`grid_size`).
A node's rank in the union of the grids up to level ``w`` is its identity
in :class:`mfpce.models.EvalCache` (:func:`union_ranks`).

Any other set of rows is deduplicated by :func:`first_occurrences` over
one fixed-width byte key per row: :func:`row_keys` of integer rows
(multi-indices, supports, non-zero patterns).

The same signed combination is the sparse projection, where each term
projects its own nodes with its rules' weights (:func:`mfpce.pce.project`).
As ``psi_0 = 1``, the projection's constant coefficient is the Smolyak
quadrature of the values. One cached
:func:`grid_plan` per ``(w, families)`` holds the grid and, per term,
everything the projection reads; a term contracts only its level > 0 axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, prod

import numpy as np

from .orthopoly import GaussRule, PolyFamily, VariableSpec
from .orthopoly import eval_poly_table, gauss_rule

MultiIndex = tuple[int, ...]

#: Ids in row keys: big-endian, so that comparing the bytes of two rows
#: compares their ids lexicographically.
_ID_DTYPE = np.dtype(">u4")

#: Distinct (n, w, families) plans kept per process. A converge study uses
#: a handful, and clears the cache once its reference is built and again
#: after its cells; the bound keeps a long-lived process from holding every grid.
PLAN_CACHE_SIZE = 8


@dataclass(frozen=True)
class LevelTerm:
    levels: MultiIndex
    coeff: int


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes in standard coordinates, as ids into axis points.

    ``points[j]`` are the sorted points that axis ``j`` draws from: the axis
    rule for a tensor grid, and the distinct points of the rules at levels
    ``0..w`` for a Smolyak grid at level ``w``. Node ``k`` has coordinate
    ``points[j][ids[k, j]]`` on axis ``j``.
    """

    points: tuple[np.ndarray, ...] = field(repr=False)
    ids: np.ndarray = field(repr=False)  # shape (N, n), integer

    def __len__(self) -> int:
        return len(self.ids)

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


def grid_size(n: int, w: int, q: int = 0) -> int:
    """The nodes of the level-``w`` grid in ``n >= 1`` dimensions, and with
    ``0 < q <= w`` those of the level-``(w - q)`` grid too, with no grid
    built. On an axis the centre costs 0 and the ``growth(c) - 1`` others
    of the level-``c`` rule cost ``c``; a level-``v`` node costs at most
    ``v`` and holds a centre or costs at least ``v - n + 1`` (:func:`grid_plan`)."""
    if not 0 <= q <= w:
        raise ValueError(f"need 0 <= q <= w, got w={w}, q={q}")
    off = [growth(c) - 1 for c in range(w + 1)]
    total, bare = [1] + [0] * w, [1] + [0] * w  # rows per cost sum: all, and with no centre
    for _ in range(n):
        total = [total[s] + sum(total[s - c] * off[c] for c in range(s + 1)) for s in range(w + 1)]
        bare = [sum(bare[s - c] * off[c] for c in range(s + 1)) for s in range(w + 1)]
    sums = {s for v in (w, w - q) for s in range(max(0, v - n + 1), v + 1)}
    return sum(total) - sum(bare) + sum(bare[s] for s in sums)


def tensor_grid(levels: MultiIndex, specs: list[VariableSpec]) -> QuadratureGrid:
    """Cartesian product of the per-dimension Gauss rules' points, in C
    order of the per-axis point indices (which are the grid's ``ids``). One
    term of a Smolyak grid on its own: :func:`grid_plan` makes the rows of
    all its terms at once, and does not call this."""
    if len(levels) != len(specs):
        raise ValueError("levels must have one entry per variable")
    rules = [gauss_rule(spec.family, growth(l)) for l, spec in zip(levels, specs)]
    shape = [len(r.points) for r in rules]
    ids = np.zeros((prod(shape), len(shape)), dtype=np.intp)
    # A one-point rule has point index 0, so it leaves its column at zero.
    for j, size in enumerate(shape):
        if size > 1:
            column = ids.reshape(*shape, -1)[..., j]
            column[...] = np.arange(size).reshape(size, *[1] * (len(shape) - j - 1))
    return QuadratureGrid(points=tuple(r.points for r in rules), ids=ids)


def row_keys(rows) -> np.ndarray:
    """One opaque key per row of a non-negative integer array, ordered as
    the rows are lexicographically: the bytes of the row's big-endian ids.
    :func:`first_occurrences` and ``np.searchsorted`` work on them."""
    rows = np.ascontiguousarray(rows, dtype=_ID_DTYPE)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``keys`` in sorted order, the position in ``keys`` of
    each one's first occurrence, and each key's position among them: what
    ``np.unique`` returns with ``return_index`` and ``return_inverse``,
    from one stable argsort and one sorted copy."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return keys[new], order[new], inverse


def _axis_ids(rules: list[GaussRule]):
    """An axis's rules at levels ``0..w``: their sorted distinct points; at
    ``[l, i]`` the id among these of point ``i`` of the level-``l`` rule;
    per id its cost, the level of the one rule holding the point, 0 for the
    centre 0.0, which every rule holds; and per id 1 for the centre, else 0.
    """
    level = np.repeat(np.arange(len(rules)), [len(r.points) for r in rules])
    points = np.concatenate([r.points for r in rules])
    once = (points != 0.0) | (level == 0)
    order = np.argsort(points[once])
    points, cost = points[once][order], level[once][order]
    if (points[1:] == points[:-1]).any():
        raise ValueError("rules of two levels share a point other than the centre")
    table = np.zeros((len(rules), len(rules[-1].points)), dtype=np.int32)
    for l, r in enumerate(rules):
        table[l, : len(r.points)] = np.searchsorted(points, r.points)
    return points, table, cost, (points == 0.0).astype(np.intp)


def _lex_ranks(columns, costs, centres, w: int, floor: int) -> tuple[np.ndarray, int]:
    """Lexicographic ranks of the rows ``x`` whose axis ``j`` entries are
    ``columns[j]``, in the set ``S`` of all rows with
    ``sum_j costs[j][x_j] <= w`` and, unless some ``centres[j][x_j]``
    holds, that sum at least ``floor``; and the size of ``S``. No sort.

    A row's rank counts the rows of ``S`` before it: per axis ``j``, those
    that agree on axes ``< j`` and are smaller on axis ``j``. That count
    depends only on ``x_j`` and the state after axes ``< j``: the budget
    left and whether a centre was among them. Per axis, a table holds it,
    as prefix sums over ``x_j`` of the completions of the axes after ``j``
    (counted from the last axis back), together with the next state; a
    rank is then one gather per axis and table.
    """
    budget = np.arange(w + 1)[:, None, None]
    seen = np.arange(2)[None, :, None]
    # completions[b, c]: tails with budget b left, c = a centre came before them.
    completions = np.stack([budget[:, 0, 0] <= w - floor, np.ones(w + 1, dtype=bool)], axis=1)
    steps = []
    for cost, centre in zip(costs[::-1], centres[::-1]):
        left = budget - cost
        counts = np.where(left >= 0, completions[np.maximum(left, 0), seen | centre], 0)
        before = np.zeros((w + 1, 2, len(cost) + 1), dtype=np.intp)
        np.cumsum(counts, axis=2, out=before[:, :, 1:])
        completions = before[:, :, -1]
        # The state is 2 * budget + seen; a row of S never overspends.
        after = 2 * np.maximum(left, 0) + (seen | centre)
        steps.append((before[:, :, :-1].ravel(), after.ravel(), len(cost)))
    ranks = np.zeros(columns.shape[1], dtype=np.intp)
    state = np.full(columns.shape[1], 2 * w)
    for x, (before, after, width) in zip(columns, steps[::-1]):
        state *= width
        state += x
        ranks += before[state]
        state = after[state]
    return ranks, int(completions[w, 0])


def union_axis(w: int, family: PolyFamily) -> tuple[np.ndarray, np.ndarray]:
    """The axis points of every grid up to level ``w``, and their costs."""
    points, _, cost, _ = _axis_ids([gauss_rule(family, growth(l)) for l in range(w + 1)])
    return points, cost


def union_ranks(columns, costs, w: int) -> tuple[np.ndarray, int]:
    """The ranks of the ``(n, N)`` axis ids ``columns`` in ``U_w = {x : sum_j
    costs[j][x_j] <= w}``, the union of the grids up to level ``w``, and ``|U_w|``."""
    return _lex_ranks(columns, costs, [np.zeros_like(c) for c in costs], w, 0)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def grid_plan(w: int, families: tuple[PolyFamily, ...]) -> GridPlan:
    """Assemble the Smolyak grid of level ``w`` over ``families`` and its
    projection, ranking rows by counting instead of sorting them.

    The ``S`` rows of all terms, in ``level_terms`` order, are made in
    whole-array passes: row ``r`` of a term has point index ``(r // inner)
    % count`` on an axis of ``count`` points with ``inner`` points in the
    axes after it (C order), one ``divmod`` per axis from the last. The
    point indices are the term's degree box ``d_j < growth(l_j)``. The
    union of the boxes is the index set ``{d : sum_j lvl(d_j) <= w}``,
    where ``lvl(d)`` is the lowest level whose rule has more than ``d``
    points, so a box row's slot is its lexicographic rank there
    (:func:`_lex_ranks`). Gathered at its flat ``(level, point)`` position,
    a point index becomes its axis id. A point other than the centre is in
    the rule of one level, its cost, and the union of the terms' nodes is
    ``{x : sum_j cost(x_j) <= w}`` where some ``x_j`` is the centre, or the
    cost sum is at least ``w - n + 1``; a node's rank there is its position
    in the canonical order. Terms share the ``psi * w`` tables of each
    (family, level) rule, the only place a rule's weights enter, and slice
    their ``rows`` and ``slots`` from one array each. The plan is cached
    and its arrays are read-only.

    The rows live in one ``(n, S)`` int32 array, one contiguous column per
    axis, of point indices and then, one axis at a time, of axis ids. All
    arithmetic on rows is int64: no other step of a run executes numpy's
    int32 arithmetic kernels, whose code would add 64 KB to its RSS. The
    peak is the nodes' ranking: the column array, the slots, the index and
    the ranking's ranks, state and gathers are alive, 12.3 MB of
    ``tracemalloc`` for the 8-D grid at ``w = 5`` (``S`` = 149,031) and
    63.8 MB at ``w = 6`` (``S`` = 828,795).
    """
    n = len(families)
    terms = level_terms(n, w)
    rules = {(f, l): gauss_rule(f, growth(l)) for f in set(families) for l in range(w + 1)}
    tables = {k: eval_poly_table(k[0], len(r) - 1, r.points) * r.weights for k, r in rules.items()}
    axes = {f: _axis_ids([rules[f, l] for l in range(w + 1)]) for f in set(families)}
    points, id_tables, costs, centres = zip(*(axes[f] for f in families))
    levels = np.array([t.levels for t in terms])
    counts = np.array([growth(l) for l in range(w + 1)])[levels]
    sizes = counts.prod(axis=1)
    ends = np.cumsum(sizes)
    columns = np.empty((n, ends[-1]), dtype=np.int32)
    local = np.arange(ends[-1])
    local -= np.repeat(ends - sizes, sizes)
    for j in reversed(range(n)):
        np.divmod(local, np.repeat(counts[:, j], sizes), out=(local, columns[j]))
    del local
    degree_cost = np.repeat(np.arange(w + 1), np.diff([0] + [growth(l) for l in range(w + 1)]))
    no_centre = np.zeros(len(degree_cost), dtype=np.intp)
    slots, size = _lex_ranks(columns, [degree_cost] * n, [no_centre] * n, w, 0)
    index = np.empty((size, n), dtype=np.intp)
    index[slots] = columns.T
    for column, table, level in zip(columns, id_tables, levels.T):
        at = np.repeat(level * table.shape[1], sizes)
        at += column
        np.take(table.ravel(), at, out=column)
    del at
    inverse, size = _lex_ranks(columns, costs, centres, w, w - n + 1)
    ids = np.empty((size, n), dtype=np.uint32)
    ids[inverse] = columns.T
    del columns
    grid = QuadratureGrid(points=points, ids=ids)
    for a in (ids, index, *grid.points, *tables.values(), inverse, slots):
        a.setflags(write=False)
    plan_terms = []
    for t, a, b in zip(terms, (ends - sizes).tolist(), ends.tolist()):
        term_tables = tuple(tables[k] for k in zip(families, t.levels) if k[1])
        plan_terms.append(PlanTerm(t.levels, t.coeff, inverse[a:b], term_tables, slots[a:b]))
    return GridPlan(grid, index, tuple(sorted(plan_terms, key=lambda t: t.levels)))


def smolyak_grid(n: int, w: int, specs: list[VariableSpec]) -> QuadratureGrid:
    """Union of the combination's tensor grids, each node once.

    Nodes are in the canonical order (lexicographic by axis ids, hence by
    coordinates), so the grid is deterministic for a given (n, w,
    families). The grid is the cached plan's, and its arrays are read-only.
    """
    if len(specs) != n:
        raise ValueError(f"expected {n} variable specs, got {len(specs)}")
    return grid_plan(w, tuple(spec.family for spec in specs)).grid


def physical_nodes(grid: QuadratureGrid, specs) -> np.ndarray:
    """``grid.nodes`` in the physical coordinates of ``specs``, one axis at a time."""
    X = np.empty((len(grid), len(specs)))
    for column, spec, p, i in zip(X.T, specs, grid.points, grid.ids.T):
        column[...] = spec.from_standard(p)[i]
    return X

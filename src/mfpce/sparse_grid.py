"""Isotropic Smolyak sparse grids with the 2m+1 growth rule.

Levels are counted from zero. A grid at level ``w`` in ``n`` dimensions is a
signed combination of small tensor-product Gauss grids; nodes recurring in
several tensor terms are deduplicated.

Node identity is exact and integer. On each axis, the rules at levels
``0..w`` together have a sorted set of distinct points, and a point's id is
its rank in that set. Under the 2m+1 growth the center 0.0 is the only point
two rules share, so no rounding tolerance is involved. A tensor node is the
row of its ``n`` axis ids, and its one identity is its rank, in
lexicographic order, in ``U_w = {x : sum_j cost(x_j) <= w}``, the union of
the grids of levels ``0..w`` (:class:`NodeSpace`, one cached per ``(w,
families)``): counted from its entries, not found by sorting all rows
(:class:`LexRanks`). The level-``w`` grid is a subset of ``U_w`` in the
same order, which is lexicographic order of the coordinates, and every
grid of a lower level is one too, so a projection reads its values by
rank in the space of any level at least its own, such as an
:class:`mfpce.models.EvalCache`'s (:meth:`GridPlan.term_rows`). A grid
(:class:`QuadratureGrid`) keeps only the axis points and the ids;
coordinates are gathered from them when read. The projection's degrees
form a set with the same closed form, and a grid's size is counted before
it is built (:func:`grid_size`).

Any other set of rows is deduplicated by :func:`first_occurrences` over
one fixed-width byte key per row: :func:`row_keys` of integer rows
(multi-indices, supports, non-zero patterns).

The same signed combination is the sparse projection, where each term
projects its own nodes with its rules' weights (:func:`mfpce.pce.project`).
As ``psi_0 = 1``, the projection's constant coefficient is the Smolyak
quadrature of the values. One cached :func:`grid_plan` per ``(w,
families)`` holds its ``U_w``, the grid, the index set and its rank tables,
and per term its levels, coefficient and tables (a term contracts only its
level > 0 axes), but nothing per term row: the rows of the terms, 149,031
for the 8-D grid at ``w = 5`` against its 54,673 nodes, are made a bounded
chunk at a time as a projection reads them (:meth:`GridPlan.term_rows`).
The plan and one projection on it peak at 7.5 MB of ``tracemalloc`` there,
and at 25.8 MB at ``w = 6`` (828,795 term rows, 287,409 nodes).
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

#: Distinct (w, families) plans, and node spaces, kept per process. A
#: converge study uses a handful, and clears the plans once its reference is
#: built and again after its cells; the bound keeps a long-lived process
#: from holding every grid. A node space holds nothing per node.
PLAN_CACHE_SIZE = 8

#: Rows that :meth:`GridPlan.term_rows` makes at a time, and
#: :meth:`LexRanks.rows` unranks at a time.
TERM_ROWS = 1 << 14


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
    """One tensor term of a :class:`GridPlan`: its levels, its Smolyak
    coefficient and the ``psi * w`` tables of its level > 0 axes. A level-0
    axis's table is exactly ``[[1.0]]``, so it has none in ``tables``. Its
    nodes, in C order of their per-axis point indices, and its degree box
    (``d_j < growth(l_j)``, the degrees its rules integrate exactly) share
    one shape and order; :meth:`GridPlan.term_rows` makes their positions."""

    levels: MultiIndex
    coeff: int
    tables: tuple[np.ndarray, ...] = field(repr=False)  # per level > 0 axis


@dataclass(frozen=True)
class NodeSpace:
    """``U_w = {x : sum_j cost(x_j) <= w}``, the nodes of the Smolyak grids
    of levels ``0..w`` over ``families``, each known by its rank here.

    On axis ``j``, ``points[j]`` are the sorted distinct points of the rules
    at levels ``0..w`` in standard coordinates, ``id_tables[j][l, i]`` is
    the id among them of point ``i`` of the level-``l`` rule (0 past the
    rule's end), and ``costs[j]`` holds per id the level of the one rule
    holding the point, 0 for the centre 0.0, which every rule holds.
    ``ranks`` ranks a row of axis ids in lexicographic order, which is
    coordinate order. So one space ranks the nodes of every grid up to its
    level: :meth:`GridPlan.term_rows` ranks a projection's rows in it, and
    :class:`mfpce.models.EvalCache` stores one value per rank. The space is
    cached per ``(w, families)`` (:func:`node_space`) and read-only.
    """

    w: int
    families: tuple[PolyFamily, ...]
    points: tuple[np.ndarray, ...] = field(repr=False)
    id_tables: tuple[np.ndarray, ...] = field(repr=False)
    costs: tuple[np.ndarray, ...] = field(repr=False)
    ranks: LexRanks = field(repr=False)

    def axis_maps(self, lower: NodeSpace) -> list[np.ndarray]:
        """Per axis, the id here of each of ``lower``'s ids, in the
        narrowest unsigned dtype, for ``lower.w <= w``: read off the id
        tables of the rules both spaces hold, so no point is compared."""
        dtype = np.min_scalar_type(max(map(len, self.points)) - 1)
        maps = [np.empty(len(points), dtype) for points in lower.points]
        for ids, mine, theirs in zip(maps, self.id_tables, lower.id_tables):
            for l in range(lower.w + 1):
                ids[theirs[l, : growth(l)]] = mine[l, : growth(l)]
        return maps


@dataclass(frozen=True)
class GridPlan:
    """A Smolyak grid and the projection onto its index set.

    ``index`` is the union of the terms' degree boxes in lexicographic
    order. ``terms`` are in sorted level order, the order in which
    :func:`mfpce.pce.project` adds them up. Nothing is kept per term row:
    ``space`` is ``U_w`` (:class:`NodeSpace`), which holds the grid, and
    ``degrees`` ranks a degree row in ``index``.
    """

    grid: QuadratureGrid
    index: np.ndarray = field(repr=False)  # (K, n) degrees
    terms: tuple[PlanTerm, ...]
    space: NodeSpace = field(repr=False)
    degrees: LexRanks = field(repr=False)

    def term_rows(self, space: NodeSpace | None = None):
        """Per term, in ``terms`` order, ``(term, rows, slots)``: the ranks
        of its nodes in ``space``, a :class:`NodeSpace` of this plan's
        families at a level of at least the plan's, or without one their
        positions in the grid; and the positions in ``index`` of its degree
        box; both in C order of the box, as intp.

        They are made a chunk of consecutive terms at a time, about
        ``TERM_ROWS`` rows or one larger term, in whole-array passes: row
        ``r`` of a term has point index ``(r // inner) % count`` on an axis
        of ``count`` points with ``inner`` points in the axes after it, one
        ``divmod`` per axis from the last. The point indices are the degree
        box, ranked by ``degrees``; gathered from the space's id tables,
        they are the node's axis ids, ranked by the space. A grid position
        is a rank in the plan's own ``U_w`` when the grid is all of it, and
        else that rank's position among the grid's ranks. One buffer is
        allocated per pass, for the largest chunk, so ``rows`` and
        ``slots`` are views that the next chunk overwrites.
        """
        where = None
        if space is None:
            space = self.space
            if len(self.grid) < space.ranks.size:
                where = space.ranks.ranks(self.grid.ids.T)
        n = len(space.id_tables)
        levels = np.array([t.levels for t in self.terms], dtype=np.intp).reshape(-1, n)
        counts = (2 << levels) - 1  # growth(l)
        offsets = levels * np.array([table.shape[1] for table in space.id_tables])
        sizes = counts.prod(axis=1)
        ends = np.cumsum(sizes)
        bound = max(TERM_ROWS, int(sizes.max()))
        buffer, iota = np.empty((n + 7, bound), dtype=np.intp), np.arange(bound)
        first, done = 0, 0
        while first < len(self.terms):
            stop = max(first + 1, int(np.searchsorted(ends, done + bound, side="right")))
            size = int(ends[stop - 1]) - done
            starts = ends[first:stop] - sizes[first:stop] - done
            columns, (rows, slots, local, term, at), work = np.split(buffer[:, :size], [n, n + 5])
            # Each row's term in the chunk, and its position in that term.
            term[:] = 0
            term[starts[1:]] = 1
            np.cumsum(term, out=term)
            starts.take(term, out=at, mode="clip")
            np.subtract(iota[:size], at, out=local)
            for j in reversed(range(n)):
                counts[first:stop, j].take(term, out=at, mode="clip")
                np.divmod(local, at, out=(local, columns[j]))
            self.degrees.ranks(columns, slots, work)
            for j, table in enumerate(space.id_tables):
                offsets[first:stop, j].take(term, out=at, mode="clip")
                at += columns[j]
                table.take(at, out=columns[j], mode="clip")
            space.ranks.ranks(columns, rows, work)
            if where is not None:
                rows[...] = np.searchsorted(where, rows)
            for t, a, b in zip(self.terms[first:stop], starts.tolist(), (starts + sizes[first:stop]).tolist()):
                yield t, rows[a:b], slots[a:b]
            first, done = stop, done + size


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
    term of a Smolyak grid on its own: :meth:`GridPlan.term_rows` makes the
    rows of its terms a chunk at a time, and does not call this."""
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
    and per id its cost, the level of the one rule holding the point, 0 for
    the centre 0.0, which every rule holds.
    """
    level = np.repeat(np.arange(len(rules)), [len(r.points) for r in rules])
    points = np.concatenate([r.points for r in rules])
    once = (points != 0.0) | (level == 0)
    order = np.argsort(points[once])
    points, cost = points[once][order], level[once][order]
    if (points[1:] == points[:-1]).any():
        raise ValueError("rules of two levels share a point other than the centre")
    table = np.zeros((len(rules), len(rules[-1].points)), dtype=np.intp)
    for l, r in enumerate(rules):
        table[l, : len(r.points)] = np.searchsorted(points, r.points)
    return points, table, cost


@dataclass(frozen=True)
class LexRanks:
    """The set ``S`` of the rows ``x`` with ``sum_j costs[j][x_j] <= w``, as
    per-axis tables that rank a row of ``S`` in lexicographic order and
    unrank a rank, with no sort (:func:`_lex_ranks`); and ``|S|``.

    A row's rank counts the rows of ``S`` before it: per axis ``j``, those
    that agree on axes ``< j`` and are smaller on axis ``j``. That count
    depends only on ``x_j`` and the state after axes ``< j``, the budget
    left. Per axis, ``steps`` holds at ``state * width + x`` that count and
    the next state, and per state the rows of ``S`` that start from it there.
    """

    steps: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, int], ...] = field(repr=False)
    w: int
    size: int

    def ranks(self, columns, out=None, work=None) -> np.ndarray:
        """The ranks of the rows of ``S`` whose axis ``j`` entries are
        ``columns[j]``: one gather per axis and table. ``out`` and the
        ``(2, len(out))`` scratch ``work``, both intp, are allocated if not given."""
        count = columns.shape[1]
        out = np.empty(count, dtype=np.intp) if out is None else out
        state, spare = np.empty((2, count), dtype=np.intp) if work is None else work
        out[...] = 0
        state[...] = self.w
        for x, (before, after, _, width) in zip(columns, self.steps):
            state *= width
            state += x
            before.take(state, out=spare, mode="clip")
            out += spare
            after.take(state, out=spare, mode="clip")
            state, spare = spare, state
        return out

    def rows(self, dtype) -> np.ndarray:
        """Every row of ``S`` in lexicographic order, an ``(|S|, n)`` array
        of ``dtype``, unranked ``TERM_ROWS`` ranks at a time. On each axis,
        the counts plus the rows of the states before theirs ascend, so a
        rank plus that offset of its state falls on the last such key not
        above it, whose position is ``state * width + x``."""
        axes = []
        for before, after, totals, width in self.steps:
            start = np.cumsum(totals) - totals
            axes.append((after, start, before + np.repeat(start, width), width))
        out = np.empty((self.size, len(self.steps)), dtype=dtype)
        for first in range(0, self.size, TERM_ROWS):
            rank = np.arange(first, min(first + TERM_ROWS, self.size))
            state = np.full(len(rank), self.w)
            for column, (after, start, keys, width) in zip(out[first:].T, axes):
                rank += start[state]
                at = np.searchsorted(keys, rank, side="right")
                at -= 1
                rank -= keys[at]
                state *= width
                column[: len(rank)] = at - state
                state = after[at]
        return out


def _lex_ranks(costs, w: int) -> LexRanks:
    """The :class:`LexRanks` of the rows ``x`` whose entry on axis ``j``
    ranges over ``len(costs[j])`` values, with ``sum_j costs[j][x_j] <=
    w``. Per axis, counted from the last axis back, the rows before ``x_j``
    are prefix sums over ``x_j`` of the completions of the axes after ``j``.
    """
    budget = np.arange(w + 1)[:, None]
    completions = np.ones(w + 1, dtype=np.intp)  # tails with budget b left
    steps = []
    for cost in costs[::-1]:
        left = budget - cost
        counts = np.where(left >= 0, completions[np.maximum(left, 0)], 0)
        before = np.zeros((w + 1, len(cost) + 1), dtype=np.intp)
        np.cumsum(counts, axis=1, out=before[:, 1:])
        completions = before[:, -1]
        # The state is the budget left; a row of S never overspends.
        after = np.maximum(left, 0)
        steps.append((before[:, :-1].ravel(), after.ravel(), completions, len(cost)))
    for step in steps:
        for a in step[:-1]:
            a.setflags(write=False)
    return LexRanks(tuple(steps[::-1]), w, int(completions[w]))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def node_space(w: int, families: tuple[PolyFamily, ...]) -> NodeSpace:
    """The :class:`NodeSpace` ``U_w`` of the grids up to level ``w`` over
    ``families``, built once per ``(w, families)``."""
    axes = {f: _axis_ids([gauss_rule(f, growth(l)) for l in range(w + 1)]) for f in set(families)}
    points, id_tables, costs = zip(*(axes[f] for f in families))
    for a in (*points, *id_tables, *costs):
        a.setflags(write=False)
    return NodeSpace(w, families, points, id_tables, costs, _lex_ranks(costs, w))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def grid_plan(w: int, families: tuple[PolyFamily, ...]) -> GridPlan:
    """Assemble the Smolyak grid of level ``w`` over ``families`` and its
    projection, listing both sets by counting instead of forming the terms'
    rows.

    A point other than the centre is in the rule of one level, its cost,
    and the union of the terms' nodes is the rows of ``U_w`` (:func:`node_space`)
    where some ``x_j`` is the centre, or the cost sum is at least ``w - n +
    1``; when ``w < 2n`` that is every row, as ``n`` axes off the centre
    cost at least ``n``. The union of the terms' degree boxes ``d_j <
    growth(l_j)`` is the index set ``{d : sum_j lvl(d_j) <= w}``, where
    ``lvl(d)`` is the lowest level whose rule has more than ``d`` points.
    Both sets are unranked in lexicographic order (:meth:`LexRanks.rows`),
    which for the nodes is the canonical order, and their rank tables are
    kept to rank the terms' rows when a projection reads them
    (:meth:`GridPlan.term_rows`). Terms share the ``psi * w`` tables of
    each (family, level) rule, the only place a rule's weights enter. The
    plan is cached and its arrays are read-only.

    The plan keeps nothing per term row (149,031 rows for the 8-D grid at
    ``w = 5``, 828,795 at ``w = 6``): its ids, index and tables. All
    arithmetic on rows is int64: no step of a run executes numpy's int32
    arithmetic kernels, whose code would add 64 KB to its RSS.
    """
    n = len(families)
    rules = {(f, l): gauss_rule(f, growth(l)) for f in set(families) for l in range(w + 1)}
    tables = {k: eval_poly_table(k[0], len(r) - 1, r.points) * r.weights for k, r in rules.items()}
    degree_cost = np.repeat(np.arange(w + 1), np.diff([0] + [growth(l) for l in range(w + 1)]))
    degrees = _lex_ranks([degree_cost] * n, w)
    space = node_space(w, families)
    ids = space.ranks.rows(np.uint32)
    if w >= 2 * n:  # drop the rows off every centre that cost at most w - n
        spent, centred = np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids), dtype=bool)
        for cost, column in zip(space.costs, ids.T):
            spent += cost[column]
            centred |= cost[column] == 0
        ids = ids[centred | (spent > w - n)]
    grid = QuadratureGrid(points=space.points, ids=ids)
    index = degrees.rows(np.intp)
    for a in (grid.ids, index, *tables.values()):
        a.setflags(write=False)
    terms = sorted(level_terms(n, w), key=lambda t: t.levels)
    plan_terms = tuple(
        PlanTerm(t.levels, t.coeff, tuple(tables[k] for k in zip(families, t.levels) if k[1])) for t in terms
    )
    return GridPlan(grid, index, plan_terms, space, degrees)


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

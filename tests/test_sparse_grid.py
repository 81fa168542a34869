import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mfpce.sparse_grid as sparse_grid
from mfpce.orthopoly import Normal, PolyFamily, Uniform, VariableSpec, eval_poly_table, gauss_rule
from mfpce.pce import project
from mfpce.sparse_grid import (
    compositions,
    grid_plan,
    grid_size,
    growth,
    level_terms,
    smolyak_grid,
    tensor_grid,
)

L, H = PolyFamily.LEGENDRE, PolyFamily.HERMITE
LEG = VariableSpec("u", Uniform(2.0, 6.0))
HER = VariableSpec("g", Normal(-1.0, 0.5))


def rounded_key_grid(n, w, specs):
    """The float-key assembly integer node ids replaced: each tensor node is
    keyed by its coordinates rounded to 12 decimals in a dict, first seen in
    ``level_terms`` order, and nodes are sorted by key."""
    coords = {}
    for term in level_terms(n, w):
        rules = [gauss_rule(spec.family, growth(l)) for l, spec in zip(term.levels, specs)]
        mesh = np.meshgrid(*[r.points for r in rules], indexing="ij")
        for node in np.column_stack([m.ravel() for m in mesh]):
            coords.setdefault(tuple(round(c, 12) + 0.0 for c in node), node)
    return np.array([coords[k] for k in sorted(coords)])


def sorted_assembly(w, families):
    """The sort-based plan assembly that counting ranks replaced: per term
    in ``level_terms`` order its degree box (``np.indices``) and its node
    rows of axis ids; ``np.unique`` over the big-endian bytes of the box
    rows gives the index and the slots, and over the node rows the ids and
    each node's position. Returns the index, ids, and per term in sorted
    level order its rows and slots."""
    n = len(families)
    terms = level_terms(n, w)
    rules = {(f, l): gauss_rule(f, growth(l)) for f in set(families) for l in range(w + 1)}
    axes = {}
    for f in set(families):
        points = np.unique(np.concatenate([rules[f, l].points for l in range(w + 1)]))
        axes[f] = [np.searchsorted(points, rules[f, l].points) for l in range(w + 1)]
    boxes, nodes = [], []
    for term in terms:
        box = np.indices([growth(l) for l in term.levels]).reshape(n, -1).T
        boxes.append(box)
        levels = list(zip(families, term.levels))
        nodes.append(np.column_stack([axes[f][l][box[:, j]] for j, (f, l) in enumerate(levels)]))

    def unique_rows(rows):
        rows = np.ascontiguousarray(np.concatenate(rows), dtype=">u4")
        keys = rows.view(np.dtype((np.void, 4 * n))).ravel()
        keys, inverse = np.unique(keys, return_inverse=True)
        return keys.view(">u4").reshape(len(keys), n), inverse

    index, slots = unique_rows(boxes)
    ids, positions = unique_rows(nodes)
    cuts = np.cumsum([len(b) for b in boxes])[:-1]
    per_term = {
        t.levels: (r, s) for t, r, s in zip(terms, np.split(positions, cuts), np.split(slots, cuts))
    }
    per_term = [per_term[levels] for levels in sorted(per_term)]
    return index.astype(np.intp), ids.astype(np.uint32), per_term


#: One standard spec per family: the coordinates grid plans live in.
STANDARD = {L: VariableSpec("u", Uniform(-1.0, 1.0)), H: VariableSpec("z", Normal(0.0, 1.0))}


def tensor_grid_assembly(w, families):
    """The per-term assembly that whole-array passes replaced: per term in
    ``level_terms`` order, its :func:`tensor_grid` point indices (its
    degree box, in C order); each level's point indices map to axis ids by
    ``np.searchsorted`` in the axis's distinct points, and ``np.unique``
    ranks the box rows and the node rows. Returns the index, ids, and per
    term in sorted level order its rows, slots and expected ``psi * w``
    tables."""
    n = len(families)
    terms = level_terms(n, w)
    rules = {(f, l): gauss_rule(f, growth(l)) for f in set(families) for l in range(w + 1)}
    axis_ids = {}
    for f in set(families):
        points = np.unique(np.concatenate([rules[f, l].points for l in range(w + 1)]))
        axis_ids[f] = [np.searchsorted(points, rules[f, l].points) for l in range(w + 1)]
    sizes = [math.prod(growth(l) for l in t.levels) for t in terms]
    boxes = np.empty((sum(sizes), n), dtype=">u2")  # ids stay below 2**16 up to w = 14
    nodes = np.empty_like(boxes)
    end = 0
    for t, size in zip(terms, sizes):
        sub = tensor_grid(t.levels, [STANDARD[f] for f in families])
        end += size
        boxes[end - size : end] = sub.ids
        for j, (f, l) in enumerate(zip(families, t.levels)):
            nodes[end - size : end, j] = axis_ids[f][l][sub.ids[:, j]]

    def unique_rows(rows):
        keys, inverse = np.unique(rows.view(np.dtype((np.void, 2 * n))).ravel(), return_inverse=True)
        return keys.view(">u2").reshape(len(keys), n), inverse

    index, slots = unique_rows(boxes)
    ids, positions = unique_rows(nodes)
    cuts = np.cumsum(sizes)[:-1]
    per_term = {}
    for t, rows, term_slots in zip(terms, np.split(positions, cuts), np.split(slots, cuts)):
        tables = [
            eval_poly_table(f, growth(l) - 1, rules[f, l].points) * rules[f, l].weights
            for f, l in zip(families, t.levels)
            if l > 0
        ]
        per_term[t.levels] = (rows, term_slots, tables)
    return index, ids, [per_term[levels] for levels in sorted(per_term)]


class TestGrowth:
    def test_values(self):
        assert [growth(l) for l in range(5)] == [1, 3, 7, 15, 31]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            growth(-1)


class TestCompositions:
    def test_small_cases(self):
        assert list(compositions(1, 3)) == [(3,)]
        assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    @given(st.integers(1, 5), st.integers(0, 6))
    def test_count_is_stars_and_bars(self, n, total):
        items = list(compositions(n, total))
        assert len(items) == math.comb(n + total - 1, n - 1)
        assert len(set(items)) == len(items)
        assert all(sum(c) == total for c in items)


class TestLevelTerms:
    def test_one_dimension_collapses(self):
        terms = level_terms(1, 3)
        assert len(terms) == 1
        assert terms[0].levels == (3,) and terms[0].coeff == 1

    def test_two_dimensions_level_one(self):
        by_levels = {t.levels: t.coeff for t in level_terms(2, 1)}
        assert by_levels == {(0, 0): -1, (0, 1): 1, (1, 0): 1}

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("w", range(0, 6))
    def test_coefficients_sum_to_one(self, n, w):
        # Each tensor term integrates the constant 1 exactly, so the signed
        # coefficients must sum to the integral of 1.
        assert sum(t.coeff for t in level_terms(n, w)) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            level_terms(0, 1)
        with pytest.raises(ValueError):
            level_terms(2, -1)


class TestGridSize:
    @pytest.mark.parametrize("mixed", [False, True], ids=["legendre", "mixed"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_the_built_grids_and_their_unions(self, n, mixed):
        """The level-w grid's nodes, and for each q <= w the distinct
        coordinates of the level-w and level-(w - q) grids together."""
        families = tuple(H if mixed and j % 2 else L for j in range(n))
        for w in range(7 if n <= 5 else 5):
            grid = grid_plan(w, families).grid
            nodes = set(map(tuple, grid.nodes.tolist()))
            assert grid_size(n, w) == len(grid) == len(nodes)
            for q in range(1, w + 1):
                lower = map(tuple, grid_plan(w - q, families).grid.nodes.tolist())
                assert grid_size(n, w, q) == len(nodes.union(lower)), (w, q)

    def test_known_sizes(self):
        assert grid_size(3, 6) == 6_397
        assert grid_size(3, 6, 1) == grid_size(3, 6, 2) == 6_405
        assert grid_size(8, 5) == 54_673
        assert grid_size(8, 7) == 1_388_737
        assert grid_size(3, 12) == 2_390_485

    def test_level_forty_is_counted_exactly(self):
        assert grid_size(3, 40) == 10_401_379_998_749_301

    @pytest.mark.parametrize("w, q", [(1, 2), (1, -1), (-1, 0)])
    def test_q_outside_zero_to_w_is_refused(self, w, q):
        with pytest.raises(ValueError, match="need 0 <= q <= w"):
            grid_size(3, w, q)


class TestUnionRanks:
    @pytest.mark.parametrize(
        "families, w",
        [((L, L, L), 6), ((L, H, L), 5), ((L, L, L, L), 3), ((H, H), 7), ((L,), 6)],
        ids=["3d-w6", "mixed-3d-w5", "4d-w3", "hermite-2d-w7", "1d-w6"],
    )
    def test_ranks_are_positions_in_the_union_of_the_grids(self, families, w):
        """The distinct nodes of the grids of levels 0..w, in lexicographic
        order, rank 0, 1, ... in ``U_w``, whose size is their count."""
        axes = [sparse_grid.union_axis(w, f) for f in families]
        nodes = np.unique(np.vstack([grid_plan(v, families).grid.nodes for v in range(w + 1)]), axis=0)
        ids = np.array([np.searchsorted(points, nodes[:, j]) for j, (points, _) in enumerate(axes)])
        ranks, size = sparse_grid.union_ranks(ids, [cost for _, cost in axes], w)
        assert size == len(nodes) and ranks.tolist() == list(range(len(nodes)))


class TestTensorGrid:
    def test_mixed_families_outer_product(self, mixed_specs):
        grid = tensor_grid((1, 1), list(mixed_specs))
        leg = gauss_rule(PolyFamily.LEGENDRE, 3)
        her = gauss_rule(PolyFamily.HERMITE, 3)
        assert len(grid) == 9
        expected = [
            (p1, p2) for p1, p2 in product(leg.points, her.points)
        ]
        assert np.allclose(grid.nodes, expected)
        assert [tuple(row) for row in grid.ids] == list(product(range(3), range(3)))
        assert np.array_equal(grid.nodes[:, 0], leg.points[grid.ids[:, 0]])
        assert np.array_equal(grid.nodes[:, 1], her.points[grid.ids[:, 1]])

    def test_dimension_mismatch(self, mixed_specs):
        with pytest.raises(ValueError):
            tensor_grid((1,), list(mixed_specs))


class TestSmolyakGrid:
    def test_level_zero_is_single_node(self, mixed_specs):
        grid = smolyak_grid(2, 0, list(mixed_specs))
        assert len(grid) == 1
        assert np.allclose(grid.nodes, [[0.0, 0.0]])

    def test_level_one_counts(self, mixed_specs, ishigami_range_specs):
        # 2m+1 growth shares only the center with the level-0 rule, so level
        # one has 1 + 2n distinct nodes.
        assert len(smolyak_grid(2, 1, list(mixed_specs))) == 5
        assert len(smolyak_grid(3, 1, list(ishigami_range_specs))) == 7

    @pytest.mark.parametrize("w", range(0, 4))
    def test_weights_integrate_constant(self, mixed_specs, w):
        """The projection of the constant 1 is ``psi_0``: its constant
        coefficient, the Smolyak quadrature of 1, is 1 and the others 0."""
        coeffs = project(np.ones(len(smolyak_grid(2, w, list(mixed_specs)))), w, mixed_specs).coeffs
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(coeffs[1:]).max(initial=0.0) <= 1e-12

    def test_ids_are_unique_and_sorted(self, ishigami_range_specs):
        grid = smolyak_grid(3, 3, list(ishigami_range_specs))
        assert grid.ids.shape == (len(grid), 3) and len(grid) == 159
        assert np.issubdtype(grid.ids.dtype, np.integer)
        rows = [tuple(row) for row in grid.ids.tolist()]
        assert len(set(rows)) == len(rows)
        assert rows == sorted(rows)
        # Id order is coordinate order, axis by axis.
        assert [tuple(row) for row in grid.nodes.tolist()] == sorted(map(tuple, grid.nodes.tolist()))
        for j in range(3):
            points = np.unique(grid.nodes[:, j])
            assert np.array_equal(np.searchsorted(points, grid.nodes[:, j]), grid.ids[:, j])

    def test_deterministic(self, mixed_specs):
        a = smolyak_grid(2, 3, list(mixed_specs))
        grid_plan.cache_clear()
        b = smolyak_grid(2, 3, list(mixed_specs))
        assert a.ids is not b.ids and len(a) > 1
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.nodes, b.nodes)

    @pytest.mark.parametrize(
        "specs",
        [(LEG,), (HER,), (LEG, HER), (HER, LEG), (LEG, HER, LEG), (HER, HER, LEG)],
        ids=lambda specs: "".join(s.name for s in specs),
    )
    @pytest.mark.parametrize("w", range(0, 5))
    def test_equals_rounded_key_assembly(self, specs, w):
        grid = smolyak_grid(len(specs), w, list(specs))
        assert np.array_equal(grid.nodes, rounded_key_grid(len(specs), w, specs))

    def test_equals_rounded_key_assembly_in_twenty_dimensions(self):
        specs = [LEG, HER] * 10
        grid = smolyak_grid(20, 2, specs)
        assert len(grid) == 921
        assert np.array_equal(grid.nodes, rounded_key_grid(20, 2, specs))

    def test_one_cached_plan_per_level_and_families(self, mixed_specs):
        grid_plan.cache_clear()  # which also zeroes the cache's counts
        first = smolyak_grid(2, 3, list(mixed_specs))
        for _ in range(2):
            assert smolyak_grid(2, 3, list(mixed_specs)).ids is first.ids
            project(np.ones(len(first)), 3, mixed_specs)
        # Standard coordinates: other ranges of the same families share it.
        other = (VariableSpec("a", Uniform(0.0, 1.0)), VariableSpec("b", Normal(5.0, 2.0)))
        again = smolyak_grid(2, 3, list(other))
        assert again.ids is first.ids and np.array_equal(again.nodes, first.nodes)
        assert grid_plan.cache_info().misses == 1  # one plan built
        assert not first.ids.flags.writeable

    @pytest.mark.parametrize("specs", [(LEG,), (HER, LEG), (LEG, HER, LEG)], ids=["L", "HL", "LHL"])
    @pytest.mark.parametrize("w", [0, 1, 3])
    def test_plan_terms_address_their_nodes_and_degree_boxes(self, specs, w):
        """The plan's index is the union of the boxes ``np.indices(growth(l))``
        over ``level_terms``; each term's slots address its own box and its
        rows its own tensor nodes, both in C order. Its tables are the
        ``psi * w`` tables of its level > 0 axes only."""
        n = len(specs)
        plan = grid_plan(w, tuple(spec.family for spec in specs))
        nodes = smolyak_grid(n, w, list(specs)).nodes
        terms = level_terms(n, w)
        boxes = {
            t.levels: np.indices([growth(l) for l in t.levels]).reshape(n, -1).T for t in terms
        }
        union = sorted({tuple(row) for box in boxes.values() for row in box.tolist()})
        assert [tuple(row) for row in plan.index.tolist()] == union
        assert [t.levels for t in plan.terms] == sorted(boxes)
        assert {t.levels: t.coeff for t in plan.terms} == {t.levels: t.coeff for t in terms}
        for term in plan.terms:
            assert np.array_equal(plan.index[term.slots], boxes[term.levels])
            assert np.array_equal(nodes[term.rows], tensor_grid(term.levels, list(specs)).nodes)
            expected = []
            for spec, l in zip(specs, term.levels):
                if l > 0:
                    r = gauss_rule(spec.family, growth(l))
                    expected.append(eval_poly_table(spec.family, len(r) - 1, r.points) * r.weights)
            assert len(term.tables) == len(expected) and all(
                np.array_equal(t, e) for t, e in zip(term.tables, expected)
            )

    @pytest.mark.parametrize(
        "w, families",
        [(w, (L,)) for w in range(8)]
        + [(w, (L, L)) for w in (5, 6, 7)]
        + [(5, (L, H, L)), (4, (H, L, H, L, L)), (5, (L,) * 8), (2, (L, H) * 10)],
        ids=lambda v: v if isinstance(v, int) else "".join(f.name[0] for f in v),
    )
    def test_ranks_equal_the_sorted_assembly(self, w, families):
        """Counting ranks give the index, slots, rows and ids of the
        sort-based assembly, bit for bit and with the same dtypes."""
        plan = grid_plan(w, families)
        index, ids, per_term = sorted_assembly(w, families)
        for got, want in [(plan.index, index), (plan.grid.ids, ids)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert len(plan.terms) == len(per_term)
        for term, (rows, slots) in zip(plan.terms, per_term):
            assert term.rows.dtype == rows.dtype and np.array_equal(term.rows, rows)
            assert term.slots.dtype == slots.dtype and np.array_equal(term.slots, slots)

    @pytest.mark.parametrize(
        "w, families",
        [(5, (L,) * 8), (6, (L,) * 8), (5, (L, L, L, H, H)), (8, (L, H)), (4, (H,))],
        ids=lambda v: v if isinstance(v, int) else "".join(f.name[0] for f in v),
    )
    def test_equals_the_per_term_tensor_grid_assembly(self, w, families):
        """At the sizes the converge workloads and their references reach,
        the whole-array passes give the index, ids, and every term's rows,
        slots and tables (bit for bit) of one :func:`tensor_grid` call per
        term."""
        grid_plan.cache_clear()
        plan = grid_plan(w, families)
        index, ids, per_term = tensor_grid_assembly(w, families)
        assert np.array_equal(plan.index, index) and np.array_equal(plan.grid.ids, ids)
        assert len(plan.terms) == len(per_term)
        for term, (rows, slots, tables) in zip(plan.terms, per_term):
            assert np.array_equal(term.rows, rows) and np.array_equal(term.slots, slots)
            assert len(term.tables) == len(tables)
            assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(term.tables, tables))
        grid_plan.cache_clear()

    def test_cold_plan_memory_is_one_column_array(self):
        """The 8-D w=5 plan (1,287 terms, 149,031 term rows, 54,673 nodes)
        makes its term rows in one array and no combined weights: it peaks
        near 12.3 MB, where a weights pass would add 1 MB and a list of
        per-term grids with their concatenated copy would peak near 24 MB."""
        grid_plan.cache_clear()
        tracemalloc.start()
        try:
            plan = grid_plan(5, (L,) * 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(plan.grid) == 54_673 and len(plan.terms) == 1_287
        assert peak < 12.6e6

    def test_spec_count_mismatch(self, mixed_specs):
        with pytest.raises(ValueError):
            smolyak_grid(3, 1, list(mixed_specs))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("w", [0, 1, 2, 3])
    def test_matches_telescoping_difference_form(
        self, n, w, mixed_specs, ishigami_range_specs
    ):
        # Independent oracle: the same operator written as a sum of
        # tensorized rule differences over |l| <= w.
        specs = list((mixed_specs + ishigami_range_specs)[:n])

        def f(nodes):
            return np.exp(0.3 * nodes.sum(axis=1)) + np.prod(
                np.cos(nodes), axis=1
            )

        total = 0.0
        for total_level in range(w + 1):
            for levels in compositions(n, total_level):
                # tensor product of (Q_l - Q_{l-1}) per dimension
                factors = []
                for l, spec in zip(levels, specs):
                    hi = gauss_rule(spec.family, growth(l))
                    pts = [hi.points]
                    wts = [hi.weights]
                    if l > 0:
                        lo = gauss_rule(spec.family, growth(l - 1))
                        pts.append(lo.points)
                        wts.append(-lo.weights)
                    factors.append(
                        (np.concatenate(pts), np.concatenate(wts))
                    )
                mesh = np.meshgrid(*[p for p, _ in factors], indexing="ij")
                nodes = np.column_stack([m.ravel() for m in mesh])
                weights = np.ones(1)
                for _, wt in factors:
                    weights = np.outer(weights, wt).ravel()
                total += float(weights @ f(nodes))

        # The projection's constant coefficient is the Smolyak quadrature.
        grid = smolyak_grid(n, w, specs)
        direct = float(project(f(grid.nodes), w, specs).coeffs[0])
        assert direct == pytest.approx(total, abs=1e-12 * max(1.0, abs(total)))

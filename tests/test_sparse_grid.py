import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mfpce.sparse_grid as sparse_grid
from mfpce.orthopoly import Normal, PolyFamily, Uniform, VariableSpec, gauss_rule
from mfpce.pce import project, projection_plan
from mfpce.sparse_grid import (
    compositions,
    grid_plan,
    growth,
    level_terms,
    smolyak_grid,
    tensor_grid,
)

LEG = VariableSpec("u", Uniform(2.0, 6.0))
HER = VariableSpec("g", Normal(-1.0, 0.5))


def rounded_key_grid(n, w, specs):
    """The float-key assembly integer node ids replaced: each tensor node is
    keyed by its coordinates rounded to 12 decimals, weights accumulate in a
    dict in ``level_terms`` order, and nodes are sorted by key."""
    acc, coords = {}, {}
    for term in level_terms(n, w):
        rules = [gauss_rule(spec.family, growth(l)) for l, spec in zip(term.levels, specs)]
        mesh = np.meshgrid(*[r.points for r in rules], indexing="ij")
        nodes = np.column_stack([m.ravel() for m in mesh])
        weights = np.ones(1)
        for r in rules:
            weights = np.outer(weights, r.weights).ravel()
        for node, wgt in zip(nodes, weights):
            key = tuple(round(c, 12) + 0.0 for c in node)
            if key in acc:
                acc[key] += term.coeff * wgt
            else:
                acc[key] = term.coeff * wgt
                coords[key] = node
    keys = sorted(acc)
    return np.array([coords[k] for k in keys]), np.array([acc[k] for k in keys])


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
        w_expected = np.outer(leg.weights, her.weights).ravel()
        assert np.allclose(grid.weights, w_expected)
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
        assert grid.weights == pytest.approx([1.0])

    def test_level_one_counts(self, mixed_specs, ishigami_range_specs):
        # 2m+1 growth shares only the center with the level-0 rule, so level
        # one has 1 + 2n distinct nodes.
        assert len(smolyak_grid(2, 1, list(mixed_specs))) == 5
        assert len(smolyak_grid(3, 1, list(ishigami_range_specs))) == 7

    @pytest.mark.parametrize("w", range(0, 4))
    def test_weights_integrate_constant(self, mixed_specs, w):
        grid = smolyak_grid(2, w, list(mixed_specs))
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)

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
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize(
        "specs",
        [(LEG,), (HER,), (LEG, HER), (HER, LEG), (LEG, HER, LEG), (HER, HER, LEG)],
        ids=lambda specs: "".join(s.name for s in specs),
    )
    @pytest.mark.parametrize("w", range(0, 5))
    def test_equals_rounded_key_assembly(self, specs, w):
        grid = smolyak_grid(len(specs), w, list(specs))
        nodes, weights = rounded_key_grid(len(specs), w, specs)
        assert np.array_equal(grid.nodes, nodes)
        assert np.array_equal(grid.weights, weights)

    def test_equals_rounded_key_assembly_in_twenty_dimensions(self):
        specs = [LEG, HER] * 10
        grid = smolyak_grid(20, 2, specs)
        nodes, weights = rounded_key_grid(20, 2, specs)
        assert len(grid) == 921
        assert np.array_equal(grid.nodes, nodes)
        assert np.array_equal(grid.weights, weights)

    def test_one_cached_plan_per_level_and_families(self, monkeypatch, mixed_specs):
        grid_plan.cache_clear()
        projection_plan.cache_clear()
        calls = []
        original = sparse_grid.tensor_grid
        monkeypatch.setattr(
            sparse_grid, "tensor_grid", lambda *a: calls.append(a[0]) or original(*a)
        )
        first = smolyak_grid(2, 3, list(mixed_specs))
        for _ in range(2):
            assert smolyak_grid(2, 3, list(mixed_specs)).ids is first.ids
            project(np.ones(len(first)), 3, mixed_specs)
        # Standard coordinates: other ranges of the same families share it.
        other = (VariableSpec("a", Uniform(0.0, 1.0)), VariableSpec("b", Normal(5.0, 2.0)))
        again = smolyak_grid(2, 3, list(other))
        assert again.weights is first.weights and np.array_equal(again.nodes, first.nodes)
        assert calls == [t.levels for t in level_terms(2, 3)]
        assert not first.ids.flags.writeable and not first.weights.flags.writeable

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

        grid = smolyak_grid(n, w, specs)
        direct = float(grid.weights @ f(grid.nodes))
        assert direct == pytest.approx(total, abs=1e-12 * max(1.0, abs(total)))

import math

import numpy as np
import pytest

from mfpce.models import (
    BENCHMARK_SPECS,
    builtin_model,
)
from itertools import product

from mfpce.orthopoly import (
    Normal,
    PolyFamily,
    Uniform,
    VariableSpec,
    eval_poly,
    eval_poly_table,
    gauss_rule,
    norm_sq,
)
from mfpce.pce import (
    Expansion,
    basis_norms,
    evaluate,
    evaluate_batch,
    mean,
    project,
    sparse_index_set,
    tensor_index_set,
    total_order_index_set,
    variance,
)
from mfpce.sparse_grid import growth, level_terms, smolyak_grid


def project_model(model, specs, w):
    grid = smolyak_grid(len(specs), w, list(specs))
    nodes = np.column_stack(
        [spec.from_standard(grid.nodes[:, j]) for j, spec in enumerate(specs)]
    )
    return project(model.batch(nodes), w, specs)


class TestIndexSets:
    def test_tensor_cardinality(self):
        s = tensor_index_set((1, 1))
        assert s == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_total_order_cardinality(self):
        s = total_order_index_set(3, 2)
        assert len(s) == 10
        assert all(sum(phi) <= 2 for phi in s)

    def test_sparse_level_zero(self):
        assert sparse_index_set(4, 0) == {(0, 0, 0, 0)}

    def test_sparse_level_one_boxes(self):
        s = sparse_index_set(2, 1)
        # union of the boxes [0..2]x[0] and [0]x[0..2]
        assert s == {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)}


class TestExpansionInvariants:
    def test_zero_index_required(self, unit_uniform_specs):
        with pytest.raises(ValueError):
            Expansion(
                specs=unit_uniform_specs,
                terms={(1, 0): 1.0},
                norms={(1, 0): 1 / 3},
            )

    def test_norms_required(self, unit_uniform_specs):
        with pytest.raises(ValueError):
            Expansion(
                specs=unit_uniform_specs,
                terms={(0, 0): 1.0, (1, 0): 1.0},
                norms={(0, 0): 1.0},
            )

    def test_basis_norms_product(self, mixed_specs):
        norms = basis_norms(mixed_specs, [(2, 3)])
        assert norms[(2, 3)] == pytest.approx((1 / 5) * math.factorial(3))


class TestProjection:
    def test_constant_function(self, unit_uniform_specs):
        grid = smolyak_grid(2, 2, list(unit_uniform_specs))
        e = project(np.full(len(grid), 4.25), 2, unit_uniform_specs)
        assert mean(e) == pytest.approx(4.25)
        assert variance(e) == pytest.approx(0.0, abs=1e-24)

    def test_linear_function(self, unit_uniform_specs):
        grid = smolyak_grid(2, 1, list(unit_uniform_specs))
        e = project(grid.nodes[:, 0], 1, unit_uniform_specs)
        assert e.terms[(1, 0)] == pytest.approx(1.0)
        for phi, c in e.terms.items():
            if phi != (1, 0):
                assert c == pytest.approx(0.0, abs=1e-13)
        assert variance(e) == pytest.approx(1 / 3)

    def test_value_count_mismatch(self, unit_uniform_specs):
        with pytest.raises(ValueError):
            project(np.zeros(3), 1, unit_uniform_specs)

    def test_polynomial_reproduction(self, mixed_specs, rng):
        # a dense cubic lies inside the level-3 sparse index set, so the
        # surrogate must reproduce it pointwise
        coef = {phi: rng.normal() for phi in total_order_index_set(2, 3)}

        def poly(std):
            out = np.zeros(len(std))
            for (d1, d2), c in coef.items():
                out += c * np.array(
                    [
                        eval_poly(PolyFamily.LEGENDRE, d1, a)
                        * eval_poly(PolyFamily.HERMITE, d2, b)
                        for a, b in std
                    ]
                )
            return out

        grid = smolyak_grid(2, 3, list(mixed_specs))
        e = project(poly(grid.nodes), 3, mixed_specs)
        for phi, c in coef.items():
            assert e.terms[phi] == pytest.approx(c, abs=1e-10)

        pts_std = rng.uniform(-1, 1, size=(50, 2))
        pts_phys = np.column_stack(
            [spec.from_standard(pts_std[:, j]) for j, spec in enumerate(mixed_specs)]
        )
        assert evaluate_batch(e, pts_phys) == pytest.approx(poly(pts_std), abs=1e-9)

    def test_provenance_recorded(self, unit_uniform_specs):
        grid = smolyak_grid(2, 1, list(unit_uniform_specs))
        e = project(np.ones(len(grid)), 1, unit_uniform_specs, provenance="LF")
        assert e.provenance == "LF"

    def test_equals_per_node_projection(self):
        """The plan-based projection against the per-node algorithm it
        replaced: values looked up by rounded node key, term by term in
        sorted level order, accumulated into a dict entry by entry."""
        specs = (
            VariableSpec("u", Uniform(2.0, 6.0)),
            VariableSpec("g", Normal(-1.0, 0.5)),
            VariableSpec("v", Uniform(-1.0, 3.0)),
        )
        n, w = 3, 4
        grid = smolyak_grid(n, w, list(specs))
        values = np.exp(0.3 * grid.nodes.sum(axis=1)) + np.prod(np.cos(grid.nodes), axis=1)

        def key(node):
            return tuple(round(c, 12) + 0.0 for c in node)

        value_of = {key(node): v for node, v in zip(grid.nodes, values)}
        terms = {phi: 0.0 for phi in sparse_index_set(n, w)}
        for term in sorted(level_terms(n, w), key=lambda t: t.levels):
            rules = [gauss_rule(s.family, growth(l)) for s, l in zip(specs, term.levels)]
            shape = tuple(len(r) for r in rules)
            f = np.array(
                [value_of[key(node)] for node in product(*(r.points for r in rules))]
            ).reshape(shape)
            coeffs = f
            for rule, spec in zip(rules, specs):
                table = eval_poly_table(spec.family, len(rule) - 1, rule.points)
                coeffs = np.tensordot(coeffs, table * rule.weights, axes=([0], [1]))
            norm_tensor = np.ones(())
            for j, m in enumerate(shape):
                axis = np.array([norm_sq(specs[j].family, d) for d in range(m)])
                norm_tensor = np.multiply.outer(norm_tensor, axis)
            flat = (coeffs / norm_tensor).ravel()
            for i, phi in enumerate(product(*(range(m) for m in shape))):
                terms[phi] += term.coeff * flat[i]

        e = project(values, w, specs)
        assert len(terms) > 100
        assert list(e.terms.items()) == list(terms.items())
        norms = {phi: math.prod(norm_sq(s.family, d) for s, d in zip(specs, phi)) for phi in terms}
        assert list(e.norms.items()) == list(norms.items())

    def test_projection_deterministic(self, ishigami_range_specs):
        model = builtin_model("ishigami", "hf")
        a = project_model(model, ishigami_range_specs, 3)
        b = project_model(model, ishigami_range_specs, 3)
        assert a.terms == b.terms


class TestEvaluation:
    def test_scalar_matches_batch(self, unit_uniform_specs):
        grid = smolyak_grid(2, 2, list(unit_uniform_specs))
        e = project(np.sin(grid.nodes).sum(axis=1), 2, unit_uniform_specs)
        x = np.array([0.3, -0.4])
        assert evaluate(e, x) == pytest.approx(float(evaluate_batch(e, x[None, :])[0]))

    def test_dimension_check(self, unit_uniform_specs):
        grid = smolyak_grid(2, 1, list(unit_uniform_specs))
        e = project(np.ones(len(grid)), 1, unit_uniform_specs)
        with pytest.raises(ValueError):
            evaluate_batch(e, np.zeros((4, 3)))


@pytest.mark.parametrize(
    "problem,w",
    [("ishigami", 4), ("short_column", 3), ("borehole", 3)],
)
def test_moments_match_monte_carlo(problem, w, rng):
    """Surrogate mean/variance agree with large-sample moments of the model."""
    specs = tuple(BENCHMARK_SPECS[problem])
    model = builtin_model(problem, "hf")
    e = project_model(model, specs, w)

    n_samples = 1_000_000
    X = np.column_stack([spec.sample(rng, n_samples) for spec in specs])
    y = model.batch(X)
    mean_se = y.std(ddof=1) / math.sqrt(n_samples)
    var_se = np.var((y - y.mean()) ** 2, ddof=1) ** 0.5 / math.sqrt(n_samples)
    assert mean(e) == pytest.approx(float(y.mean()), abs=3 * mean_se)
    assert variance(e) == pytest.approx(float(y.var(ddof=1)), abs=3 * var_se)

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfpce.mf import build_mf_parts
from mfpce.models import (
    BENCHMARK_SPECS,
    EvalCache,
    Model,
    builtin_model,
)
from itertools import product

from mfpce.orthopoly import (
    Normal,
    PolyFamily,
    Uniform,
    VariableSpec,
    eval_poly_table,
    gauss_rule,
)
from mfpce.pce import (
    INNER_BYTES,
    OUTER_POINTS,
    Expansion,
    evaluate_batch,
    mean,
    project,
    union,
    variance,
)
import mfpce.sparse_grid as sparse_grid
from mfpce.sparse_grid import (
    compositions,
    grid_plan,
    growth,
    level_terms,
    physical_nodes,
    smolyak_grid,
    tensor_grid,
)


def project_model(model, specs, w):
    grid = smolyak_grid(len(specs), w, list(specs))
    nodes = np.column_stack(
        [spec.from_standard(grid.nodes[:, j]) for j, spec in enumerate(specs)]
    )
    return project(model.batch(nodes), w, specs)


def per_node_case():
    """Specs, level and values on the mixed 3-D grid that
    :func:`per_node_projection` checks the projection on."""
    specs = (
        VariableSpec("u", Uniform(2.0, 6.0)),
        VariableSpec("g", Normal(-1.0, 0.5)),
        VariableSpec("v", Uniform(-1.0, 3.0)),
    )
    grid = smolyak_grid(3, 4, list(specs))
    return specs, 4, np.exp(0.3 * grid.nodes.sum(axis=1)) + np.prod(np.cos(grid.nodes), axis=1)


def per_node_projection(specs, w, values) -> dict:
    """The per-node projection algorithm: values looked up by rounded node
    key, term by term in sorted level order, accumulated into a dict of
    ``{multi-index: coefficient}`` entry by entry."""
    n = len(specs)
    grid = smolyak_grid(n, w, list(specs))

    def key(node):
        return tuple(round(c, 12) + 0.0 for c in node)

    value_of = {key(node): v for node, v in zip(grid.nodes, values)}
    terms = {
        phi: 0.0
        for levels in compositions(n, w)
        for phi in product(*(range(growth(l)) for l in levels))
    }
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
        flat = coeffs.ravel()
        for i, phi in enumerate(product(*(range(m) for m in shape))):
            terms[phi] += term.coeff * flat[i]
    return terms


def from_map(specs, coefficients) -> Expansion:
    """The expansion with ``coefficients[phi]`` at each multi-index."""
    terms = sorted(coefficients)
    return Expansion(specs=specs, terms=terms, coeffs=[coefficients[phi] for phi in terms])


def as_map(e: Expansion) -> dict:
    """``{multi-index: coefficient}`` of an expansion, in its row order."""
    return dict(zip(map(tuple, e.terms.tolist()), e.coeffs.tolist()))


def physical(grid, specs) -> np.ndarray:
    return np.column_stack([spec.from_standard(grid.nodes[:, j]) for j, spec in enumerate(specs)])


class TestIndexSets:
    def test_sparse_level_zero(self):
        assert grid_plan(0, (PolyFamily.LEGENDRE,) * 4).index.tolist() == [[0, 0, 0, 0]]

    def test_sparse_level_one_boxes(self):
        # union of the boxes [0..2]x[0] and [0]x[0..2], in lexicographic order
        index = grid_plan(1, (PolyFamily.LEGENDRE, PolyFamily.HERMITE)).index
        assert index.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [2, 0]]


#: The highest level drawn per dimension n, so that a grid has at most
#: 2,341 nodes (n=5, w=4); the Hermite limit of level 8 stays out of range.
EXACT_MAX_LEVEL = {1: 7, 2: 6, 3: 5, 4: 4, 5: 4, 6: 3, 7: 3, 8: 3}


@st.composite
def exact_cases(draw):
    """``(specs, w, seed)``: n <= 8 variables, each uniform or normal under
    a random affine map, a level within :data:`EXACT_MAX_LEVEL` and a seed
    for the coefficients."""
    n = draw(st.integers(1, 8))
    w = draw(st.integers(0, EXACT_MAX_LEVEL[n]))
    centre = st.floats(-5.0, 5.0)
    scale = st.floats(0.1, 5.0)
    specs = []
    for j in range(n):
        if draw(st.booleans()):
            a = draw(centre)
            specs.append(VariableSpec(f"x{j}", Uniform(a, a + 2.0 * draw(scale))))
        else:
            specs.append(VariableSpec(f"x{j}", Normal(draw(centre), draw(scale))))
    return tuple(specs), w, draw(st.integers(0, 2**32 - 1))


def alternating_specs(n: int) -> tuple:
    """n variables, uniform on [2, 6] and normal N(-1, 0.5^2) in turn."""
    dists = (Uniform(2.0, 6.0), Normal(-1.0, 0.5))
    return tuple(VariableSpec(f"x{j}", dists[j % 2]) for j in range(n))


def random_expansion(specs, w, seed) -> Expansion:
    """N(0, 1) coefficients on the whole index set of the level-``w`` plan."""
    index = grid_plan(w, tuple(spec.family for spec in specs)).index
    coeffs = np.random.default_rng(seed).normal(size=len(index))
    return Expansion(specs=specs, terms=index, coeffs=coeffs)


def assert_coefficients(got: Expansion, want: Expansion) -> None:
    assert np.array_equal(got.terms, want.terms)
    tolerance = 1e-11 * max(1.0, np.abs(want.coeffs).max())
    assert np.abs(got.coeffs - want.coeffs).max() <= tolerance


class TestExactness:
    """With Gauss rules, the sparse pseudo-spectral projection at level w is
    exact on the whole index set of ``grid_plan(w, families)``: the union of
    its terms' half-exactness sets (Conrad & Marzouk, SIAM J. Sci. Comput.
    35(6), 2013)."""

    @settings(max_examples=30, deadline=None)
    @given(exact_cases())
    @example(case=(alternating_specs(1), 7, 1))
    @example(case=(alternating_specs(2), 6, 2))
    @example(case=(alternating_specs(3), 5, 3))
    @example(case=(alternating_specs(4), 4, 4))
    @example(case=(alternating_specs(5), 4, 5))
    @example(case=(alternating_specs(6), 3, 6))
    @example(case=(alternating_specs(8), 3, 8))
    def test_projection_returns_the_coefficients(self, case):
        """An expansion filling the index set, evaluated at the grid's
        physical nodes, projects back to its own coefficients."""
        specs, w, seed = case
        f = random_expansion(specs, w, seed)
        nodes = physical_nodes(smolyak_grid(len(specs), w, list(specs)), specs)
        assert_coefficients(project(evaluate_batch(f, nodes), w, specs), f)

    @settings(max_examples=20, deadline=None)
    @given(exact_cases(), st.integers(0, 7))
    def test_mf_with_correction_in_its_set_is_the_hf_projection(self, case, q):
        """HF = LF + g with g in the level w - q set: the MF build equals the
        HF projection at w, whatever the LF model."""
        specs, w, seed = case
        q = min(q, w)
        g = random_expansion(specs, w - q, seed)
        a = np.random.default_rng(seed + 1).normal(size=len(specs))
        standard = lambda X: np.column_stack([s.to_standard(X[:, j]) for j, s in enumerate(specs)])
        lf = Model(id="lf", fn=lambda X: np.sin(standard(X) @ a))
        hf = Model(id="hf", fn=lambda X: lf.batch(X) + evaluate_batch(g, X))
        built = build_mf_parts(lf, hf, specs, w, q, EvalCache(specs, w))
        nodes = physical_nodes(smolyak_grid(len(specs), w, list(specs)), specs)
        assert_coefficients(built.expansion, project(hf.batch(nodes), w, specs))


class TestExpansionInvariants:
    def test_zero_index_required(self, unit_uniform_specs):
        with pytest.raises(ValueError):
            Expansion(specs=unit_uniform_specs, terms=[(1, 0)], coeffs=[1.0])

    @pytest.mark.parametrize(
        "terms,coeffs",
        [
            ([(0, 0), (1, 0), (0, 1)], [1.0, 2.0, 3.0]),
            ([(0, 0), (1, 0), (1, 0)], [1.0, 2.0, 3.0]),
            ([(0, 0), (0, -1)], [1.0, 2.0]),
            ([(0, 0), (1, 0)], [1.0]),
        ],
        ids=["unsorted", "duplicate", "negative", "missing_coefficient"],
    )
    def test_malformed_expansion_rejected(self, unit_uniform_specs, terms, coeffs):
        with pytest.raises(ValueError):
            Expansion(specs=unit_uniform_specs, terms=terms, coeffs=coeffs)

    def test_basis_norms_product(self, mixed_specs):
        """The basis is orthonormal: ``E[Psi_(2,3)^2] = 1``, the product of
        the per-axis norms, integrated by a tensor rule of 3 x 7 points
        (exact to degrees 5 and 13)."""
        e = from_map(mixed_specs, {(0, 0): 0.0, (2, 3): 1.0})
        grid = tensor_grid((1, 2), list(mixed_specs))
        psi = evaluate_batch(e, physical(grid, mixed_specs))
        u, g = (gauss_rule(s.family, growth(l)) for s, l in zip(mixed_specs, (1, 2)))
        assert np.outer(u.weights, g.weights).ravel() @ psi**2 == pytest.approx(1.0, rel=1e-14)


class TestProjection:
    def test_constant_function(self, unit_uniform_specs):
        grid = smolyak_grid(2, 2, list(unit_uniform_specs))
        e = project(np.full(len(grid), 4.25), 2, unit_uniform_specs)
        assert mean(e) == pytest.approx(4.25)
        assert variance(e) == pytest.approx(0.0, abs=1e-24)

    def test_linear_function(self, unit_uniform_specs):
        grid = smolyak_grid(2, 1, list(unit_uniform_specs))
        e = project(grid.nodes[:, 0], 1, unit_uniform_specs)
        # x = psi_1 / sqrt(3)
        coefficients = as_map(e)
        assert coefficients.pop((1, 0)) == pytest.approx(1 / math.sqrt(3))
        for c in coefficients.values():
            assert c == pytest.approx(0.0, abs=1e-13)
        assert variance(e) == pytest.approx(1 / 3)

    def test_value_count_mismatch(self, unit_uniform_specs):
        with pytest.raises(ValueError):
            project(np.zeros(3), 1, unit_uniform_specs)

    @pytest.mark.parametrize("level, other, count", [(2, False, None), (4, True, None), (4, False, 13)])
    def test_node_space_must_hold_the_grid_and_its_values(self, mixed_specs, level, other, count):
        """Values by rank need a space of the grid's families at a level of
        at least the grid's, and one value per rank there."""
        families = tuple(spec.family for spec in mixed_specs)
        space = sparse_grid.node_space(level, families[::-1] if other else families)
        with pytest.raises(ValueError):
            project(np.zeros(count or space.ranks.size), 3, mixed_specs, "HF", space)

    def test_polynomial_reproduction(self, mixed_specs, rng):
        # a dense cubic lies inside the level-3 sparse index set, so the
        # surrogate must reproduce it pointwise
        coef = {(d1, d2): rng.normal() for d1 in range(4) for d2 in range(4 - d1)}

        def poly(std):
            out = np.zeros(len(std))
            for (d1, d2), c in coef.items():
                out += (
                    c
                    * eval_poly_table(PolyFamily.LEGENDRE, d1, std[:, 0])[d1]
                    * eval_poly_table(PolyFamily.HERMITE, d2, std[:, 1])[d2]
                )
            return out

        grid = smolyak_grid(2, 3, list(mixed_specs))
        e = project(poly(grid.nodes), 3, mixed_specs)
        coefficients = as_map(e)
        for phi, c in coef.items():
            assert coefficients[phi] == pytest.approx(c, abs=1e-10)

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
        specs, w, values = per_node_case()
        terms = per_node_projection(specs, w, values)
        e = project(values, w, specs)
        assert len(terms) > 100
        assert list(as_map(e).items()) == sorted(terms.items())

    @pytest.mark.parametrize("chunk", [1, 100, 300])
    def test_equals_per_node_projection_across_chunks(self, monkeypatch, chunk):
        """Made ``chunk`` rows at a time (at least one term), a grid's term
        rows span several chunks, a boundary falling between two terms of
        one level, and the projection still equals the per-node algorithm
        bit for bit; the plan is built under the same bound."""
        monkeypatch.setattr(sparse_grid, "TERM_ROWS", chunk)
        grid_plan.cache_clear()
        specs, w, values = per_node_case()
        plan = grid_plan(w, tuple(spec.family for spec in specs))
        terms, starts = [], []
        for term, rows, _ in plan.term_rows():
            terms.append(term)
            starts.append(rows.ctypes.data)
        # A chunk's first term's rows start where the rows buffer starts.
        cuts = [k for k in range(1, len(terms)) if starts[k] == starts[0]]
        assert len(cuts) > 1
        assert any(sum(terms[k - 1].levels) == sum(terms[k].levels) for k in cuts)
        e = project(values, w, specs)
        assert list(as_map(e).items()) == sorted(per_node_projection(specs, w, values).items())
        grid_plan.cache_clear()

    def test_projection_deterministic(self, ishigami_range_specs):
        model = builtin_model("ishigami", "hf")
        a = project_model(model, ishigami_range_specs, 3)
        b = project_model(model, ishigami_range_specs, 3)
        assert np.array_equal(a.terms, b.terms)
        assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("w", [5, 6, 7, 8])
    def test_lognormal_variance_at_high_levels(self, w):
        """Var[exp(aZ)] = e^(a^2) (e^(a^2) - 1) for a standard normal Z; at
        w >= 6 the outer Hermite weights are far below the largest ones,
        where eigenvector weights lose their relative accuracy."""
        a = 0.5
        specs = (VariableSpec("z", Normal(0.0, 1.0)),)
        grid = smolyak_grid(1, w, list(specs))
        e = project(np.exp(a * grid.nodes[:, 0]), w, specs)
        with mpmath.workdps(40):
            exact = float(mpmath.exp(a * a) * mpmath.expm1(a * a))
        assert abs(variance(e) - exact) <= 1e-12 * exact


def _evaluate_batch_reference(e: Expansion, xi_physical) -> np.ndarray:
    """The block algorithm ``evaluate_batch`` replaced: one (K, chunk)
    product block per chunk of about 2e6 entries, then a GEMV."""
    X = np.atleast_2d(np.asarray(xi_physical, dtype=float))
    phis, coeffs = e.terms, e.coeffs
    std = np.column_stack([spec.to_standard(X[:, j]) for j, spec in enumerate(e.specs)])

    out = np.empty(len(X))
    chunk = max(1, int(2e6) // max(1, len(phis)))
    for start in range(0, len(X), chunk):
        stop = min(start + chunk, len(X))
        block = np.ones((len(phis), stop - start))
        for j, spec in enumerate(e.specs):
            table = eval_poly_table(spec.family, int(phis[:, j].max()), std[start:stop, j])
            block *= table[phis[:, j], :]
        out[start:stop] = coeffs @ block
    return out


def _sample(specs, count, seed=5):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.column_stack([spec.sample(rng, count) for spec in specs])


# A prime above two outer blocks: neither block size divides it.
ODD_COUNT = 16411
MIXED3 = (
    VariableSpec("u", Uniform(-2.0, 3.0)),
    VariableSpec("g", Normal(1.0, 0.5)),
    VariableSpec("v", Uniform(0.0, 1.0)),
)


def _smooth(X):
    return np.exp(0.2 * X.sum(axis=1)) + np.sin(X[:, 0]) * X[:, -1] ** 2


def _expansion(case):
    if case == "n1":
        specs = (VariableSpec("g", Normal(0.5, 2.0)),)
        return project_model(Model(id="f", fn=_smooth), specs, 5)
    if case == "n3_mixed":
        return project_model(Model(id="f", fn=_smooth), MIXED3, 4)
    if case == "borehole_w3":
        return project_model(builtin_model("borehole", "hf"), BENCHMARK_SPECS["borehole"], 3)
    if case == "constant":
        return from_map(MIXED3, {(0, 0, 0): 2.5})
    if case == "not_downward_closed":
        specs = (VariableSpec("u", Uniform(-1.0, 2.0)), VariableSpec("g", Normal(0.0, 1.5)))
        return from_map(specs, {(0, 0): 0.5, (3, 0): -1.25, (0, 5): 0.75, (2, 4): 2.0})
    if case == "borehole_mf_exact_zero":
        # One coefficient is exactly 0, so its term drops out of the plan.
        specs = tuple(BENCHMARK_SPECS["borehole"])
        hf, lf = builtin_model("borehole", "hf"), builtin_model("borehole", "lf")
        return build_mf_parts(lf, hf, specs, w=2, q=1, cache=EvalCache(specs, 2)).expansion
    assert case == "mf_combined"
    specs = tuple(BENCHMARK_SPECS["ishigami"])
    hf, lf = builtin_model("ishigami", "hf"), builtin_model("ishigami", "lf1")
    return build_mf_parts(lf, hf, specs, w=4, q=2, cache=EvalCache(specs, 4)).expansion


def _stack_case(case):
    """Expansions over one index set, whose union is their column stack."""
    if case == "n1":
        specs = (VariableSpec("g", Normal(0.5, 2.0)),)
        return [
            project_model(Model(id="f", fn=fn), specs, 5)
            for fn in (_smooth, lambda X: np.cos(X[:, 0]))
        ]
    if case == "n3_mixed":
        return [
            project_model(Model(id="f", fn=fn), MIXED3, 4)
            for fn in (
                _smooth,
                lambda X: X[:, 0] * X[:, 1] - X[:, 2] ** 3,
                lambda X: np.cos(X).sum(axis=1),
            )
        ]
    if case == "borehole_hf_mf_w3":
        specs = tuple(BENCHMARK_SPECS["borehole"])
        hf, lf = builtin_model("borehole", "hf"), builtin_model("borehole", "lf")
        mf = build_mf_parts(lf, hf, specs, w=3, q=1, cache=EvalCache(specs, 3))
        return [project_model(hf, specs, 3), mf.expansion]
    if case == "constant":
        return [from_map(MIXED3, {(0, 0, 0): c}) for c in (2.5, -0.75)]
    if case == "not_downward_closed":
        specs = (VariableSpec("u", Uniform(-1.0, 2.0)), VariableSpec("g", Normal(0.0, 1.5)))
        out = []
        for coeffs in ((0.5, -1.25, 0.75, 2.0), (-3.0, 0.25, 1.5, -0.5)):
            out.append(from_map(specs, dict(zip([(0, 0), (3, 0), (0, 5), (2, 4)], coeffs))))
        return out
    if case == "sparse_3d":
        # Prefix (2, 3) needs the product of prefix (2), which no term has.
        out = []
        for coeffs in ((1.0, -0.5, 0.25, 2.0, -1.5), (0.5, 1.5, -2.0, 0.75, 1.0)):
            terms = dict(zip([(0, 0, 0), (2, 3, 1), (0, 4, 0), (1, 0, 2), (2, 3, 0)], coeffs))
            out.append(from_map(MIXED3, terms))
        return out
    assert case == "single"
    return [_expansion("n3_mixed")]


def _ishigami_cells():
    """The 14 cells of ``configs/ishigami.yaml``'s sweep: HF and LF at
    w = 1..5 and MF (q = 2) at w = 2..5, over nested index sets."""
    specs = tuple(BENCHMARK_SPECS["ishigami"])
    hf, lf = builtin_model("ishigami", "hf"), builtin_model("ishigami", "lf1")
    cells = [project_model(model, specs, w) for model in (hf, lf) for w in range(1, 6)]
    return cells + [
        build_mf_parts(lf, hf, specs, w=w, q=2, cache=EvalCache(specs, w)).expansion for w in range(2, 6)
    ]


def _union_case(case):
    """Scalar expansions over one set of specs and different index sets."""
    if case == "ishigami_cells":
        return _ishigami_cells()
    if case == "only_zero_term_shared":
        specs = (VariableSpec("u", Uniform(-1.0, 2.0)), VariableSpec("g", Normal(0.0, 1.5)))
        return [
            from_map(specs, {(0, 0): 0.5, (2, 0): -1.25, (1, 3): 0.75, (4, 1): 2.0}),
            from_map(specs, {(0, 0): -3.0, (0, 5): 0.25, (3, 2): 1.5}),
        ]
    if case == "exact_zero_coefficient":
        specs = tuple(BENCHMARK_SPECS["borehole"])
        mf = _expansion("borehole_mf_exact_zero")
        assert np.count_nonzero(mf.coeffs == 0) == 1
        hf = builtin_model("borehole", "hf")
        return [project_model(hf, specs, 1), project_model(hf, specs, 2), mf]
    assert case == "constant_column"
    return [_expansion("n3_mixed"), from_map(MIXED3, {(0, 0, 0): 2.5})]


class TestEvaluation:
    @pytest.mark.parametrize(
        "case",
        [
            "n1",
            "n3_mixed",
            "borehole_w3",
            "constant",
            "not_downward_closed",
            "mf_combined",
            "borehole_mf_exact_zero",
        ],
    )
    @pytest.mark.parametrize("count", [1, ODD_COUNT])
    def test_equals_reference_blocks(self, case, count):
        assert count == 1 or all(count % d for d in range(2, math.isqrt(count) + 1))
        e = _expansion(case)
        X = _sample(e.specs, count)
        ref = _evaluate_batch_reference(e, X)
        got = evaluate_batch(e, X)
        assert got.shape == ref.shape == (count,)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize(
        "case",
        [
            "n1",
            "n3_mixed",
            "borehole_hf_mf_w3",
            "constant",
            "not_downward_closed",
            "sparse_3d",
            "single",
        ],
    )
    @pytest.mark.parametrize("count", [1, ODD_COUNT])
    def test_stacked_equals_each_expansion(self, case, count):
        expansions = _stack_case(case)
        X = _sample(expansions[0].specs, count)
        got = evaluate_batch(union(expansions), X)
        assert got.shape == (count, len(expansions))
        for column, e in zip(got.T, expansions):
            ref = _evaluate_batch_reference(e, X)
            tol = 1e-12 * np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(column - ref) <= tol)
            assert np.all(np.abs(column - evaluate_batch(e, X)) <= tol)

    @pytest.mark.parametrize(
        "case",
        ["ishigami_cells", "only_zero_term_shared", "exact_zero_coefficient", "constant_column"],
    )
    @pytest.mark.parametrize("count", [1, ODD_COUNT])
    def test_union_columns_equal_each_expansion(self, case, count):
        expansions = _union_case(case)
        # The zero-filled union, built here from the {multi-index: coefficient} maps.
        maps = [as_map(e) for e in expansions]
        terms = sorted(set().union(*maps))
        coeffs = [[m.get(phi, 0.0) for m in maps] for phi in terms]
        united = Expansion(specs=expansions[0].specs, terms=terms, coeffs=coeffs)
        assert np.array_equal(union(expansions).terms, united.terms)
        assert np.array_equal(union(expansions).coeffs, united.coeffs)

        X = _sample(united.specs, count)
        got = evaluate_batch(united, X)
        assert got.shape == (count, len(expansions))
        for column, e in zip(got.T, expansions):
            ref = evaluate_batch(e, X)
            assert np.all(np.abs(column - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("case", ["scalar", "ishigami_cells"])
    def test_each_block_streams_the_result(self, case):
        e = _expansion("n3_mixed") if case == "scalar" else union(_ishigami_cells())
        X = _sample(e.specs, ODD_COUNT)
        starts, blocks = [], []

        def each_block(start, block):
            starts.append(start)
            blocks.append(block.copy())

        assert evaluate_batch(e, X, each_block=each_block) is None
        assert starts == list(range(0, ODD_COUNT, OUTER_POINTS))
        want = evaluate_batch(e, X)
        streamed = np.concatenate(blocks, axis=1)
        assert streamed.shape == (want.reshape(ODD_COUNT, -1).shape[1], ODD_COUNT)
        assert np.array_equal(streamed.T.reshape(want.shape), want)

    def test_union_needs_one_spec_tuple(self):
        e = _expansion("n3_mixed")
        with pytest.raises(ValueError):
            union([e, from_map(MIXED3[:2], {(0, 0): 1.0})])
        with pytest.raises(ValueError):
            union([])

    def test_union_memory_is_one_block_of_tables(self):
        # The ishigami sweep's 14 cells at 100k points, in one call: the
        # outputs, one outer block's 1D tables at the top degree (63 rows a
        # axis) and the per-call scratch, 1.25 INNER_BYTES measured: the
        # gathered table rows and the matrix products share one buffer.
        cells = _ishigami_cells()
        united = union(cells)
        X = _sample(united.specs, 100_000)
        tables = 8 * OUTER_POINTS * int((united.terms.max(axis=0) + 1).sum())
        outputs = 8 * len(X) * len(cells)
        tracemalloc.start()
        try:
            out = evaluate_batch(united, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (100_000, 14)
        assert peak >= outputs + tables
        assert peak < outputs + tables + 1.5 * INNER_BYTES

    def test_unequal_coefficient_vectors_rejected(self):
        specs = (VariableSpec("u", Uniform(-1.0, 1.0)),)
        with pytest.raises(ValueError):
            Expansion(specs=specs, terms=[(0,), (1,)], coeffs=[np.array([1.0, 2.0]), np.array([0.5])])

    def test_peak_memory_is_blocked(self):
        # K = 1023 terms at 100k points; one unblocked (K, N) array is 818 MB.
        specs = tuple(BENCHMARK_SPECS["ishigami"])
        hf, lf = builtin_model("ishigami", "hf"), builtin_model("ishigami", "lf1")
        e = project_model(hf, specs, 5)
        assert len(e.terms) == 1023
        # Three outputs are one level of the ishigami study: HF, LF and MF.
        mf = build_mf_parts(lf, hf, specs, w=5, q=2, cache=EvalCache(specs, 5)).expansion
        stacked = union([e, project_model(lf, specs, 5), mf])
        X = _sample(specs, 100_000)
        for expansion, shape in ((e, (100_000,)), (stacked, (100_000, 3))):
            tracemalloc.start()
            try:
                out = evaluate_batch(expansion, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == shape
            assert peak >= out.nbytes  # numpy reports its buffers to tracemalloc
            assert peak < 64e6

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

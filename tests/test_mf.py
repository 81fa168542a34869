import numpy as np
import pytest

from mfpce import sparse_grid
from mfpce.mf import build_mf_parts, fit
from mfpce.models import BENCHMARK_SPECS, EvalCache, Model, builtin_model
from mfpce.orthopoly import Normal, Uniform, VariableSpec
from mfpce.pce import mean, project, variance
from mfpce.sparse_grid import grid_size, node_space, physical_nodes, smolyak_grid
from mfpce.study import SchemeSpec, build_scheme


def shifted(model, offset):
    return Model(
        id=f"{model.id}+{offset}",
        fn=lambda X, m=model: m.batch(X) - offset,
    )


class TestConfig:
    def test_offset_bounds(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        build_mf_parts(hf, hf, ishigami_range_specs, w=1, q=0)
        build_mf_parts(hf, hf, ishigami_range_specs, w=1, q=1)
        with pytest.raises(ValueError, match="need 0 <= q <= w"):
            build_mf_parts(hf, hf, ishigami_range_specs, w=1, q=2)
        with pytest.raises(ValueError, match="need 0 <= q <= w"):
            build_mf_parts(hf, hf, ishigami_range_specs, w=1, q=-1)


class TestBuild:
    def test_identical_models_give_zero_correction(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        parts = build_mf_parts(hf, hf, ishigami_range_specs, w=3, q=1)
        assert np.abs(parts.correction.coeffs).max() < 1e-12
        assert np.array_equal(parts.expansion.terms, parts.lf_expansion.terms)
        assert parts.expansion.coeffs == pytest.approx(parts.lf_expansion.coeffs)

    def test_constant_offset_is_fully_corrected(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        lf = shifted(hf, 2.5)
        parts = build_mf_parts(lf, hf, ishigami_range_specs, w=3, q=2)
        assert parts.correction.terms[0].tolist() == [0, 0, 0]
        assert parts.correction.coeffs[0] == pytest.approx(2.5)
        assert np.abs(parts.correction.coeffs[1:]).max() < 1e-12
        assert mean(parts.expansion) == pytest.approx(mean(parts.lf_expansion) + 2.5)
        assert variance(parts.expansion) == pytest.approx(variance(parts.lf_expansion))

    @pytest.mark.parametrize(
        "problem,lf_name", [("ishigami", "lf1"), ("short_column", "lf4")]
    )
    def test_zero_offset_reduces_to_single_fidelity(self, problem, lf_name):
        specs = tuple(BENCHMARK_SPECS[problem])
        hf = builtin_model(problem, "hf")
        lf = builtin_model(problem, lf_name)
        w = 2
        combined = build_mf_parts(lf, hf, specs, w=w, q=0).expansion
        grid = smolyak_grid(len(specs), w, list(specs))
        direct = project(hf.batch(physical_nodes(grid, specs)), w, specs)
        assert np.array_equal(combined.terms, direct.terms)
        scale = np.abs(direct.coeffs).max()
        assert np.abs(combined.coeffs - direct.coeffs).max() <= 1e-12 * scale

    def test_correction_basis_is_contained(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        lf = builtin_model("ishigami", "lf2")
        parts = build_mf_parts(lf, hf, ishigami_range_specs, w=3, q=1)
        rows = lambda e: set(map(tuple, e.terms.tolist()))  # noqa: E731
        assert rows(parts.correction) <= rows(parts.lf_expansion)
        assert rows(parts.expansion) == rows(parts.lf_expansion)

    def test_coefficients_add_on_shared_bases(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        lf = builtin_model("ishigami", "lf1")
        parts = build_mf_parts(lf, hf, ishigami_range_specs, w=3, q=1)
        correction = dict(zip(map(tuple, parts.correction.terms.tolist()), parts.correction.coeffs))
        lf_exp = parts.lf_expansion
        for phi, lf, c in zip(map(tuple, lf_exp.terms.tolist()), lf_exp.coeffs, parts.expansion.coeffs):
            assert c == pytest.approx(lf + correction.get(phi, 0.0), abs=1e-15)

    def test_evaluation_counts(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        lf = builtin_model("ishigami", "lf1")
        cache = EvalCache(ishigami_range_specs, 3)
        parts = build_mf_parts(lf, hf, ishigami_range_specs, w=3, q=2, cache=cache)
        n = len(ishigami_range_specs)
        assert parts.n_hf == len(smolyak_grid(n, 1, list(ishigami_range_specs)))
        assert parts.n_lf >= len(smolyak_grid(n, 3, list(ishigami_range_specs)))
        assert parts.n_hf == cache.count(hf.id)
        assert parts.n_lf == cache.count(lf.id)

    def test_shared_cache_avoids_repeat_hf_work(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        lf = builtin_model("ishigami", "lf1")
        cache = EvalCache(ishigami_range_specs, 3)
        build_mf_parts(lf, hf, ishigami_range_specs, w=3, q=2, cache=cache)
        first = cache.count(hf.id)
        build_mf_parts(lf, hf, ishigami_range_specs, w=3, q=2, cache=cache)
        assert cache.count(hf.id) == first

    def test_provenances(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        lf = builtin_model("ishigami", "lf3")
        parts = build_mf_parts(lf, hf, ishigami_range_specs, w=2, q=1)
        assert parts.lf_expansion.provenance == "LF"
        assert parts.correction.provenance == "Correction"
        assert parts.expansion.provenance == "Combined"


def projected_difference(lf_model, hf_model, specs, w, q):
    """The MF build with its correction projected from the HF minus LF
    values at the level ``w - q`` nodes, paid on one fresh cache in the
    order LF at ``w``, HF and LF at ``w - q``: the combined coefficients
    and ``(n_hf, n_lf)``."""
    cache = EvalCache(specs, w)
    nodes = lambda level: physical_nodes(smolyak_grid(len(specs), level, specs), specs)  # noqa: E731
    lf_exp = project(cache.evaluate_many(lf_model, nodes(w)), w, specs)
    hf_at_cr = cache.evaluate_many(hf_model, nodes(w - q))
    lf_at_cr = cache.evaluate_many(lf_model, nodes(w - q))
    correction = project(hf_at_cr - lf_at_cr, w - q, specs)
    slot = {tuple(term): k for k, term in enumerate(lf_exp.terms.tolist())}
    coeffs = lf_exp.coeffs.copy()
    for term, c in zip(correction.terms.tolist(), correction.coeffs):
        coeffs[slot[tuple(term)]] += c
    return coeffs, (cache.count(hf_model.id), cache.count(lf_model.id))


class TestSumOfFits:
    """An MF build is ``LF(w) + HF(w - q) - LF(w - q)``: three single-model
    fits, each bit for bit the single-fidelity build of its level."""

    @pytest.mark.parametrize(
        "problem,lf_name,w,q",
        [("ishigami", "lf1", w, q) for w in range(1, 6) for q in (0, 1, 2) if q <= w]
        + [("borehole", "lf", w, 1) for w in range(1, 4)]
        + [("short_column", "lf4", 5, 3)]
        # grid(5) is not within grid(6) in 3-D: the LF cost is the union of
        # both grids, 6,405 nodes against grid(6)'s 6,397.
        + [("ishigami", "lf1", 6, q) for q in (1, 2)],
    )
    def test_mf_build_is_a_sum_of_fits(self, problem, lf_name, w, q):
        specs = tuple(BENCHMARK_SPECS[problem])
        hf, lf = builtin_model(problem, "hf"), builtin_model(problem, lf_name)
        models = {"hf": hf, "lf": lf}
        parts = build_mf_parts(lf, hf, specs, w=w, q=q)

        hf_fit = build_scheme(SchemeSpec("hf", "hf", "hf"), w - q, specs, models).expansion
        lf_scheme = SchemeSpec("lf", "lf", "hf", lf="lf")
        lf_fit = build_scheme(lf_scheme, w - q, specs, models).expansion
        assert parts.hf_expansion.provenance == "HF"
        assert np.array_equal(parts.hf_expansion.terms, hf_fit.terms)
        assert np.array_equal(parts.hf_expansion.coeffs, hf_fit.coeffs)
        lf_at_w = build_scheme(lf_scheme, w, specs, models).expansion
        assert np.array_equal(parts.lf_expansion.coeffs, lf_at_w.coeffs)
        assert np.array_equal(parts.correction.terms, lf_fit.terms)
        assert np.array_equal(parts.correction.coeffs, hf_fit.coeffs - lf_fit.coeffs)

        coeffs, paid = projected_difference(lf, hf, specs, w, q)
        assert np.abs(parts.expansion.coeffs - coeffs).max() <= 1e-12 * np.abs(coeffs).max()
        assert (parts.n_hf, parts.n_lf) == paid


#: Fits whose grid is a proper subset of its ``U_w`` (``w >= 2n``), paid
#: on a cache of a higher level ``W``: ``(specs, W, w)``.
ONE_D = (VariableSpec("u", Uniform(2.0, 6.0)),)
TWO_D = (VariableSpec("u", Uniform(2.0, 6.0)), VariableSpec("g", Normal(-1.0, 0.5)))
HIGHER = [(ONE_D, 9, w) for w in range(2, 9)] + [(TWO_D, 8, w) for w in range(4, 8)]
HIGHER_IDS = [f"{len(specs)}d-w{w}-on-{W}" for specs, W, w in HIGHER]


def hf_fn(X):
    return np.exp(0.3 * X.sum(axis=1)) + np.cos(X).prod(axis=1)


def lf_fn(X):
    return np.exp(0.25 * X.sum(axis=1)) + 0.1 * X[:, 0]


def direct_fit(model, w, specs):
    """The grid's nodes from ``physical_nodes`` and their projection."""
    nodes = physical_nodes(smolyak_grid(len(specs), w, list(specs)), specs)
    return nodes, project(model.batch(nodes), w, specs)


def record_text(model, X) -> str:
    """The cache-file records of ``model`` at the rows of ``X``, in row order."""
    return "".join(
        f"{model.id}\t{' '.join(f'{c:.17g}' for c in xi)}\t{v:.17g}\n" for xi, v in zip(X, model.batch(X))
    )


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestFitOnAHigherLevelCache:
    """A fit reads its values by rank in its cache's ``U_W``, ``W > w``,
    where the grid is a proper subset of ``U_w``: the coefficients, the
    count and the file are those of the grid's own nodes in grid order."""

    @pytest.mark.parametrize("specs, W, w", HIGHER, ids=HIGHER_IDS)
    def test_fit_is_the_projection_of_its_grid(self, tmp_path, specs, W, w):
        model = Model("hf", hf_fn)
        cache = EvalCache(specs, W, tmp_path / "cache.tsv")
        got = fit(model, w, specs, cache, "HF")
        nodes, want = direct_fit(model, w, specs)
        assert len(nodes) < node_space(w, tuple(s.family for s in specs)).ranks.size < cache.size
        assert np.array_equal(got.terms, want.terms) and same_bits(got.coeffs, want.coeffs)
        assert cache.count(model.id) == grid_size(len(specs), w) == len(nodes)
        assert (tmp_path / "cache.tsv").read_text() == record_text(model, nodes)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("specs, W, w", HIGHER, ids=HIGHER_IDS)
    def test_mf_build_is_the_projections_of_its_grids(self, tmp_path, specs, W, w, q):
        """LF at ``w``, then HF and LF at ``w - q``: each fit pays, in grid
        order, the nodes not paid before it."""
        hf, lf = Model("hf", hf_fn), Model("lf", lf_fn)
        cache = EvalCache(specs, W, tmp_path / "cache.tsv")
        parts = build_mf_parts(lf, hf, specs, w, q, cache)
        lf_nodes, lf_fit = direct_fit(lf, w, specs)
        hf_nodes, hf_fit = direct_fit(hf, w - q, specs)
        low_nodes, low_fit = direct_fit(lf, w - q, specs)
        assert same_bits(parts.lf_expansion.coeffs, lf_fit.coeffs)
        assert same_bits(parts.hf_expansion.coeffs, hf_fit.coeffs)
        assert same_bits(parts.correction.coeffs, hf_fit.coeffs - low_fit.coeffs)
        n = len(specs)
        assert (cache.count(hf.id), cache.count(lf.id)) == (grid_size(n, w - q), grid_size(n, w, q))
        assert (parts.n_hf, parts.n_lf) == (grid_size(n, w - q), grid_size(n, w, q))
        paid = set(map(tuple, lf_nodes.tolist()))
        unpaid = low_nodes[[tuple(x) not in paid for x in low_nodes.tolist()]]
        expected = record_text(lf, lf_nodes) + record_text(hf, hf_nodes) + record_text(lf, unpaid)
        assert (tmp_path / "cache.tsv").read_text() == expected

    def test_warm_fit_forms_no_grid_coordinates_and_matches_no_floats(self, tmp_path, monkeypatch):
        """On a warm plan, a fit maps the grid's axis ids onto its cache's
        and ranks them: it neither forms the grid's physical nodes nor
        matches a float, on a fresh cache or on one that holds the values."""
        specs, W, w = TWO_D, 8, 6
        model = Model("hf", hf_fn)
        held = EvalCache(specs, W)
        cold = fit(model, w, specs, held, "HF")

        def refuse(*args, **kwargs):
            raise AssertionError("a fit went through physical coordinates")

        monkeypatch.setattr(sparse_grid, "physical_nodes", refuse)
        monkeypatch.setattr(EvalCache, "_ranks", refuse)
        fresh = EvalCache(specs, W, tmp_path / "cache.tsv")
        for cache in (fresh, held):
            assert same_bits(fit(model, w, specs, cache, "HF").coeffs, cold.coeffs)
        assert fresh.count(model.id) == held.count(model.id) == grid_size(2, w)

    def test_fit_above_the_cache_level_is_refused(self):
        cache = EvalCache(TWO_D, 4)
        with pytest.raises(ValueError, match="not in the grids up to level 4"):
            fit(Model("hf", hf_fn), 5, TWO_D, cache, "HF")
        assert cache.count("hf") == 0

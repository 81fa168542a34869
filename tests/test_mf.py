import numpy as np
import pytest

from mfpce.mf import build_mf_parts, physical_nodes
from mfpce.models import BENCHMARK_SPECS, EvalCache, Model, builtin_model
from mfpce.pce import mean, project, variance
from mfpce.sparse_grid import smolyak_grid


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
        cache = EvalCache()
        parts = build_mf_parts(lf, hf, ishigami_range_specs, w=3, q=2, cache=cache)
        n = len(ishigami_range_specs)
        assert parts.n_hf == len(smolyak_grid(n, 1, list(ishigami_range_specs)))
        assert parts.n_lf >= len(smolyak_grid(n, 3, list(ishigami_range_specs)))
        assert parts.n_hf == cache.count(hf.id)
        assert parts.n_lf == cache.count(lf.id)

    def test_shared_cache_avoids_repeat_hf_work(self, ishigami_range_specs):
        hf = builtin_model("ishigami", "hf")
        lf = builtin_model("ishigami", "lf1")
        cache = EvalCache()
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

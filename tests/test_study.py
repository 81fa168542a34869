import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

from mfpce.config import parse_config
from mfpce.models import BENCHMARK_SPECS, EvalCache, Model, builtin_model
from mfpce.orthopoly import PolyFamily
from mfpce.pce import INNER_BYTES, OUTER_POINTS, evaluate_batch, mean, union, variance
from mfpce.sobol import SobolReport, ZeroVarianceError, all_indices, mc_sobol
from mfpce.sparse_grid import grid_plan
from mfpce.study import (
    ConvergenceRow,
    _prediction_scores,
    SchemeSpec,
    build_scheme,
    decay_report,
    ishigami_analytic,
    prediction_error,
    run_convergence,
    sobol_errors,
    write_convergence_csv,
    write_decay_csv,
)


class TestSimilarity:
    def test_identical_samples(self):
        y = np.array([1.0, 2.0, -3.0, 4.0])
        r2, mare = prediction_error(y, y)
        assert r2 == pytest.approx(1.0)
        assert mare == pytest.approx(0.0)

    def test_affine_relation_has_unit_r2(self):
        y = np.linspace(1.0, 5.0, 20)
        r2, mare = prediction_error(y, 2.0 * y + 1.0)
        assert r2 == pytest.approx(1.0)
        assert mare > 0.0

    def test_hand_computed_mare(self):
        r2, mare = prediction_error([1.0, 2.0], [1.1, 1.8])
        assert mare == pytest.approx(0.5 * (0.1 / 1.0 + 0.2 / 2.0))

    def test_near_zero_references_are_skipped(self):
        y_h = np.array([0.0, 2.0, 4.0])
        y_l = np.array([100.0, 2.2, 4.4])
        _, mare = prediction_error(y_h, y_l)
        assert mare == pytest.approx(0.1)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            prediction_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            prediction_error([1.0], [1.0])

    def test_constant_samples_raise(self):
        with pytest.raises(ZeroVarianceError):
            prediction_error([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_prediction_error_orientation(self):
        y_true = np.array([1.0, 2.0, 4.0])
        y_pred = np.array([1.1, 2.0, 4.0])
        _, mare = prediction_error(y_true, y_pred)
        # relative to the true response, not the prediction
        assert mare == pytest.approx((0.1 / 1.0) / 3.0)


def _sweep(problem, lf, q, levels):
    """The expansions of a converge sweep: HF, LF and MF cells over
    ``levels``, with the problem's HF as the truth."""
    specs = tuple(BENCHMARK_SPECS[problem])
    models = {"hf": builtin_model(problem, "hf"), "lf": builtin_model(problem, lf)}
    schemes = [
        SchemeSpec("hf", "hf", "hf"),
        SchemeSpec("lf", "lf", "hf", lf="lf"),
        SchemeSpec("mf", "mf", "hf", lf="lf", q=q),
    ]
    cells = [build_scheme(s, w, specs, models).expansion for s in schemes for w in levels if w >= s.q]
    return specs, cells


def _points(specs, count, seed=3):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.column_stack([spec.sample(rng, count) for spec in specs])


def _materialised_scores(expansions, X, truths):
    """``prediction_error`` per column of the whole ``(N, E)`` union output."""
    y_pred = evaluate_batch(union(expansions), X)
    return [prediction_error(y, y_pred[:, i]) for i, y in enumerate(truths)]


def _assert_scores_equal(got, want):
    assert len(got) == len(want)
    for (r2, mare), expected in zip(got, want):
        assert (r2, mare) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def ishigami_sweep():
    """The 14 cells of ``configs/ishigami.yaml``: w = 1..5, MF with q = 2."""
    return _sweep("ishigami", "lf1", 2, range(1, 6))


class TestPredictionScores:
    """Validation scores summed block by block out of ``evaluate_batch``
    against ``prediction_error`` on the materialised predictions."""

    # 2 points, fewer than one outer block, and a prime above two blocks.
    @pytest.mark.parametrize("count", [2, 1000, 10_007])
    def test_equals_prediction_error_of_the_union(self, ishigami_sweep, count):
        assert count < OUTER_POINTS or count % OUTER_POINTS
        specs, cells = ishigami_sweep
        X = _points(specs, count)
        truths = [builtin_model("ishigami", "hf").batch(X)] * len(cells)
        _assert_scores_equal(
            _prediction_scores(cells, X, truths), _materialised_scores(cells, X, truths)
        )

    def test_two_truths_in_one_sweep(self, ishigami_sweep):
        specs, cells = ishigami_sweep
        X = _points(specs, 10_007)
        first = builtin_model("ishigami", "hf").batch(X)
        second = builtin_model("ishigami", "lf2").batch(X)
        # Interleaved, so neither truth's columns are one range.
        truths = [first if i % 3 else second for i in range(len(cells))]
        _assert_scores_equal(
            _prediction_scores(cells, X, truths), _materialised_scores(cells, X, truths)
        )

    def test_mare_skips_zero_references_per_column(self, caplog):
        specs, cells = _sweep("short_column", "lf1", 1, range(1, 4))
        X = _points(specs, 10_007)
        # b h^2 Y = 16000 and P / (b h Y) = 1/2: the HF response is 1 - 3/4 - 1/4 = 0.
        zero_rows = [3, 5000, 10_006]
        X[zero_rows] = (8.0, 20.0, 400.0, 3000.0, 5.0)
        truth = builtin_model("short_column", "hf").batch(X)
        assert np.flatnonzero(truth == 0.0).tolist() == zero_rows
        with caplog.at_level(logging.INFO, logger="mfpce.study"):
            got = _prediction_scores(cells, X, [truth] * len(cells))
        skipped = [r for r in caplog.records if "skipped 3 observations" in r.getMessage()]
        assert len(skipped) == len(cells) == len(caplog.records)
        _assert_scores_equal(got, _materialised_scores(cells, X, [truth] * len(cells)))

    def test_memory_holds_no_predictions(self, ishigami_sweep):
        # All 14 columns at 100k points would be 11.2 MB on their own: the
        # bound is one outer block's 1D tables plus a few INNER_BYTES.
        specs, cells = ishigami_sweep
        X = _points(specs, 100_000)
        truths = [builtin_model("ishigami", "hf").batch(X)] * len(cells)
        united = union(cells)
        tables = 8 * OUTER_POINTS * int((united.terms.max(axis=0) + 1).sum())
        del united
        tracemalloc.start()
        try:
            scores = _prediction_scores(cells, X, truths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scores) == 14
        assert tables <= peak < tables + 4 * INNER_BYTES < 8 * len(X) * len(cells)


class TestSobolErrors:
    def _report(self, subsets, totals):
        return SobolReport(
            mean=0.0, variance=1.0, subset_indices=subsets, total_indices=totals
        )

    def test_hand_computed(self):
        a = self._report({(0,): 0.5, (1,): 0.3, (0, 1): 0.2}, (0.7, 0.5))
        b = self._report({(0,): 0.6, (1,): 0.25}, (0.6, 0.4))
        e, e_t = sobol_errors(a, b)
        assert e == pytest.approx(0.1 + 0.05 + 0.2)
        assert e_t == pytest.approx(0.1 + 0.1)

    def test_missing_subsets_read_as_zero(self):
        a = self._report({(0,): 1.0}, (1.0, 0.0))
        b = self._report({(1,): 1.0}, (0.0, 1.0))
        e, e_t = sobol_errors(a, b)
        assert e == pytest.approx(2.0)
        assert e_t == pytest.approx(2.0)

    def test_identity(self):
        a = self._report({(0,): 0.4, (1,): 0.6}, (0.4, 0.6))
        assert sobol_errors(a, a) == (0.0, 0.0)

    def test_dimension_mismatch(self):
        a = self._report({(0,): 1.0}, (1.0,))
        b = self._report({(0,): 1.0}, (1.0, 0.0))
        with pytest.raises(ValueError):
            sobol_errors(a, b)


class TestIshigamiAnalytic:
    def test_partition_sums_to_one(self):
        report = ishigami_analytic(7.0, 0.1)
        assert sum(report.subset_indices.values()) == pytest.approx(1.0, abs=1e-14)

    def test_total_consistency(self):
        report = ishigami_analytic(7.0, 0.1)
        for i in range(3):
            covering = sum(v for s, v in report.subset_indices.items() if i in s)
            assert report.total_indices[i] == pytest.approx(covering, abs=1e-14)

    def test_variance_value(self):
        # D = a^2/8 + b pi^4/5 + b^2 pi^8/18 + 1/2 at (7, 0.1)
        report = ishigami_analytic(7.0, 0.1)
        assert report.variance == pytest.approx(13.844587940719254, rel=1e-12)
        assert report.mean == pytest.approx(3.5)

    def test_no_interaction_when_b_is_zero(self):
        report = ishigami_analytic(7.0, 0.0)
        assert (0, 2) not in report.subset_indices
        assert report.total_indices[2] == 0.0

    def test_matches_monte_carlo(self):
        from mfpce.models import BENCHMARK_SPECS

        report = ishigami_analytic(7.0, 0.1)
        mc = mc_sobol(
            builtin_model("ishigami", "hf"),
            BENCHMARK_SPECS["ishigami"],
            65536,
            seed=2024,
        )
        for i in range(3):
            assert report.first_order(i) == pytest.approx(
                mc.first_order(i), abs=3 * mc.first_order_se[i]
            )
            assert report.total_indices[i] == pytest.approx(
                mc.total_indices[i], abs=3 * mc.total_se[i]
            )


class TestSchemeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeSpec(name="x", kind="bogus", hf="hf")
        with pytest.raises(ValueError):
            SchemeSpec(name="x", kind="mf", hf="hf")  # missing lf
        with pytest.raises(ValueError):
            SchemeSpec(name="x", kind="mf", hf="hf", lf="lf", q=-1)
        with pytest.raises(ValueError):
            SchemeSpec(name="x", kind="mf", hf="hf", lf="lf", rt=0.0)

    def test_labels(self):
        hf = SchemeSpec(name="hf", kind="hf", hf="hf")
        mf = SchemeSpec(name="mf1", kind="mf", hf="hf", lf="lf", q=2)
        assert hf.label(3) == "hf:SG-3"
        assert mf.label(5) == "mf1:SG-3-5"


class TestBuildScheme:
    def test_lf_scheme_counts_lf_evaluations(self, ishigami_range_specs):
        models = {
            "hf": builtin_model("ishigami", "hf"),
            "lf": builtin_model("ishigami", "lf1"),
        }
        scheme = SchemeSpec(name="lf", kind="lf", hf="hf", lf="lf")
        built = build_scheme(scheme, 2, ishigami_range_specs, models)
        assert built.n_hf == 0
        assert built.n_lf > 0
        assert built.lf_expansion is None

    def test_mf_scheme_exposes_parts(self, ishigami_range_specs):
        models = {
            "hf": builtin_model("ishigami", "hf"),
            "lf": builtin_model("ishigami", "lf1"),
        }
        scheme = SchemeSpec(name="mf", kind="mf", hf="hf", lf="lf", q=1)
        built = build_scheme(scheme, 2, ishigami_range_specs, models)
        assert built.expansion.provenance == "Combined"
        assert built.lf_expansion is not None
        assert built.correction is not None
        assert built.n_hf > 0 and built.n_lf > 0

    def test_each_build_reports_what_it_paid(self, ishigami_range_specs):
        """On a shared cache a build counts the evaluations it paid, not the
        cache's running total."""
        models = {
            "hf": builtin_model("ishigami", "hf"),
            "lf": builtin_model("ishigami", "lf1"),
        }
        hf = SchemeSpec(name="hf", kind="hf", hf="hf")
        mf = SchemeSpec(name="mf", kind="mf", hf="hf", lf="lf", q=2)
        cache = EvalCache()
        assert build_scheme(hf, 3, ishigami_range_specs, models, cache).n_hf == 159
        # The 37 nodes of the w=2 grid are among the w=3 grid's 159.
        assert build_scheme(hf, 2, ishigami_range_specs, models, cache).n_hf == 0

        cache = EvalCache()
        first = build_scheme(mf, 3, ishigami_range_specs, models, cache)
        again = build_scheme(mf, 3, ishigami_range_specs, models, cache)
        assert (first.n_hf, first.n_lf) == (7, 159)
        assert (again.n_hf, again.n_lf) == (0, 0)
        assert (cache.count(models["hf"].id), cache.count(models["lf"].id)) == (7, 159)


class TestRunConvergence:
    def test_equals_per_cell_scalar_loop(self):
        """Stacked validation against one scalar ``evaluate_batch`` per
        (scheme, level) cell, scored and counted cell by cell."""
        cfg = parse_config(
            {
                "problem": "ishigami",
                "models": [
                    {"id": "hf", "builtin": "ishigami/hf"},
                    {"id": "lf", "builtin": "ishigami/lf1"},
                ],
                "schemes": [
                    {"name": "hf", "kind": "hf", "hf": "hf"},
                    {"name": "lf", "kind": "lf", "hf": "hf", "lf": "lf"},
                    {"name": "mf", "kind": "mf", "hf": "hf", "lf": "lf", "q": 2, "rt": 0.125},
                ],
                "levels": {"min": 1, "max": 4},
                "reference": {"kind": "analytic", "a": 7.0, "b": 0.1},
                "validation": {"count": 5000, "seed": 11},
            }
        )
        rows = run_convergence(cfg)

        models = cfg.resolved_models()
        reference = ishigami_analytic(7.0, 0.1)
        rng = np.random.Generator(np.random.Philox(key=11))
        X = np.column_stack([s.sample(rng, 5000) for s in cfg.variables])
        y_true = models["hf"].batch(X)
        expected = []
        for scheme in cfg.schemes:
            for w in range(1, 5):
                if scheme.kind == "mf" and w < scheme.q:
                    continue
                built = build_scheme(scheme, w, cfg.variables, models)
                r2, mare = prediction_error(y_true, evaluate_batch(built.expansion, X))
                e, e_t = sobol_errors(all_indices(built.expansion), reference)
                n_e = built.n_lf if scheme.kind == "lf" else built.n_hf
                n_tot = built.n_hf + scheme.rt * built.n_lf if scheme.rt else float(n_e)
                expected.append(
                    ConvergenceRow(
                        scheme=scheme.name,
                        w=w,
                        q=scheme.q,
                        n_hf=built.n_hf,
                        n_lf=built.n_lf,
                        n_e=n_e,
                        n_tot=n_tot,
                        mare=mare,
                        r2=r2,
                        e=e,
                        e_t=e_t,
                        mean=mean(built.expansion),
                        std=math.sqrt(max(variance(built.expansion), 0.0)),
                    )
                )

        assert len(rows) == len(expected) == 11
        for row, want in zip(rows, expected):
            assert abs(row.mare - want.mare) <= 1e-12
            assert abs(row.r2 - want.r2) <= 1e-12
            assert dataclasses.replace(row, mare=want.mare, r2=want.r2) == want

    def test_reference_plan_is_released_before_the_sweep(self):
        """No cell reads the w=3 reference's plan, so the sweep does not
        keep it: asking for it again afterwards assembles it anew."""
        cfg = parse_config(
            {
                "problem": "borehole",
                "models": [{"id": "hf", "builtin": "borehole/hf"}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "hf"}],
                "levels": {"min": 1, "max": 2},
                "reference": {"kind": "pce", "model": "hf", "w": 3},
                "validation": {"count": 100},
            }
        )
        run_convergence(cfg)
        misses = grid_plan.cache_info().misses
        grid_plan(3, (PolyFamily.LEGENDRE,) * 8)
        assert grid_plan.cache_info().misses == misses + 1


class TestDecay:
    def test_sorted_descending_per_spectrum(self, ishigami_range_specs):
        models = {"hf": builtin_model("ishigami", "hf")}
        scheme = SchemeSpec(name="hf", kind="hf", hf="hf")
        built = build_scheme(scheme, 2, ishigami_range_specs, models)
        rows = decay_report([built.expansion])
        mags = [m for _, _, m in rows]
        assert mags == sorted(mags, reverse=True)
        assert [r for _, r, _ in rows] == list(range(1, len(rows) + 1))

    def test_magnitudes_are_orthonormal(self, unit_uniform_specs):
        """f = x1 + 2 x2^2 on U[-1,1]^2: each magnitude past the mean is the
        term's share of the standard deviation, 1/sqrt(3) for x1 and
        (4/3)/sqrt(5) for the degree-2 term of 2 x2^2, not the classical
        Legendre coefficients 1 and 4/3."""
        models = {"f": Model(id="f", fn=lambda X: X[:, 0] + 2 * X[:, 1] ** 2)}
        built = build_scheme(SchemeSpec(name="f", kind="hf", hf="f"), 2, unit_uniform_specs, models)
        mags = [m for _, _, m in decay_report([built.expansion])]
        # The mean 2/3 leads, then 4/(3 sqrt(5)) = 0.596 and 1/sqrt(3) = 0.577.
        assert mags[:3] == pytest.approx([2 / 3, 4 / 3 / math.sqrt(5), 1 / math.sqrt(3)], rel=1e-14)
        assert max(mags[3:]) < 1e-14

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            decay_report([])


class TestCsvWriters:
    def test_decay_csv(self, tmp_path):
        path = tmp_path / "decay.csv"
        write_decay_csv([("HF", 1, 2.5), ("HF", 2, 0.25)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "provenance,rank,abs_coeff"
        assert lines[1] == "HF,1,2.5"

    def test_convergence_csv_header(self, tmp_path):
        path = tmp_path / "conv.csv"
        write_convergence_csv([], path)
        assert path.read_text().splitlines() == [
            "scheme,w,q,n_hf,n_lf,n_e,n_tot,mare,r2,e,e_t,mean,std"
        ]

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mfpce.models import (
    BENCHMARK_SPECS,
    CacheFileError,
    EvalCache,
    Model,
    ModelError,
    ExternalModel,
    borehole_hf,
    borehole_lf,
    builtin_model,
    external_model,
    ishigami_fn,
)

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ishigami_model.py"


class TestBorehole:
    def test_midpoint_value(self):
        # independent transcription of the formula at the domain midpoint
        x = np.array([[0.1, 25050.0, 89650.0, 1050.0, 89.55, 760.0, 1400.0, 10950.0]])
        lnr = math.log(25050.0 / 0.1)
        expected = (2 * math.pi * 89650.0 * (1050.0 - 760.0)) / (
            lnr * (1.0 + 2 * 1400.0 * 89650.0 / (lnr * 0.1**2 * 10950.0) + 89650.0 / 89.55)
        )
        assert borehole_hf(x)[0] == pytest.approx(expected, rel=1e-14)

    def test_lf_uses_different_prefactor_and_offset(self):
        x = np.array([[0.1, 25050.0, 89650.0, 1050.0, 89.55, 760.0, 1400.0, 10950.0]])
        lnr = math.log(25050.0 / 0.1)
        expected = (5.0 * 89650.0 * (1050.0 - 760.0)) / (
            lnr * (1.5 + 2 * 1400.0 * 89650.0 / (lnr * 0.1**2 * 10950.0) + 89650.0 / 89.55)
        )
        assert borehole_lf(x)[0] == pytest.approx(expected, rel=1e-14)

    def test_zero_head_difference(self):
        x = np.array([[0.1, 25050.0, 89650.0, 760.0, 89.55, 760.0, 1400.0, 10950.0]])
        assert borehole_hf(x)[0] == 0.0

    def test_equal_interval_widths_for_heads(self):
        specs = {s.name: s.dist for s in BENCHMARK_SPECS["borehole"]}
        assert specs["H_u"].b - specs["H_u"].a == specs["H_l"].b - specs["H_l"].a

    def test_invalid_radius_ordering(self):
        x = np.array([[10.0, 5.0, 89650.0, 1050.0, 89.55, 760.0, 1400.0, 10950.0]])
        with pytest.raises(ModelError):
            borehole_hf(x)


class TestIshigami:
    def test_hand_values(self):
        X = np.array([[0.0, 0.0, 0.0], [math.pi / 2, 0.0, 0.0], [0.0, math.pi / 2, 0.0]])
        assert ishigami_fn(X) == pytest.approx([0.0, 1.0, 7.0], abs=1e-12)

    def test_quartic_interaction_term(self):
        X = np.array([[math.pi / 2, 0.0, 2.0]])
        assert ishigami_fn(X)[0] == pytest.approx(1.0 + 0.1 * 16.0)

    def test_variant_parameters(self):
        X = np.array([[math.pi / 2, math.pi / 2, 1.0]])
        hf = builtin_model("ishigami", "hf")
        lf2 = builtin_model("ishigami", "lf2")
        lf3 = builtin_model("ishigami", "lf3")
        assert hf(X[0]) == pytest.approx(1.0 + 7.0 + 0.1)
        assert lf2(X[0]) == pytest.approx(1.0 + 7.3 + 0.04)
        assert lf3(X[0]) == pytest.approx(1.0 + 7.3 + 0.04 + 0.02)


class TestShortColumn:
    def test_hand_values(self):
        x = np.array([10.0, 20.0, 500.0, 2000.0, 5.0])
        hf = builtin_model("short_column", "hf")
        # 1 - 4*2000/(10*400*5) - (500/(10*20*5))^2 = 1 - 0.4 - 0.25
        assert hf(x) == pytest.approx(0.35)
        lf1 = builtin_model("short_column", "lf1")
        assert lf1(x) == pytest.approx(1.0 - 4 * 500 / (10 * 400 * 5) - 0.25)
        lf2 = builtin_model("short_column", "lf2")
        assert lf2(x) == pytest.approx(1.0 - 0.4 - (2000 / 1000) ** 2)
        for name, k in (("lf3", 4.0), ("lf4", 0.4), ("lf5", 40.0)):
            lf = builtin_model("short_column", name)
            assert lf(x) == pytest.approx(0.35 - k * (500 - 2000) / 1000)

    def test_division_by_zero_guard(self):
        with pytest.raises(ModelError):
            builtin_model("short_column", "hf")(
                np.array([10.0, 20.0, 500.0, 2000.0, 0.0])
            )


class TestRegistry:
    def test_known_models_resolve(self):
        for problem, fidelities in (
            ("borehole", ("hf", "lf")),
            ("ishigami", ("hf", "lf1", "lf2", "lf3")),
            ("short_column", ("hf", "lf1", "lf2", "lf3", "lf4", "lf5")),
        ):
            for fidelity in fidelities:
                m = builtin_model(problem, fidelity)
                assert m.id == f"{problem}/{fidelity}"
                assert m.fidelity == fidelity

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            builtin_model("ishigami", "lf9")
        with pytest.raises(KeyError):
            builtin_model("rosenbrock", "hf")

    def test_scalar_call_matches_batch(self):
        m = builtin_model("ishigami", "hf")
        x = np.array([0.3, -1.2, 2.0])
        assert m(x) == pytest.approx(float(m.batch(x[None, :])[0]))


class TestExternal:
    @pytest.mark.parametrize("mode", ["oneshot", "stream"])
    def test_matches_builtin(self, mode):
        ext = external_model(f"{sys.executable} {SCRIPT}", mode=mode)
        builtin = builtin_model("ishigami", "hf")
        X = np.array([[0.1, -0.7, 2.3], [math.pi / 3, 0.0, -1.0]])
        assert ext.batch(X) == pytest.approx(builtin.batch(X), abs=1e-9)

    def test_stream_reuses_one_process(self):
        proc = ExternalModel(f"{sys.executable} {SCRIPT}", mode="stream")
        proc.batch(np.zeros((1, 3)))
        child = proc._proc
        proc.batch(np.ones((2, 3)))
        assert proc._proc is child
        proc.close()

    def test_malformed_output(self):
        ext = external_model(f"{sys.executable} -c \"print('bogus')\"")
        with pytest.raises(ModelError, match="malformed"):
            ext.batch(np.zeros((1, 2)))

    def test_non_finite_output(self):
        ext = external_model(f"{sys.executable} -c \"print('nan')\"")
        with pytest.raises(ModelError, match="non-finite"):
            ext.batch(np.zeros((1, 2)))

    def test_failing_command(self):
        ext = external_model(f"{sys.executable} -c \"import sys; sys.exit(3)\"")
        with pytest.raises(ModelError):
            ext.batch(np.zeros((1, 2)))

    def test_stream_closed_output(self):
        ext = external_model(f"{sys.executable} -c pass", mode="stream")
        with pytest.raises(ModelError, match="closed"):
            ext.batch(np.zeros((1, 2)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ExternalModel("true", mode="pipe")


class TestEvalCache:
    def test_counts_distinct_nodes_once(self):
        calls = []

        def fn(X):
            calls.append(len(X))
            return X.sum(axis=1)

        model = Model(id="m", fidelity="hf", fn=fn)
        cache = EvalCache()
        X = np.array([[0.0, 1.0], [2.0, 3.0]])
        first = cache.evaluate_many(model, X)
        second = cache.evaluate_many(model, X)
        assert np.array_equal(first, second)
        assert calls == [2]
        assert cache.count("m") == 2

    def test_near_identical_nodes_merge(self):
        model = Model(id="m", fidelity="hf", fn=lambda X: X.sum(axis=1))
        cache = EvalCache()
        cache.evaluate_many(model, np.array([[0.5, -0.0]]))
        cache.evaluate_many(model, np.array([[0.5 + 1e-15, 0.0]]))
        assert cache.count("m") == 1

    def test_models_are_isolated(self):
        a = Model(id="a", fidelity="hf", fn=lambda X: X.sum(axis=1))
        b = Model(id="b", fidelity="lf1", fn=lambda X: 2 * X.sum(axis=1))
        cache = EvalCache()
        x = np.array([[1.0, 2.0]])
        assert cache.evaluate(a, x[0]) == pytest.approx(3.0)
        assert cache.evaluate(b, x[0]) == pytest.approx(6.0)
        assert cache.count("a") == 1 and cache.count("b") == 1

    def test_reset_counters_keeps_values(self):
        model = Model(id="m", fidelity="hf", fn=lambda X: X.sum(axis=1))
        cache = EvalCache()
        cache.evaluate(model, np.array([1.0, 2.0]))
        cache.reset_counters()
        assert cache.count("m") == 0
        assert cache.evaluate(model, np.array([1.0, 2.0])) == pytest.approx(3.0)
        assert cache.count("m") == 0  # served from the store, not re-counted

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fidelity="hf", fn=lambda X: X.sum(axis=1))
        cache = EvalCache(path)
        X = np.array([[0.125, -4.5], [1e-13, 3.0]])
        values = cache.evaluate_many(model, X)

        reloaded = EvalCache(path)
        calls = []
        probe = Model(
            id="m",
            fidelity="hf",
            fn=lambda Y: calls.append(len(Y)) or Y.sum(axis=1),
        )
        again = reloaded.evaluate_many(probe, X)
        assert np.allclose(again, values)
        assert calls == []

    def test_reopened_cache_pays_nothing(self, tmp_path):
        # 2461.7621578959875 rounds to ...988 in numpy but to ...987 with
        # Python's round(); both paths must key it the same way.
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fidelity="hf", fn=lambda X: X.sum(axis=1))
        X = np.array([[2461.7621578959875, -0.0], [0.1, 1e-13], [-3.25, 7.0]])
        EvalCache(path).evaluate_many(model, X)
        lines = path.read_text().splitlines()
        assert len(lines) == 3

        reloaded = EvalCache(path)
        again = reloaded.evaluate_many(model, X)
        assert reloaded.count("m") == 0
        assert np.array_equal(again, X.sum(axis=1))
        assert path.read_text().splitlines() == lines

    def test_one_append_per_batch(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fidelity="hf", fn=lambda X: X.sum(axis=1))
        cache = EvalCache(path)
        opened = []
        real_open = open
        monkeypatch.setattr(
            "builtins.open", lambda *a, **k: opened.append(a) or real_open(*a, **k)
        )
        cache.evaluate_many(model, np.arange(10.0).reshape(5, 2))
        cache.evaluate_many(model, np.arange(10.0).reshape(5, 2))
        assert len(opened) == 1
        assert len(path.read_text().splitlines()) == 5

    def test_malformed_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("m\t0.5 2\t2.5\n\nm\t1 2\n")
        with pytest.raises(CacheFileError, match=r"cache\.tsv:3: malformed"):
            EvalCache(path)

    def test_persistence_format(self, tmp_path):
        path = tmp_path / "cache.tsv"
        model = Model(id="prob/hf", fidelity="hf", fn=lambda X: X.sum(axis=1))
        EvalCache(path).evaluate(model, np.array([0.5, 2.0]))
        record = path.read_text().strip().split("\t")
        assert record[0] == "prob/hf"
        assert [float(c) for c in record[1].split()] == [0.5, 2.0]
        assert float(record[2]) == 2.5

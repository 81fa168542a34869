import math
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfpce import models
from mfpce.models import (
    BENCHMARK_SPECS,
    SHORT_COLUMN_SPECS,
    CacheFileError,
    EvalCache,
    Model,
    ModelError,
    ExternalModel,
    _cache_keys,
    _usable_cpus,
    borehole_hf,
    borehole_lf,
    builtin_model,
    ishigami_fn,
)
from mfpce.sparse_grid import physical_nodes, smolyak_grid

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ishigami_model.py"

#: A 1-D oneshot model answering ``x`` for ``x <= t`` and failing above it,
#: slowly just above ``t``, so that a later row's failure is seen first.
ONESHOT_ABOVE_T = """import sys, time
x = float(sys.stdin.readline())
if x > {t}:
    if x < {t} + 0.1:
        time.sleep(0.5)
    print("x above {t}", file=sys.stderr)
    sys.exit(1)
print(x)
"""

#: A 1-D stream model answering ``x`` line for line, with ``{fault}`` at
#: the 0-based line ``{k}``.
STREAM_FAULT_AT_K = """import sys
for i, line in enumerate(sys.stdin):
    if i == {k}:
        {fault}
    print(float(line), flush=True)
"""


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
        assert hf.batch(X)[0] == pytest.approx(1.0 + 7.0 + 0.1)
        assert lf2.batch(X)[0] == pytest.approx(1.0 + 7.3 + 0.04)
        assert lf3.batch(X)[0] == pytest.approx(1.0 + 7.3 + 0.04 + 0.02)


class TestShortColumn:
    def test_hand_values(self):
        x = np.array([10.0, 20.0, 500.0, 2000.0, 5.0])
        hf = builtin_model("short_column", "hf")
        # 1 - 4*2000/(10*400*5) - (500/(10*20*5))^2 = 1 - 0.4 - 0.25
        assert hf.batch(x)[0] == pytest.approx(0.35)
        lf1 = builtin_model("short_column", "lf1")
        assert lf1.batch(x)[0] == pytest.approx(1.0 - 4 * 500 / (10 * 400 * 5) - 0.25)
        lf2 = builtin_model("short_column", "lf2")
        assert lf2.batch(x)[0] == pytest.approx(1.0 - 0.4 - (2000 / 1000) ** 2)
        for name, k in (("lf3", 4.0), ("lf4", 0.4), ("lf5", 40.0)):
            lf = builtin_model("short_column", name)
            assert lf.batch(x)[0] == pytest.approx(0.35 - k * (500 - 2000) / 1000)

    def test_division_by_zero_guard(self):
        with pytest.raises(ModelError):
            builtin_model("short_column", "hf").batch(
                np.array([[10.0, 20.0, 500.0, 2000.0, 0.0]])
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

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            builtin_model("ishigami", "lf9")
        with pytest.raises(KeyError):
            builtin_model("rosenbrock", "hf")


class TestExternal:
    @pytest.mark.parametrize(
        "mode, rows", [("oneshot", 16), ("stream", 1000)], ids=["oneshot", "stream"]
    )
    def test_matches_builtin(self, mode, rows):
        """An overlapped batch returns the builtin values in row order."""
        X = np.random.default_rng(11).uniform(-math.pi, math.pi, size=(rows, 3))
        ext = ExternalModel(f"{sys.executable} {SCRIPT}", mode=mode)
        got = ext.batch(X)
        ext.close()
        assert got == pytest.approx(builtin_model("ishigami", "hf").batch(X), rel=1e-12, abs=1e-12)

    def test_stream_reuses_one_process(self):
        proc = ExternalModel(f"{sys.executable} {SCRIPT}", mode="stream")
        proc.batch(np.zeros((1, 3)))
        child = proc._proc
        proc.batch(np.ones((2, 3)))
        assert proc._proc is child
        proc.close()

    def test_malformed_output(self):
        ext = ExternalModel(f"{sys.executable} -c \"print('bogus')\"")
        with pytest.raises(ModelError, match="malformed"):
            ext.batch(np.zeros((1, 2)))

    def test_non_finite_output(self):
        ext = ExternalModel(f"{sys.executable} -c \"print('nan')\"")
        with pytest.raises(ModelError, match="non-finite"):
            ext.batch(np.zeros((1, 2)))

    def test_failing_command(self):
        ext = ExternalModel(f"{sys.executable} -c \"import sys; sys.exit(3)\"")
        with pytest.raises(ModelError):
            ext.batch(np.zeros((1, 2)))

    def test_stream_closed_output(self):
        ext = ExternalModel(f"{sys.executable} -c pass", mode="stream")
        with pytest.raises(ModelError, match="closed"):
            ext.batch(np.zeros((1, 2)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ExternalModel("true", mode="pipe")

    def test_failure_quotes_child_stderr(self):
        ext = ExternalModel(
            f"{sys.executable} -c \"import sys; print('boom', file=sys.stderr); sys.exit(1)\""
        )
        with pytest.raises(ModelError, match=r"at node \(0\.5, 2\.0\).*exit status 1.*boom"):
            ext.batch(np.array([[0.5, 2.0]]))


class TestOverlappedFaults:
    """Faults in the middle of an overlapped batch end in a ModelError for the
    right row, quickly, with no child of the batch left running."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_oneshot_keeps_cpus_children_in_flight(self, tmp_path, monkeypatch, spawned, cpus):
        monkeypatch.setattr(models, "_usable_cpus", lambda: cpus)
        popen, in_flight = subprocess.Popen, []

        def start(*args, **kwargs):
            in_flight.append(sum(child.poll() is None for child in spawned))
            return popen(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", start)
        script = tmp_path / "model.py"
        # Each child reads its row first. Row 1 answers after about 1 s and
        # the others at once, so that child 1 is still running when row 2
        # is spawned, however loaded the host.
        script.write_text("import time\nx = float(input())\nif x == 1.0:\n    time.sleep(1.0)\nprint(x)\n")
        X = np.arange(3.0)[:, None]
        assert ExternalModel(f"{sys.executable} {script}").batch(X).tolist() == X[:, 0].tolist()
        assert in_flight == [min(row, cpus - 1) for row in range(3)]

    def test_oneshot_raises_the_first_failing_row(self, tmp_path, spawned):
        script = tmp_path / "model.py"
        script.write_text(ONESHOT_ABOVE_T.format(t=0.5))
        X = np.linspace(0.0, 1.0, 12)[:, None]
        k = int(np.argmax(X[:, 0] > 0.5))
        start = time.monotonic()
        with pytest.raises(ModelError) as info:
            ExternalModel(f"{sys.executable} {script}").batch(X)
        assert time.monotonic() - start < 5
        assert f"at node {(float(X[k, 0]),)}" in str(info.value)
        assert "x above 0.5" in str(info.value)
        assert k < len(spawned) <= k + _usable_cpus()
        assert all(child.poll() is not None for child in spawned)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("print('garbage', flush=True)", "malformed response 'garbage'"),
            ("break", "closed its output"),
        ],
        ids=["garbage", "exit"],
    )
    def test_stream_raises_row_k_and_kills_the_child(self, tmp_path, spawned, fault, message):
        k = 613
        script = tmp_path / "model.py"
        script.write_text(STREAM_FAULT_AT_K.format(k=k, fault=fault))
        X = np.linspace(-1.0, 1.0, 1000)[:, None]
        proc = ExternalModel(f"{sys.executable} {script}", mode="stream")
        start = time.monotonic()
        with pytest.raises(ModelError, match=message) as info:
            proc.batch(X)
        assert time.monotonic() - start < 5
        assert f"at node {(float(X[k, 0]),)}" in str(info.value)
        assert proc._proc is None
        assert len(spawned) == 1 and spawned[0].poll() is not None
        assert proc.batch(X[:3]) == pytest.approx(X[:3, 0])  # a fresh child
        assert len(spawned) == 2
        proc.close()
        assert spawned[1].poll() is not None

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("print('garbage', flush=True)", "malformed response 'garbage'"),
            ("break", "closed its output"),
        ],
        ids=["garbage", "exit"],
    )
    def test_stream_failure_quotes_child_stderr(self, tmp_path, fault, message):
        script = tmp_path / "model.py"
        fault = f"print('bad line', i, file=sys.stderr); {fault}"
        script.write_text(STREAM_FAULT_AT_K.format(k=2, fault=fault))
        proc = ExternalModel(f"{sys.executable} {script}", mode="stream")
        with pytest.raises(ModelError, match=f"{message}.*; stderr: bad line 2$"):
            proc.batch(np.arange(5.0)[:, None])

    def test_stream_batch_with_megabytes_of_stderr_completes(self, tmp_path, spawned):
        """Stderr is drained as the replies are read, so a child that
        writes 2 MiB of it while answering does not stall the batch."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n"
            "    sys.stderr.write('e' * 4095 + '\\n')\n    print(float(line), flush=True)\n"
        )
        proc = ExternalModel(f"{sys.executable} {script}", mode="stream")
        X = np.arange(512.0)[:, None]
        start = time.monotonic()
        assert proc.batch(X).tolist() == X[:, 0].tolist()
        assert time.monotonic() - start < 5
        proc.close()
        assert spawned[0].poll() is not None

    def test_close_drains_a_child_writing_stderr_at_exit(self, tmp_path, spawned):
        """A stream child that writes 1 MiB to stderr once its input closes
        exits within the wait, as close() reads its output meanwhile."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n    print(float(line), flush=True)\n"
            "sys.stderr.write('x' * 2**20)\n"
        )
        proc = ExternalModel(f"{sys.executable} {script}", mode="stream")
        proc.batch(np.zeros((3, 1)))
        start = time.monotonic()
        proc.close()
        assert time.monotonic() - start < 2
        assert proc._proc is None
        assert len(spawned) == 1 and spawned[0].returncode == 0

    @pytest.mark.parametrize("mode", ["oneshot", "stream"])
    @pytest.mark.parametrize(
        "tail, message",
        [
            ("\\n\\n", None),
            ("extra\\n", "malformed response 'extra'"),
            ("\\n7\\n", "malformed response '7'"),
        ],
        ids=["blank", "extra", "number"],
    )
    def test_lines_after_the_last_reply(self, tmp_path, spawned, mode, tail, message):
        """After the last reply of a batch, blank lines are ignored and any
        other line is malformed, in both modes."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n"
            f"    sys.stdout.write(str(float(line)) + '\\n' + '{tail}')\n"
            "    sys.stdout.flush()\n"
        )
        proc = ExternalModel(f"{sys.executable} {script}", mode=mode)
        X = np.array([[0.5]])
        if message is None:
            assert proc.batch(X).tolist() == [0.5]
        else:
            with pytest.raises(ModelError, match=message + r" .*at node \(0\.5,\)"):
                proc.batch(X)
        proc.close()
        assert all(child.poll() is not None for child in spawned)

    @pytest.mark.parametrize("mode", ["oneshot", "stream"])
    def test_blank_line_before_a_reply_is_malformed(self, tmp_path, spawned, mode):
        """A blank line answers its row, as a malformed response, and does
        not shift the later replies."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n    print('\\n' + line.strip(), flush=True)\n"
        )
        proc = ExternalModel(f"{sys.executable} {script}", mode=mode)
        with pytest.raises(ModelError, match=r"malformed response '' .*at node \(0\.5,\)"):
            proc.batch(np.array([[0.5], [1.5]]))
        assert all(child.poll() is not None for child in spawned)

    def test_late_line_before_the_next_batch_is_malformed(self, tmp_path, spawned):
        """A stream child that answers ``x`` and, 50 ms later, ``x + 100``
        has its late line found before the next batch's first request,
        not read as that batch's first reply; the next batch starts a
        fresh child."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys, time\nfor line in sys.stdin:\n    x = float(line)\n"
            "    print(x, flush=True)\n    time.sleep(0.05)\n    print(x + 100, flush=True)\n"
        )
        proc = ExternalModel(f"{sys.executable} {script}", mode="stream")
        assert proc.batch(np.array([[1.0]])).tolist() == [1.0]
        time.sleep(0.2)
        message = rf"malformed response '101\.0' from external model '.*model\.py' after the last reply"
        with pytest.raises(ModelError, match=message):
            proc.batch(np.array([[2.0], [3.0]]))
        assert proc._proc is None
        assert len(spawned) == 1 and spawned[0].poll() is not None
        assert proc.batch(np.array([[4.0]])).tolist() == [4.0]
        proc.close()
        assert len(spawned) == 2 and spawned[1].poll() is not None


def tuple_keys(X):
    """Cache keys as tuples of Python floats, the representation the array
    keys replaced. Two such tuples are equal exactly when their floats are
    bit-identical, except that -0.0 equals 0.0."""
    return list(map(tuple, X.tolist()))


class TupleDictCache:
    """The tuple-dict cache algorithm, written out as the reference for
    :class:`EvalCache`: one dict from ``(model id, key tuple)`` to value,
    loaded from the file with the last record of a key winning, and a
    batch that pays for each missing key at its first row, in row order,
    with one append per batch."""

    def __init__(self, path):
        self.store, self.counters, self.path = {}, {}, path
        if path.exists():
            for line in path.read_text().splitlines():
                model_id, coords, value = line.split("\t")
                xi = np.array([[float(c) for c in coords.split()]])
                self.store[(model_id, tuple_keys(xi)[0])] = float(value)

    def evaluate_many(self, model, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        keys = [(model.id, k) for k in tuple_keys(X)]
        first = {}
        for i, k in enumerate(keys):
            if k not in self.store:
                first.setdefault(k, i)
        missing = list(first.values())
        if missing:
            new = X[missing]
            fresh = [float(v) for v in model.batch(new)]
            self.store.update(zip((keys[i] for i in missing), fresh))
            with open(self.path, "a") as fh:
                fh.write(
                    "".join(
                        f"{model.id}\t{' '.join(f'{c:.17g}' for c in xi)}\t{v:.17g}\n"
                        for xi, v in zip(new, fresh)
                    )
                )
            self.counters[model.id] = self.counters.get(model.id, 0) + len(missing)
        return np.array([self.store[k] for k in keys])


#: Coordinates that stress the keys: a signed zero, values 1e-14 and 1e-13
#: apart, a subnormal, and magnitudes of 2**52 and more.
KEY_EDGES = [0.0, -0.0, 0.5, 0.5 + 1e-14, 1e-13, 2e-13, -3.25, 5e-324,
             2.0**52, -(2.0**52) - 2, 2.0**53 + 2, 1e300, -1e300]
coordinates = st.sampled_from(KEY_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
cache_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("eval"),
            st.sampled_from(["a", "b"]),
            st.integers(1, 2).flatmap(
                lambda d: st.lists(
                    st.lists(coordinates, min_size=d, max_size=d), min_size=1, max_size=8
                )
            ),
        ),
        st.tuples(st.just("reload"), st.none(), st.none()),
        st.tuples(
            st.just("inject"),
            st.sampled_from(["a", "b"]),
            st.tuples(st.lists(coordinates, min_size=1, max_size=2), st.floats(-10, 10)),
        ),
    ),
    min_size=1,
    max_size=8,
)


class TestEvalCache:
    def test_counts_distinct_nodes_once(self):
        calls = []

        def fn(X):
            calls.append(len(X))
            return X.sum(axis=1)

        model = Model(id="m", fn=fn)
        cache = EvalCache()
        X = np.array([[0.0, 1.0], [2.0, 3.0]])
        first = cache.evaluate_many(model, X)
        second = cache.evaluate_many(model, X)
        assert np.array_equal(first, second)
        assert calls == [2]
        assert cache.count("m") == 2

    def test_reference_batch_memory(self):
        """A fresh cache on the borehole w=5 reference: 54,673 distinct nodes,
        3.5 MB of coordinates, all paid. ``np.unique``'s copies, a gathered
        copy of ``X`` and an ``np.insert`` into the empty store would peak
        near 18 MB."""
        specs = BENCHMARK_SPECS["borehole"]
        X = physical_nodes(smolyak_grid(8, 5, specs), specs)
        model = builtin_model("borehole", "hf")
        tracemalloc.start()
        try:
            cache = EvalCache()
            values = cache.evaluate_many(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache.count(model.id) == len(X) == 54_673
        assert np.array_equal(values, model.batch(X))
        assert peak < 11e6

    def test_duplicate_rows_in_one_batch_are_paid_once(self, tmp_path):
        path = tmp_path / "cache.tsv"
        calls = []

        def fn(X):
            calls.append(X.copy())
            return X.sum(axis=1)

        model = Model(id="m", fn=fn)
        cache = EvalCache(path)
        values = cache.evaluate_many(model, [[1, 2], [1, 2], [1 + 1e-14, 2], [1, 2]])
        assert len(calls) == 1
        assert np.array_equal(calls[0], [[1.0, 2.0], [1 + 1e-14, 2.0]])
        assert cache.count("m") == 2
        assert np.array_equal(values, [3.0, 3.0, (1 + 1e-14) + 2, 3.0])
        assert len(path.read_text().splitlines()) == 2

    def test_near_identical_nodes_merge(self):
        """Nodes that differ only in the sign of a zero merge; a coordinate
        1e-15 away is a node of its own."""
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        cache = EvalCache()
        cache.evaluate_many(model, np.array([[0.5, -0.0]]))
        cache.evaluate_many(model, np.array([[0.5, 0.0]]))
        assert cache.count("m") == 1
        cache.evaluate_many(model, np.array([[0.5 + 1e-15, 0.0]]))
        assert cache.count("m") == 2

    def test_nodes_1e_13_apart_are_paid_apart(self):
        calls = []
        model = Model(id="m", fn=lambda X: calls.append(len(X)) or X[:, 0] * 1e13)
        cache = EvalCache()
        values = cache.evaluate_many(model, [[1e-13], [2e-13], [3e-13]])
        assert calls == [3] and cache.count("m") == 3
        assert values.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "a, b, keys",
        [
            (-0.0, 0.0, 1),
            (0.5, 0.5 + 1e-14, 2),
            (5e-324, 0.0, 2),
            (2.0**53 + 2, -(2.0**53 + 2), 2),
            (1e300, -1e300, 2),
        ],
        ids=["signed_zero", "1e-14_apart", "subnormal", "two_to_the_53_plus_2", "1e300"],
    )
    def test_exact_key_edges(self, a, b, keys):
        """Two coordinates are one node only when their bits are equal, or
        they are the two zeros."""
        model = Model(id="m", fn=lambda X: X[:, 0])
        cache = EvalCache()
        values = cache.evaluate_many(model, [[a], [b], [a]])
        assert cache.count("m") == keys
        assert values.tolist() == ([a, b, a] if keys == 2 else [a, a, a])
        assert len(np.unique(_cache_keys(np.array([[a], [b]])))) == keys

    def test_persisted_grid_nodes_are_found_by_a_fresh_cache(self, tmp_path):
        """The ``%.17g`` records reproduce the bits of a grid's physical
        nodes: a fresh cache on the file pays nothing for them."""
        specs = SHORT_COLUMN_SPECS
        nodes = lambda: physical_nodes(smolyak_grid(len(specs), 3, specs), specs)
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        written = EvalCache(path)
        values = written.evaluate_many(model, nodes())
        assert written.count("m") == len(nodes())
        fresh = EvalCache(path)
        assert fresh.evaluate_many(model, nodes()).tolist() == values.tolist()
        assert fresh.count("m") == 0

    def test_models_are_isolated(self):
        a = Model(id="a", fn=lambda X: X.sum(axis=1))
        b = Model(id="b", fn=lambda X: 2 * X.sum(axis=1))
        cache = EvalCache()
        x = np.array([[1.0, 2.0]])
        assert cache.evaluate_many(a, x).tolist() == pytest.approx([3.0])
        assert cache.evaluate_many(b, x).tolist() == pytest.approx([6.0])
        assert cache.count("a") == 1 and cache.count("b") == 1

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        cache = EvalCache(path)
        X = np.array([[0.125, -4.5], [1e-13, 3.0]])
        values = cache.evaluate_many(model, X)

        reloaded = EvalCache(path)
        calls = []
        probe = Model(id="m", fn=lambda Y: calls.append(len(Y)) or Y.sum(axis=1))
        again = reloaded.evaluate_many(probe, X)
        assert np.allclose(again, values)
        assert calls == []

    def test_reopened_cache_pays_nothing(self, tmp_path):
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        X = np.array([[2461.7621578959875, -0.0], [0.1, 1e-13], [-3.25, 7.0]])
        EvalCache(path).evaluate_many(model, X)
        lines = path.read_text().splitlines()
        assert len(lines) == 3

        reloaded = EvalCache(path)
        again = reloaded.evaluate_many(model, X)
        assert reloaded.count("m") == 0
        assert np.array_equal(again, X.sum(axis=1))
        assert path.read_text().splitlines() == lines

    @pytest.mark.parametrize(
        "cut", ["m\t1 2\t3", "m\t1 2", "m\t"], ids=["parses", "no_value", "no_coords"]
    )
    def test_unterminated_last_line_is_dropped_and_cut(self, tmp_path, caplog, cut):
        """A last line with no newline, parsed or not, is not served: it is
        dropped with one warning naming the file and cut from the file, so
        that the next record starts a line of its own."""
        path = tmp_path / "cache.tsv"
        path.write_text("m\t0 0\t1.5\n" + cut)
        cache = EvalCache(path)
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and str(path) in warnings[0].getMessage()
        assert path.read_text() == "m\t0 0\t1.5\n"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        assert cache.evaluate_many(model, [[0.0, 0.0], [1.0, 2.0]]).tolist() == [1.5, 3.0]
        assert cache.count("m") == 1
        assert path.read_text() == "m\t0 0\t1.5\nm\t1 2\t3\n"
        again = EvalCache(path)
        assert again.evaluate_many(model, [[0.0, 0.0], [1.0, 2.0]]).tolist() == [1.5, 3.0]
        assert again.count("m") == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_written_rows_are_found_on_reload(self, rows):
        """Any finite row written by ``_append_records`` and read back by
        ``_load`` has the key ``evaluate_many`` computes for it fresh, so a
        reopened cache pays for none of them."""
        X = np.array(rows, dtype=float)
        values = np.arange(len(X), dtype=float)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.tsv"
            EvalCache(path)._append_records("m", X, values)
            reloaded = EvalCache(path)

            def unpaid(Y):
                raise AssertionError(f"re-evaluated {Y!r}")

            got = reloaded.evaluate_many(Model(id="m", fn=unpaid), X)
        assert reloaded.count("m") == 0
        keys = [k.tobytes() for k in _cache_keys(X)]
        last = dict(zip(keys, values))
        assert got.tolist() == [last[k] for k in keys]

    def test_huge_coordinates_are_keyed_apart(self):
        calls = []
        model = Model(id="m", fn=lambda X: calls.append(len(X)) or X[:, 0])
        cache = EvalCache()
        values = cache.evaluate_many(model, [[1e300], [2e300], [-2.0**52 - 2]])
        assert calls == [3] and cache.count("m") == 3
        assert values.tolist() == [1e300, 2e300, -2.0**52 - 2]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_keys_are_the_bits_of_each_row(self, coords):
        """A key is the float64 bytes of its row, with -0.0 as 0.0."""
        X = np.array([coords, [-0.0] * len(coords)])
        keys = _cache_keys(X)
        assert keys.shape == (2,) and keys.dtype.itemsize == 8 * len(coords)
        assert keys[0].tobytes() == np.array([c + 0.0 for c in coords]).tobytes()
        assert keys[1].tobytes() == bytes(8 * len(coords))

    @settings(max_examples=100, deadline=None)
    @example(
        [
            ("eval", "a", [[0.5, -0.0], [0.5 + 1e-14, 0.0], [2.0**53 + 2, 1.0], [0.5, -0.0]]),
            ("eval", "b", [[0.5], [1e300], [-(2.0**52) - 2], [1e300]]),
            ("inject", "a", ([0.5, 0.0], 7.0)),
            ("reload", None, None),
            ("eval", "a", [[0.5, 0.0], [2.0**53 + 2, 1.0], [-3.25, 1e-13]]),
            ("eval", "b", [[0.5], [2461.7621578959875], [1e300]]),
        ]
    )
    @given(cache_ops)
    def test_array_store_equals_tuple_dict_cache(self, ops):
        """Values, counts, the rows each model is asked for, in order, and
        the appended bytes all equal those of :class:`TupleDictCache`, over
        duplicate rows, signed zeros, rows 1e-14 apart, subnormal and huge
        coordinates, two model ids, two dimensions, records appended from
        outside and reloads."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = Path(tmp) / "array.tsv", Path(tmp) / "tuple.tsv"
            caches = EvalCache(paths[0]), TupleDictCache(paths[1])
            calls = {}

            def model(impl, model_id):
                offset = {"a": 0.0, "b": 0.25}[model_id]

                def fn(X):
                    calls.setdefault((impl, model_id), []).append(X.copy())
                    return np.cos(X).sum(axis=1) + X.shape[1] + offset

                return Model(id=model_id, fn=fn)

            for op, model_id, arg in ops:
                if op == "eval":
                    got = [c.evaluate_many(model(i, model_id), arg) for i, c in enumerate(caches)]
                    assert got[0].dtype == got[1].dtype and got[0].tobytes() == got[1].tobytes()
                elif op == "reload":
                    caches = EvalCache(paths[0]), TupleDictCache(paths[1])
                else:
                    row, value = arg
                    record = f"{model_id}\t{' '.join(f'{c:.17g}' for c in row)}\t{value:.17g}\n"
                    for path in paths:
                        with open(path, "a") as fh:
                            fh.write(record)
                for model_id in "ab":
                    assert caches[0].count(model_id) == caches[1].counters.get(model_id, 0)
                    asked = calls.get((0, model_id), []), calls.get((1, model_id), [])
                    assert [(x.shape, x.tobytes()) for x in asked[0]] == [
                        (y.shape, y.tobytes()) for y in asked[1]
                    ]
                written = [p.read_bytes() if p.exists() else b"" for p in paths]
                assert written[0] == written[1]

    def test_one_append_per_batch(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
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

    def test_record_without_coordinates_is_malformed(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("m\t0.5 2\t2.5\nm\t\t1.0\n")
        with pytest.raises(CacheFileError, match=r"cache\.tsv:2: malformed"):
            EvalCache(path)

    def test_persistence_format(self, tmp_path):
        path = tmp_path / "cache.tsv"
        model = Model(id="prob/hf", fn=lambda X: X.sum(axis=1))
        EvalCache(path).evaluate_many(model, np.array([[0.5, 2.0]]))
        record = path.read_text().strip().split("\t")
        assert record[0] == "prob/hf"
        assert [float(c) for c in record[1].split()] == [0.5, 2.0]
        assert float(record[2]) == 2.5

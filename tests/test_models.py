import contextlib
import math
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfpce import models, sparse_grid
from mfpce.models import (
    BENCHMARK_SPECS,
    SHORT_COLUMN_SPECS,
    CacheFileError,
    EvalCache,
    Model,
    ModelError,
    ExternalModel,
    _Records,
    _usable_cpus,
    borehole_hf,
    borehole_lf,
    builtin_model,
    ishigami_fn,
)
from mfpce.mf import fit
from mfpce.orthopoly import Normal, Uniform, VariableSpec
from mfpce.sparse_grid import grid_plan, physical_nodes, smolyak_grid, tensor_grid

#: One variable whose centre, the one node of the level-0 grid, is 1.0.
LINE = (VariableSpec("x", Uniform(0.0, 2.0)),)
#: Two variables whose centre is (1.0, 0.0).
PLANE = (VariableSpec("x", Uniform(0.0, 2.0)), VariableSpec("y", Uniform(-1.0, 1.0)))


def grid_nodes(specs, w):
    """The physical nodes of the level-``w`` Smolyak grid of ``specs``."""
    return physical_nodes(smolyak_grid(len(specs), w, list(specs)), specs)


def union_nodes(specs, w):
    """The distinct nodes of the grids of levels ``0..w``: ``U_w``, sorted."""
    return np.unique(np.vstack([grid_nodes(specs, level) for level in range(w + 1)]), axis=0)


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


#: A 1-D model answering ``x * x``. In oneshot mode, row 0's child waits
#: until the children of the other ``{rows} - 1`` rows have answered.
ANSWER_SQUARE_AFTER_THE_OTHERS = """import os, sys, time
for line in sys.stdin:
    x = float(line)
    deadline = time.monotonic() + 10
    while {oneshot} and x == 0.0 and len(os.listdir({done!r})) < {rows} - 1:
        if time.monotonic() > deadline:
            sys.exit("the other rows did not answer")
        time.sleep(0.01)
    print(repr(x * x), flush=True)
    if {oneshot}:
        open(os.path.join({done!r}, line.strip()), "w").close()
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
        node = "(10.0, 5.0, 89650.0, 1050.0, 89.55, 760.0, 1400.0, 10950.0)"
        with pytest.raises(ModelError, match=re.escape(f"r_a > r_w, got node {node}")):
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
        node = "(10.0, 20.0, 500.0, 2000.0, 0.0)"
        with pytest.raises(ModelError, match=re.escape(f"division by zero at node {node}")):
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


class TestBatchContract:
    def test_builtin_batch_reports_every_row_once(self):
        """``Model.batch`` takes ``on_answered`` as ``ExternalModel.batch``
        does, and reports all of its rows at once."""
        X = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5]])
        reports = []
        model = builtin_model("ishigami", "hf")
        values = model.batch(X, on_answered=lambda v, stop: reports.append((v.copy(), stop)))
        assert np.array_equal(values, ishigami_fn(X))
        assert len(reports) == 1 and np.array_equal(reports[0][0], values)
        assert reports[0][1] == len(X)

    @pytest.mark.parametrize(
        "fn, shape",
        [(lambda X: X, "(3, 2)"), (lambda X: X[1:, 0], "(2,)"), (lambda X: 1.0, "()")],
        ids=["rows", "short", "scalar"],
    )
    def test_wrong_shape_is_refused_before_any_record(self, tmp_path, fn, shape):
        """A model returning anything but one value per row raises
        :class:`ModelError`, reports nothing and leaves no cache record."""
        X = grid_nodes(PLANE, 1)[:3]
        model, reports = Model(id="m", fn=fn), []
        message = f"model 'm' returned shape {shape} for 3 nodes"
        with pytest.raises(ModelError, match=re.escape(message)):
            model.batch(X, on_answered=lambda v, stop: reports.append(stop))
        assert reports == []
        cache = EvalCache(PLANE, 1, tmp_path / "cache.tsv")
        with pytest.raises(ModelError, match=re.escape(message)):
            cache.evaluate_many(model, X)
        assert not (tmp_path / "cache.tsv").exists() and cache.count("m") == 0


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused_before_any_record(self, tmp_path, bad):
        """A builtin that makes a nan or an inf raises :class:`ModelError`
        naming its first such node, with no numpy warning, reports nothing
        and leaves no cache record."""
        X = grid_nodes(PLANE, 1)
        X = X[X[:, 1] == 0.0][[1, 0, 2]]  # (1.0, 0.0), the centre, first
        model, reports = Model(id="m", fn=lambda X: X[:, 0] / X[:, 1] * bad), []
        message = f"non-finite output {bad!r} from model 'm' at node (1.0, 0.0)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=re.escape(message)):
                model.batch(X, on_answered=lambda v, stop: reports.append(stop))
            assert reports == []
            cache = EvalCache(PLANE, 1, tmp_path / "cache.tsv")
            with pytest.raises(ModelError, match=re.escape(message)):
                cache.evaluate_many(model, X)
        assert not (tmp_path / "cache.tsv").exists() and cache.count("m") == 0


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

    def test_each_stream_batch_reaps_its_own_child(self, spawned):
        """Each stream batch starts one child, and the child has exited with
        status 0 when the batch returns, with no close() called."""
        proc = ExternalModel(f"{sys.executable} {SCRIPT}", mode="stream")
        for batch, X in enumerate([np.zeros((1, 3)), np.ones((2, 3))], start=1):
            assert proc.batch(X) == pytest.approx(builtin_model("ishigami", "hf").batch(X))
            assert len(spawned) == batch and spawned[-1].returncode == 0

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
        assert len(spawned) == 1 and spawned[0].poll() is not None
        assert proc.batch(X[:3]) == pytest.approx(X[:3, 0])  # a fresh child
        assert len(spawned) == 2 and spawned[1].returncode == 0

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

    def test_batch_drains_a_child_writing_stderr_at_exit(self, tmp_path, spawned):
        """A stream child that writes 1 MiB to stderr once its input closes
        exits at once, as the batch reads its stderr while it ends: the
        batch returns within 2 s, with the child reaped."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n    print(float(line), flush=True)\n"
            "sys.stderr.write('x' * 2**20)\n"
        )
        proc = ExternalModel(f"{sys.executable} {script}", mode="stream")
        start = time.monotonic()
        assert proc.batch(np.zeros((3, 1))).tolist() == [0.0] * 3
        assert time.monotonic() - start < 2
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

    def test_late_line_fails_its_own_batch(self, tmp_path, spawned):
        """A stream child that answers ``x`` and, 50 ms later, ``x + 100``
        fails the batch: its output is read to its end, where the late
        line is malformed, and no record is kept. In the next batch, of two
        rows and with a fresh child, the first late line takes the place of
        row 1's reply, and the batch fails at the line past its last row."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys, time\nfor line in sys.stdin:\n    x = float(line)\n"
            "    print(x, flush=True)\n    time.sleep(0.05)\n    print(x + 100, flush=True)\n"
        )
        proc = ExternalModel(f"{sys.executable} {script}", mode="stream", id="m")
        cache = EvalCache(LINE, 0, tmp_path / "cache.tsv")
        with pytest.raises(ModelError, match=r"malformed response '101\.0' .*at node \(1\.0,\)"):
            cache.evaluate_many(proc, np.array([[1.0]]))
        assert len(spawned) == 1 and spawned[0].poll() is not None
        with pytest.raises(ModelError, match=r"malformed response '3\.0' .*at node \(3\.0,\)"):
            proc.batch(np.array([[2.0], [3.0]]))
        assert len(spawned) == 2 and spawned[1].poll() is not None
        assert not (tmp_path / "cache.tsv").exists() and cache.count("m") == 0

    @pytest.mark.parametrize("mode", ["oneshot", "stream"])
    def test_exit_status_1_after_the_last_reply_fails_the_batch(self, tmp_path, spawned, mode):
        """A child that answers every row and then exits 1 fails its batch,
        quoting its stderr, and leaves no cache record."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n    print(float(line), flush=True)\n"
            "sys.exit('exit after the replies')\n"
        )
        proc = ExternalModel(f"{sys.executable} {script}", mode=mode, id="m")
        message = r"at node \(1\.0,\): exit status 1; stderr: exit after the replies$"
        with pytest.raises(ModelError, match=message):
            EvalCache(LINE, 0, tmp_path / "cache.tsv").evaluate_many(proc, np.array([[1.0]]))
        assert not (tmp_path / "cache.tsv").exists()
        assert spawned and all(child.poll() is not None for child in spawned)

    @pytest.mark.parametrize("mode", ["oneshot", "stream"])
    @pytest.mark.parametrize(
        "linger", ["time.sleep(60)", "os.close(1); os.close(2); time.sleep(60)"],
        ids=["output_open", "output_closed"],
    )
    def test_lingering_child_is_killed_and_its_replies_stand(
        self, tmp_path, monkeypatch, spawned, mode, linger
    ):
        """A child that answers every row and then does not exit, its output
        open or closed, is killed once the linger bound has passed (0.2 s
        here, 10 s as shipped), and its values are returned and kept on
        file."""
        monkeypatch.setattr(models, "_LINGER_S", 0.2)
        script = tmp_path / "model.py"
        script.write_text(
            "import os, sys, time\nfor line in sys.stdin:\n    print(float(line), flush=True)\n"
            f"{linger}\n"
        )
        X = grid_nodes(LINE, 1)
        proc = ExternalModel(f"{sys.executable} {script}", mode=mode, id="m")
        start = time.monotonic()
        cache = lambda: EvalCache(LINE, 1, tmp_path / "cache.tsv")  # noqa: E731
        assert cache().evaluate_many(proc, X).tolist() == X[:, 0].tolist()
        assert time.monotonic() - start < 5
        assert spawned and all(child.returncode == -signal.SIGKILL for child in spawned)
        assert cache().evaluate_many(proc, X).tolist() == X[:, 0].tolist()
        assert len(spawned) == (3 if mode == "oneshot" else 1)


def tuple_keys(X):
    """Cache keys as tuples of Python floats, the representation the rank
    store replaced. On the nodes of a grid, two such tuples are equal
    exactly when they are one node: -0.0 equals 0.0."""
    return list(map(tuple, X.tolist()))


def whole_batch_text(model_id: str, X, values) -> str:
    """The records of a batch as one string, in row order."""
    return "".join(
        f"{model_id}\t{' '.join(f'{c:.17g}' for c in xi)}\t{v:.17g}\n" for xi, v in zip(X, values)
    )


class TupleDictCache:
    """The tuple-dict cache algorithm, written out as the reference for
    :class:`EvalCache` on grid nodes: one dict from ``(model id, key
    tuple)`` to value, loaded from the file with the last record of a key
    winning, and a batch that pays for each missing key at its first row,
    in row order, with one append per batch."""

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


#: The caches the hypothesis tests draw from, as ``(specs, w)``: 1-D and
#: 2-D Legendre, Hermite and mixed, each but the first centred at 0.0 on
#: some axis, so that a node has a coordinate -0.0 as well as 0.0.
GRIDS = [
    ((VariableSpec("u", Uniform(2.0, 6.0)),), 3),
    ((VariableSpec("z", Normal(0.0, 1.0)),), 3),
    ((VariableSpec("u", Uniform(-1.0, 1.0)), VariableSpec("v", Uniform(-np.pi, 0.5))), 2),
    ((VariableSpec("z", Normal(-1.0, 0.5)), VariableSpec("g", Normal(0.0, 2.0))), 2),
    ((VariableSpec("u", Uniform(-1.0, 1.0)), VariableSpec("z", Normal(0.0, 1.0))), 2),
]
POOLS = {}


def pool(grid: int) -> np.ndarray:
    """``U_w`` of ``GRIDS[grid]``, made once."""
    if grid not in POOLS:
        POOLS[grid] = union_nodes(*GRIDS[grid])
    return POOLS[grid]


def pool_rows(grid: int, picks) -> np.ndarray:
    """The rows of ``pool(grid)`` picked as ``(k, signed)``: row ``k``, its
    zeros as -0.0 if ``signed``."""
    X = pool(grid)[[k for k, _ in picks]]
    X[np.array([signed for _, signed in picks])[:, None] & (X == 0.0)] = -0.0
    return X


def picks(grid: int, **size):
    return st.lists(st.tuples(st.integers(0, len(pool(grid)) - 1), st.booleans()), **size)


grid_rows = st.integers(0, len(GRIDS) - 1).flatmap(
    lambda g: st.tuples(st.just(g), picks(g, min_size=1, max_size=8))
)
grid_ops = st.integers(0, len(GRIDS) - 1).flatmap(
    lambda g: st.tuples(
        st.just(g),
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("eval"), st.sampled_from(["a", "b"]), picks(g, min_size=1, max_size=8)
                ),
                st.tuples(st.just("reload"), st.none(), st.none()),
                st.tuples(
                    st.just("inject"),
                    st.sampled_from(["a", "b"]),
                    st.tuples(picks(g, min_size=1, max_size=1), st.floats(-10, 10)),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
    )
)


def unpaid(Y):
    raise AssertionError(f"re-evaluated {len(Y)} rows")


#: The ways a row or a record can miss ``U_w`` of ``PLANE`` at ``w = 1``,
#: made from the node ``(1 + a, 0.0)``: its centre one ulp off, a third
#: coordinate, and its centre swapped for the level-1 point ``-b``, so that
#: both coordinates are axis points but their costs sum to 2.
OFF_GRID = {
    "one_ulp_off": lambda node: [node[0], np.nextafter(node[1], 1.0)],
    "other_dimension": lambda node: [*node, 0.0],
    "cost_above_w": lambda node: [node[0], grid_nodes(PLANE, 1)[1, 1]],
}


class TestEvalCache:
    def test_counts_distinct_nodes_once(self):
        calls = []

        def fn(X):
            calls.append(len(X))
            return X.sum(axis=1)

        model = Model(id="m", fn=fn)
        cache = EvalCache(PLANE, 1)
        X = grid_nodes(PLANE, 1)
        first = cache.evaluate_many(model, X)
        second = cache.evaluate_many(model, X)
        assert np.array_equal(first, second)
        assert calls == [5]
        assert cache.count("m") == 5

    def test_reference_batch_memory(self):
        """A fresh cache on the borehole w=5 reference: 54,673 distinct nodes,
        3.5 MB of coordinates, all paid. Keys of the coordinates' bits,
        sorted and inserted into a store, peaked near 7.6 MiB."""
        specs = BENCHMARK_SPECS["borehole"]
        X = physical_nodes(smolyak_grid(8, 5, specs), specs)
        model = builtin_model("borehole", "hf")
        tracemalloc.start()
        try:
            cache = EvalCache(specs, 5)
            values = cache.evaluate_many(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache.count(model.id) == len(X) == cache.size == 54_673
        assert np.array_equal(values, model.batch(X))
        assert peak < 5e6

    def test_append_memory(self, tmp_path):
        """Appending a fresh 10,000-row 5-D batch holds one chunk of records
        at a time; the batch's records as one string, built from lists of
        its rows, would peak near 3.2 MiB."""
        X = np.random.default_rng(0).normal(size=(10_000, 5))
        values = X.sum(axis=1)
        path = tmp_path / "cache.tsv"
        tracemalloc.start()
        try:
            with contextlib.closing(_Records(path, "m", X)) as records:
                records.write(values, len(X))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text() == whole_batch_text("m", X, values)
        assert peak < 0.5 * 2**20

    def test_load_memory(self, tmp_path):
        """Loading the 10,363 records of the 5-D short column grid at w=5
        holds them in flat arrays; lists of Python floats would peak near
        3.5 MiB."""
        specs = SHORT_COLUMN_SPECS
        X = grid_nodes(specs, 5)
        path = tmp_path / "cache.tsv"
        path.write_text(whole_batch_text("m", X, X.sum(axis=1)))
        tracemalloc.start()
        try:
            cache = EvalCache(specs, 5, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(X) == 10_363
        assert cache.evaluate_many(Model(id="m", fn=unpaid), X).tolist() == X.sum(axis=1).tolist()
        assert peak < 2 * 2**20

    def test_duplicate_rows_in_one_batch_are_paid_once(self, tmp_path):
        path = tmp_path / "cache.tsv"
        calls = []

        def fn(X):
            calls.append(X.copy())
            return X.sum(axis=1)

        model = Model(id="m", fn=fn)
        cache = EvalCache(LINE, 1, path)
        a, b = grid_nodes(LINE, 1)[[1, 2], 0]
        values = cache.evaluate_many(model, [[a], [a], [b], [a]])
        assert len(calls) == 1
        assert np.array_equal(calls[0], [[a], [b]])
        assert cache.count("m") == 2
        assert np.array_equal(values, [a, a, b, a])
        assert len(path.read_text().splitlines()) == 2

    def test_minus_zero_is_the_centre(self, tmp_path, unit_uniform_specs):
        """A coordinate -0.0 is the centre 0.0, in a batch and on file."""
        path = tmp_path / "cache.tsv"
        path.write_text("m\t-0 -0\t1.5\n")
        model = Model(id="m", fn=unpaid)
        cache = EvalCache(unit_uniform_specs, 0, path)
        got = cache.evaluate_many(model, [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
        assert got.tolist() == [1.5] * 3 and cache.count("m") == 0

    @pytest.mark.parametrize("kind", list(OFF_GRID))
    def test_off_grid_row_raises_before_any_call(self, tmp_path, kind):
        """A row that is no node of ``U_w`` raises ``ValueError`` naming it,
        before the model is called or a record is written."""
        path, calls = tmp_path / "cache.tsv", []
        model = Model(id="m", fn=lambda X: calls.append(len(X)) or X.sum(axis=1))
        cache = EvalCache(PLANE, 1, path)
        X = grid_nodes(PLANE, 1)
        bad = np.array(OFF_GRID[kind](X[-1]), dtype=float)
        rows = np.vstack([X, bad]) if len(bad) == 2 else [bad]
        with pytest.raises(ValueError, match=re.escape(f"node {tuple(bad.tolist())} is not")):
            cache.evaluate_many(model, rows)
        assert calls == [] and cache.count("m") == 0 and not path.exists()

    @pytest.mark.parametrize("kind", list(OFF_GRID))
    def test_off_grid_record_is_kept_but_not_loaded(self, tmp_path, kind):
        """A record that is no node of ``U_w`` is neither loaded nor served,
        and stays in the file; the other records are served."""
        node, centre = grid_nodes(PLANE, 1)[[-1, 2]]
        bad = np.array(OFF_GRID[kind](node), dtype=float)
        path = tmp_path / "cache.tsv"
        text = whole_batch_text("m", [bad, centre], [99.0, 7.0])
        path.write_text(text)
        calls = []
        model = Model(id="m", fn=lambda X: calls.append(X.copy()) or X.sum(axis=1))
        cache = EvalCache(PLANE, 1, path)
        assert cache.evaluate_many(model, [centre, node]).tolist() == [7.0, node.sum()]
        assert cache.count("m") == 1 and np.array_equal(calls[0], [node])
        assert path.read_text() == text + whole_batch_text("m", [node], [node.sum()])

    def test_file_of_a_higher_level_serves_a_lower_one(self, tmp_path, ishigami_range_specs):
        """A file written by a ``w = 5`` cache over the grids of levels 0 to
        5, opened by a ``w = 3`` cache, pays nothing for the ``w = 3`` grid."""
        specs, path = ishigami_range_specs, tmp_path / "cache.tsv"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        written = EvalCache(specs, 5, path)
        for w in range(6):
            written.evaluate_many(model, grid_nodes(specs, w))
        assert written.count("m") == written.size == 2031
        lower = EvalCache(specs, 3, path)
        X = grid_nodes(specs, 3)
        assert lower.evaluate_many(Model(id="m", fn=unpaid), X).tolist() == X.sum(axis=1).tolist()
        assert lower.count("m") == 0

    def test_rank_tables_are_built_once_per_space(self, tmp_path, monkeypatch, ishigami_range_specs):
        """``U_W``'s rank tables (``_lex_ranks``) are built once per new
        ``(W, families)``; a cache's load, its batches and fits on built
        plans build none."""
        specs, W, path = ishigami_range_specs, 4, tmp_path / "cache.tsv"
        families = tuple(spec.family for spec in specs)
        built, real = [], sparse_grid._lex_ranks
        monkeypatch.setattr(sparse_grid, "_lex_ranks", lambda costs, w: built.append(w) or real(costs, w))
        sparse_grid.node_space.cache_clear()
        grid_plan.cache_clear()
        cache = EvalCache(specs, W, path)
        assert built == [W]
        for w in range(W + 1):
            grid_plan(w, families)
        built.clear()
        model, sums = Model(id="m", fn=lambda X: X.sum(axis=1)), Model(id="s", fn=lambda X: X[:, 0])
        for w in range(W + 1):
            fit(model, w, specs, cache, "HF")
            cache.evaluate_many(sums, grid_nodes(specs, w))
        loaded = EvalCache(specs, W, path)
        assert loaded.count("m") == loaded.count("s") == 0 and loaded.store.keys() == {"m", "s"}
        for w in range(W + 1):
            fit(Model(id="m", fn=unpaid), w, specs, loaded, "HF")
            loaded.evaluate_many(Model(id="s", fn=unpaid), grid_nodes(specs, w))
        assert built == []
        EvalCache(specs[:2], W)
        EvalCache(specs, W + 1)
        assert built == [W, W + 1]

    @pytest.mark.parametrize(
        "grid, w",
        [
            (lambda specs: smolyak_grid(3, 2, list(specs)), 3),
            (lambda specs: tensor_grid((2, 1, 0), list(specs)), 3),
            (lambda specs: tensor_grid((1, 1, 1), list(specs)), 1),
        ],
        ids=["level-2-grid-as-3", "tensor-2-1-0-as-3", "tensor-1-1-1-as-1"],
    )
    def test_grid_not_of_its_level_is_refused_before_any_call(self, tmp_path, ishigami_range_specs, grid, w):
        """``evaluate_grid(model, grid, w)`` pays only the level-``w`` grid:
        a lower level's grid, a tensor grid on other axis points, or one on
        the same points (``U_1``'s) raises ``ValueError`` before the model
        is called or a record is written."""
        path, calls = tmp_path / "cache.tsv", []
        model = Model(id="m", fn=lambda X: calls.append(len(X)) or X.sum(axis=1))
        cache = EvalCache(ishigami_range_specs, 3, path)
        with pytest.raises(ValueError, match=f"not the level-{w} Smolyak grid"):
            cache.evaluate_grid(model, grid(ishigami_range_specs), w)
        assert calls == [] and cache.count("m") == 0 and not path.exists()

    def test_persisted_grid_nodes_are_found_by_a_fresh_cache(self, tmp_path):
        """The ``%.17g`` records reproduce the bits of a grid's physical
        nodes: a fresh cache on the file pays nothing for them."""
        specs = SHORT_COLUMN_SPECS
        nodes = lambda: grid_nodes(specs, 3)  # noqa: E731
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        written = EvalCache(specs, 3, path)
        values = written.evaluate_many(model, nodes())
        assert written.count("m") == len(nodes())
        fresh = EvalCache(specs, 3, path)
        assert fresh.evaluate_many(model, nodes()).tolist() == values.tolist()
        assert fresh.count("m") == 0

    def test_models_are_isolated(self):
        a = Model(id="a", fn=lambda X: X.sum(axis=1))
        b = Model(id="b", fn=lambda X: 2 * X.sum(axis=1))
        cache = EvalCache(PLANE, 0)
        x = np.array([[1.0, 0.0]])
        assert cache.evaluate_many(a, x).tolist() == [1.0]
        assert cache.evaluate_many(b, x).tolist() == [2.0]
        assert cache.count("a") == 1 and cache.count("b") == 1

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        cache = EvalCache(PLANE, 1, path)
        X = grid_nodes(PLANE, 1)[[0, 3]]
        values = cache.evaluate_many(model, X)

        reloaded = EvalCache(PLANE, 1, path)
        calls = []
        probe = Model(id="m", fn=lambda Y: calls.append(len(Y)) or Y.sum(axis=1))
        again = reloaded.evaluate_many(probe, X)
        assert np.array_equal(again, values)
        assert calls == []

    def test_reopened_cache_pays_nothing(self, tmp_path):
        path = tmp_path / "cache.tsv"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        specs, _ = GRIDS[4]
        X = pool_rows(4, [(0, False), (7, True), (len(pool(4)) - 1, False)])
        assert -0.0 in X and np.signbit(X).any()
        EvalCache(specs, 2, path).evaluate_many(model, X)
        lines = path.read_text().splitlines()
        assert len(lines) == 3

        reloaded = EvalCache(specs, 2, path)
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
        path.write_text("m\t1 0\t1.5\n" + cut)
        cache = EvalCache(PLANE, 1, path)
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and str(path) in warnings[0].getMessage()
        assert path.read_text() == "m\t1 0\t1.5\n"
        model = Model(id="m", fn=lambda X: X.sum(axis=1))
        node = grid_nodes(PLANE, 1)[-1]
        record = whole_batch_text("m", [node], [node.sum()])
        assert cache.evaluate_many(model, [[1.0, 0.0], node]).tolist() == [1.5, node.sum()]
        assert cache.count("m") == 1
        assert path.read_text() == "m\t1 0\t1.5\n" + record
        again = EvalCache(PLANE, 1, path)
        assert again.evaluate_many(model, [[1.0, 0.0], node]).tolist() == [1.5, node.sum()]
        assert again.count("m") == 0

    @settings(max_examples=200, deadline=None)
    @given(grid_rows)
    def test_written_rows_are_found_on_reload(self, drawn):
        """Any grid node written by ``_Records`` and read back by ``_load``
        is the node ``evaluate_many`` finds for it fresh, so a reopened
        cache pays for none of them, and serves each the last value
        written for it."""
        grid, chosen = drawn
        X = pool_rows(grid, chosen)
        values = np.arange(len(X), dtype=float)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.tsv"
            with contextlib.closing(_Records(path, "m", X)) as records:
                records.write(values, len(X))
            reloaded = EvalCache(*GRIDS[grid], path)
            got = reloaded.evaluate_many(Model(id="m", fn=unpaid), X)
        assert reloaded.count("m") == 0
        last = dict(zip(tuple_keys(X), values))
        assert got.tolist() == [last[k] for k in tuple_keys(X)]

    @settings(max_examples=100, deadline=None)
    @example((4, [
        ("eval", "a", [(0, False), (5, True), (5, False), (0, False), (12, True)]),
        ("eval", "b", [(5, True), (3, False), (3, False)]),
        ("inject", "a", ([(5, True)], 7.0)),
        ("reload", None, None),
        ("eval", "a", [(5, False), (12, False), (1, False)]),
        ("eval", "b", [(5, False), (2, True), (3, False)]),
    ]))
    @given(grid_ops)
    def test_array_store_equals_tuple_dict_cache(self, drawn):
        """Values, counts, the rows each model is asked for, in order, and
        the appended bytes all equal those of :class:`TupleDictCache`, over
        the nodes of 1-D and 2-D Legendre, Hermite and mixed grids, with
        duplicate rows, signed zeros, two model ids, records appended from
        outside and reloads."""
        grid, ops = drawn
        specs, w = GRIDS[grid]
        with tempfile.TemporaryDirectory() as tmp:
            paths = Path(tmp) / "array.tsv", Path(tmp) / "tuple.tsv"
            caches = EvalCache(specs, w, paths[0]), TupleDictCache(paths[1])
            calls = {}

            def model(impl, model_id):
                offset = {"a": 0.0, "b": 0.25}[model_id]

                def fn(X):
                    calls.setdefault((impl, model_id), []).append(X.copy())
                    return np.cos(X).sum(axis=1) + X.shape[1] + offset

                return Model(id=model_id, fn=fn)

            for op, model_id, arg in ops:
                if op == "eval":
                    X = pool_rows(grid, arg)
                    got = [c.evaluate_many(model(i, model_id), X) for i, c in enumerate(caches)]
                    assert got[0].dtype == got[1].dtype and got[0].tobytes() == got[1].tobytes()
                elif op == "reload":
                    caches = EvalCache(specs, w, paths[0]), TupleDictCache(paths[1])
                else:
                    chosen, value = arg
                    record = whole_batch_text(model_id, pool_rows(grid, chosen), [value])
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
        cache = EvalCache(PLANE, 1, path)
        opened = []
        real_open = open
        monkeypatch.setattr(
            "builtins.open", lambda *a, **k: opened.append(a) or real_open(*a, **k)
        )
        cache.evaluate_many(model, grid_nodes(PLANE, 1))
        cache.evaluate_many(model, grid_nodes(PLANE, 1))
        assert len(opened) == 1
        assert len(path.read_text().splitlines()) == 5

    @pytest.mark.parametrize("mode, rows", [("stream", 300), ("oneshot", 5)])
    def test_one_append_per_external_batch(self, tmp_path, monkeypatch, mode, rows):
        """An external batch opens the cache file once and writes its
        records in row order, as the whole batch's text at once would, even
        when its rows are answered out of order: every oneshot child is in
        flight, and row 0's, the centre 0.0, answers only once the others
        have."""
        monkeypatch.setattr(models, "_usable_cpus", lambda: rows)
        done = tmp_path / "done"
        done.mkdir()
        script = tmp_path / "model.py"
        script.write_text(
            ANSWER_SQUARE_AFTER_THE_OTHERS.format(oneshot=mode == "oneshot", done=str(done), rows=rows)
        )
        path = tmp_path / "cache.tsv"
        opened = []
        real_open = open
        monkeypatch.setattr(
            "builtins.open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k)
        )
        axis = (VariableSpec("u", Uniform(-1.0, 1.0)),)
        nodes = union_nodes(axis, 7)
        X = np.vstack([[[0.0]], nodes[nodes[:, 0] != 0.0][: rows - 1]])
        model = ExternalModel(f"{sys.executable} {script}", mode=mode, id="m")
        try:
            values = EvalCache(axis, 7, path).evaluate_many(model, X)
        finally:
            model.close()
        assert values.tolist() == (X[:, 0] ** 2).tolist()
        assert opened.count(path) == 1
        assert path.read_text() == whole_batch_text("m", X, values)

    def test_malformed_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("m\t0.5 2\t2.5\n\nm\t1 2\n")
        with pytest.raises(CacheFileError, match=r"cache\.tsv:3: malformed"):
            EvalCache(PLANE, 1, path)

    def test_record_without_coordinates_is_malformed(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("m\t0.5 2\t2.5\nm\t\t1.0\n")
        with pytest.raises(CacheFileError, match=r"cache\.tsv:2: malformed"):
            EvalCache(PLANE, 1, path)

    def test_persistence_format(self, tmp_path):
        path = tmp_path / "cache.tsv"
        model = Model(id="prob/hf", fn=lambda X: X.sum(axis=1) + 1.5)
        EvalCache(PLANE, 0, path).evaluate_many(model, np.array([[1.0, 0.0]]))
        record = path.read_text().strip().split("\t")
        assert record[0] == "prob/hf"
        assert [float(c) for c in record[1].split()] == [1.0, 0.0]
        assert float(record[2]) == 2.5

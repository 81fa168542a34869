import collections
import csv
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import mfpce.mf
from mfpce.cli import _Stopped, main
from mfpce.models import (
    BENCHMARK_SPECS, ISHIGAMI_SPECS, EvalCache, ExternalModel, Model, builtin_model,
)
from mfpce.sparse_grid import physical_nodes, smolyak_grid
from mfpce.study import SchemeSpec, build_scheme, decay_report, report_file

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ishigami_model.py"


#: A 1-D stream-mode model answering each request line with ``output``.
STREAM_MODEL = """import sys
for line in sys.stdin:
    x = float(line)
    print({output}, flush=True)
"""


#: A 1-D stream-mode model answering ``x`` line for line, with ``{fault}``
#: at its third request.
STREAM_FAULT = """for i, line in enumerate(sys.stdin):
    if i == 2:
        {fault}
    print(float(line), flush=True)
"""


#: A 3-D stream or oneshot model computing ``scripts/ishigami_model.py``'s
#: Ishigami formula, which ``{fault}``s at the request line ``{target}``.
ISHIGAMI_FAULT_AT = """import math, os, sys, time
for line in sys.stdin:
    if line.strip() == {target!r}:
        {fault}
    x1, x2, x3 = map(float, line.split())
    print(repr(math.sin(x1) + 7.0 * math.sin(x2) ** 2 + 0.1 * x3**4 * math.sin(x1)), flush=True)
"""


#: Three variables, the last of them normal, for the Ishigami builtins.
ONE_NORMAL = [
    {"name": "x1", "dist": "uniform", "a": -3.0, "b": 3.0},
    {"name": "x2", "dist": "uniform", "a": -3.0, "b": 3.0},
    {"name": "g", "dist": "normal", "mu": 0.0, "sigma": 1.0},
]


#: The pinned converge runs, each ``tests/data/convergence_<name>_seed7.csv``:
#: the shipped config and the keys replaced in it. The normal input's 10,001
#: validation points make its column redrawn across outer blocks.
PINNED = {
    "ishigami": ("ishigami", {}),
    "borehole": ("borehole", {}),
    "ishigami_normal": ("ishigami", {"variables": ONE_NORMAL, "validation": {"count": 10_001}}),
}


def ishigami_w3_requests() -> list[str]:
    """The request lines of ``sobol --scheme hf --w 3`` on Ishigami: its
    159 grid nodes, in the row order of its one batch."""
    X = physical_nodes(smolyak_grid(3, 3, ISHIGAMI_SPECS), ISHIGAMI_SPECS)
    return [" ".join(f"{c:.17g}" for c in x) for x in X.tolist()]


def cached_ishigami_config(tmp_path, command: str, mode: str):
    """Ishigami with the command model ``hf`` and the cache ``cache.tsv``."""
    return write_config(
        tmp_path,
        {
            "problem": "ishigami",
            "models": [{"id": "hf", "command": command, "mode": mode}],
            "schemes": [{"name": "hf", "kind": "hf", "hf": "hf"}],
            "reference": {"kind": "analytic"},
            "output": str(tmp_path / "out"),
            "cache": str(tmp_path / "cache.tsv"),
        },
    )


def record_coords(path) -> list[str]:
    """The coordinates field of each record of the cache file ``path``."""
    return [line.split("\t")[1] for line in path.read_text().splitlines()]


def run_with_file_size_limit(limit: int, argv: list[str]) -> subprocess.CompletedProcess:
    """``mfpce argv`` in a child interpreter whose files may not grow past
    ``limit`` bytes."""
    limited = (
        f"import resource, runpy; resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit})); "
        "runpy.run_module('mfpce.cli', run_name='__main__')"
    )
    argv = [sys.executable, "-c", limited, *argv]
    return subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=60)


def record_batches(monkeypatch) -> list:
    """Make every batch, of a builtin or a command model, record its model
    id instead of running; a test that finds none proves no model ran."""
    ids = []
    for cls in (Model, ExternalModel):
        monkeypatch.setattr(cls, "batch", lambda self, X, on_answered=None: ids.append(self.id))
    return ids


def record_paid_rows(monkeypatch) -> list:
    """Let every builtin batch run, and record ``(model id, rows, through
    a cache)`` of each: an ``EvalCache`` pays a model with ``on_answered``,
    and ``converge``'s validation truths are asked of the model without."""
    calls, batch = [], Model.batch

    def recorded(self, X, on_answered=None):
        calls.append((self.id, len(X), on_answered is not None))
        return batch(self, X, on_answered)

    monkeypatch.setattr(Model, "batch", recorded)
    return calls


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def child_env() -> dict:
    """This process's environment, with the package's source first on
    ``PYTHONPATH``, for a child interpreter that imports ``mfpce``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


#: One run of each command on :func:`ishigami_config`; ``--w 3`` pays 159
#: HF evaluations, whose cache records take about 10 kB.
COMMANDS = {
    "sobol": ["sobol", "--scheme", "hf", "--w", "3"],
    "converge": ["converge"],
    "decay": ["decay", "--scheme", "hf", "--w", "3"],
    "mc-check": ["mc-check", "--model", "hf", "--n", "4"],
}


def ishigami_config(tmp_path, out, **overrides):
    data = {
        "problem": "ishigami",
        "models": [
            {"id": "hf", "builtin": "ishigami/hf"},
            {"id": "lf", "builtin": "ishigami/lf1"},
        ],
        "schemes": [
            {"name": "hf", "kind": "hf", "hf": "hf"},
            {"name": "mf", "kind": "mf", "hf": "hf", "lf": "lf", "q": 1, "rt": 0.125},
        ],
        "levels": {"min": 1, "max": 2},
        "reference": {"kind": "analytic", "a": 7.0, "b": 0.1},
        "validation": {"count": 2000, "seed": 3},
        "output": str(out),
    }
    data.update(overrides)
    return write_config(tmp_path, data)


class TestSobolCommand:
    def test_writes_report_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "4"]) == 0
        payload = json.loads((out / "sobol_hf_w4.json").read_text())
        assert payload["scheme"] == "hf:SG-4"
        assert payload["n_hf"] > 0
        first = {
            tuple(entry["subset"]): entry["value"]
            for entry in payload["subset_indices"]
        }
        # subsets are reported 1-based; compare with the analytic shares
        assert first[(1,)] == pytest.approx(0.3139, abs=2e-3)
        assert first[(2,)] == pytest.approx(0.4424, abs=2e-3)
        lines = (out / "sobol_hf_w4_totals.csv").read_text().splitlines()
        assert lines[0] == "variable,total_index"
        assert len(lines) == 4

    def test_mf_scheme_with_q_override(self, tmp_path):
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        code = main(
            ["--config", str(cfg), "sobol", "--scheme", "mf", "--w", "2", "--q", "2"]
        )
        assert code == 0
        payload = json.loads((out / "sobol_mf_w2.json").read_text())
        assert payload["scheme"] == "mf:SG-0-2"

    def test_cache_in_a_missing_directory(self, tmp_path):
        """A cache file whose directory does not exist is created with it at
        the first record, and a second run pays no evaluation."""
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out, cache=str(tmp_path / "a" / "b" / "c.tsv"))
        argv = ["--config", str(cfg), "sobol", "--scheme", "mf", "--w", "3"]
        assert main(argv) == 0
        assert main(argv) == 0
        payload = json.loads((out / "sobol_mf_w3.json").read_text())
        assert (payload["n_hf"], payload["n_lf"]) == (0, 0)


class TestConvergeCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        assert main(["--config", str(cfg), "converge"]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0].startswith("scheme,w,q,")
        # two schemes x two levels
        assert len(lines) == 5

    def test_deterministic(self, tmp_path):
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        main(["--config", str(cfg), "converge"])
        first = (out / "convergence.csv").read_text()
        main(["--config", str(cfg), "converge"])
        assert (out / "convergence.csv").read_text() == first

    @pytest.mark.parametrize("name", list(PINNED))
    def test_shipped_config_reproduces_its_pinned_csv(self, tmp_path, name):
        """``converge --seed 7`` on a shipped config, or on one with the keys
        of :data:`PINNED` replaced, writes, byte for byte, the
        ``convergence.csv`` kept in ``tests/data``.

        The pin's contract: the files hold byte for byte on x86-64 under
        OpenBLAS's ``SkylakeX`` and ``SapphireRapids`` kernels with numpy
        2.4.6's AVX-512 dispatch, where they were written. Under the
        ``Haswell``, ``Zen``, ``Sandybridge``, ``Nehalem`` and ``Prescott``
        kernels both cases fail: the fields formed as differences of
        nearly equal numbers move in their last printed digits or below
        1e-14 (ishigami ``hf,4`` ``e`` and ``e_t`` and ``hf,5`` ``mare``,
        ``e`` and ``e_t``; borehole ``hf,3`` ``e`` and ``e_t`` and ``mf1,3``
        ``e_t``). On a host of the pinned kind, a printed digit that moves
        is a change in the numbers, to be explained or mended. The normal
        case fails under ``Haswell``, ``Zen`` and ``Prescott`` on ``hf,5``
        ``mare``, and under ``Prescott`` on ``hf,4`` ``mare`` too."""
        root = Path(__file__).resolve().parent
        shipped, replaced = PINNED[name]
        config = root.parent / "configs" / f"{shipped}.yaml"
        if replaced:
            config = write_config(tmp_path, {**yaml.safe_load(config.read_text()), **replaced})
        argv = ["--config", str(config), "--out", str(tmp_path), "--seed", "7", "converge"]
        assert main(argv) == 0
        got = (tmp_path / "convergence.csv").read_text()
        assert got == (root / "data" / f"convergence_{name}_seed7.csv").read_text()

    def test_cells_pay_each_node_once(self, tmp_path, monkeypatch):
        """The cells of ``configs/ishigami.yaml`` share one cache: the level-5
        grid holds every lower grid's nodes, so they pay 2,031 HF and 2,031
        LF rows, while the csv still counts each cell's cost, 3,035 and
        5,655 in all. The validation truths are one HF batch of their own."""
        calls = record_paid_rows(monkeypatch)
        config = Path(__file__).resolve().parent.parent / "configs" / "ishigami.yaml"
        assert main(["--config", str(config), "--out", str(tmp_path), "converge"]) == 0
        paid = collections.Counter()
        for model_id, rows, cached in calls:
            paid[model_id] += rows if cached else 0
        assert paid == {"hf": 2031, "lf1": 2031}
        assert [call for call in calls if not call[2]] == [("hf", 100_000, False)]
        with open(tmp_path / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(row["n_hf"]) for row in rows) == 3035
        assert sum(int(row["n_lf"]) for row in rows) == 5655

    @pytest.mark.parametrize(
        "levels_max, reference_w, hf_nodes",
        [(2, 4, 597), (4, 2, 597), (4, 6, 6405)],
        ids=["reference-above-levels", "reference-below-levels", "reference-grid-a-proper-subset"],
    )
    def test_pce_reference_and_cells_pay_each_node_once(
        self, tmp_path, monkeypatch, levels_max, reference_w, hf_nodes
    ):
        """The PCE reference and the cells pay through one store: each
        model is asked for the distinct nodes of the grids it is fitted on,
        and HF for the 2,000 validation truths besides. At ``w = 6`` the 3-D
        reference grid, 6,397 nodes, is a proper subset of ``U_6``: the 8
        level-3 nodes off every centre lie outside it, and the cells pay
        them."""
        calls = record_paid_rows(monkeypatch)
        reference = {"kind": "pce", "model": "hf", "w": reference_w}
        levels = {"min": 1, "max": levels_max}
        cfg = ishigami_config(tmp_path, tmp_path / "out", reference=reference, levels=levels)
        assert main(["--config", str(cfg), "converge"]) == 0
        paid = collections.Counter()
        for model_id, rows, _ in calls:
            paid[model_id] += rows

        def nodes(*ws):
            grids = (physical_nodes(smolyak_grid(3, w, ISHIGAMI_SPECS), ISHIGAMI_SPECS) for w in ws)
            return {tuple(x) for X in grids for x in X.tolist()}

        # The hf cells fit levels 1..max, and the MF cells (q = 1) HF at
        # levels 0..max-1 and LF at levels 0..max.
        cells = range(levels_max + 1)
        assert len(nodes(reference_w, *cells)) == hf_nodes
        assert paid == {"hf": hf_nodes + 2000, "lf": len(nodes(*cells))}

    def test_loads_its_cache_file_once(self, tmp_path, monkeypatch):
        """With a PCE reference and ``cache:``, a cold ``converge`` loads no
        file, and a warm one loads it once, for the reference and the
        cells alike."""
        loads, load = [], EvalCache._load
        monkeypatch.setattr(EvalCache, "_load", lambda self, path: loads.append(path) or load(self, path))
        reference = {"kind": "pce", "model": "hf", "w": 3}
        cache = tmp_path / "cache.tsv"
        cfg = ishigami_config(tmp_path, tmp_path / "out", reference=reference, cache=str(cache))
        assert main(["--config", str(cfg), "converge"]) == 0
        assert loads == [] and cache.exists()
        assert main(["--config", str(cfg), "converge"]) == 0
        assert loads == [cache]

    def test_rerun_on_a_cache_file_pays_nothing(self, tmp_path, monkeypatch):
        """With ``cache:`` set, the PCE reference and the cells pay through
        the file: the cells find the reference's HF records there, a rerun
        appends nothing, and every run writes the csv of a run without the
        file."""
        opened, init = [], EvalCache.__init__

        def counted(self, specs, w, path=None):
            opened.append(path)
            init(self, specs, w, path)

        monkeypatch.setattr(EvalCache, "__init__", counted)
        reference = {"kind": "pce", "model": "hf", "w": 3}
        cache = tmp_path / "cache.tsv"
        plain = ishigami_config(tmp_path, tmp_path / "plain", reference=reference)
        assert main(["--config", str(plain), "converge"]) == 0
        expected = (tmp_path / "plain" / "convergence.csv").read_bytes()
        cfg = ishigami_config(tmp_path, tmp_path / "out", reference=reference, cache=str(cache))
        assert main(["--config", str(cfg), "converge"]) == 0
        records = cache.read_bytes()
        # The reference's 159 HF nodes, then the MF cells' 37 LF nodes.
        ids = [line.split(b"\t")[0] for line in records.splitlines()]
        assert (ids.count(b"hf"), ids.count(b"lf"), len(ids)) == (159, 37, 196)
        assert (tmp_path / "out" / "convergence.csv").read_bytes() == expected
        assert main(["--config", str(cfg), "converge"]) == 0
        assert cache.read_bytes() == records
        assert (tmp_path / "out" / "convergence.csv").read_bytes() == expected
        assert opened == [None] + [str(cache)] * 2

    def test_no_cells_writes_the_header_only(self, tmp_path, monkeypatch):
        """With every scheme's ``q`` above ``levels.max`` there is no cell
        to build or validate: the csv is its header alone, exit 0, and no
        model is asked for anything, not even the validation truths."""
        calls = record_paid_rows(monkeypatch)
        out = tmp_path / "out"
        mf = {"name": "mf", "kind": "mf", "hf": "hf", "lf": "lf", "q": 3, "rt": 0.125}
        cfg = ishigami_config(tmp_path, out, schemes=[mf])
        assert main(["--config", str(cfg), "converge"]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines == ["scheme,w,q,n_hf,n_lf,n_e,n_tot,mare,r2,e,e_t,mean,std"]
        assert calls == []


class TestDecayCommand:
    def test_mf_decay_includes_all_spectra(self, tmp_path, monkeypatch):
        rows = collections.Counter()
        batch = Model.batch
        monkeypatch.setattr(
            Model,
            "batch",
            lambda self, X, on_answered=None: rows.update({self.id: len(X)})
            or batch(self, X, on_answered),
        )
        levels, project = [], mfpce.mf.project
        monkeypatch.setattr(mfpce.mf, "project", lambda *a: levels.append(a[1]) or project(*a))
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        assert main(["--config", str(cfg), "decay", "--scheme", "mf", "--w", "2"]) == 0
        lines = (out / "decay_mf_w2.csv").read_text().splitlines()
        provenances = {line.split(",")[0] for line in lines[1:]}
        assert provenances == {"LF", "Correction", "Combined", "HF"}
        # The HF spectrum is the MF build's own HF fit at w - q = 1: three
        # projections (LF at w, HF and LF at w - q) and the HF values paid once.
        assert levels == [2, 1, 1]
        assert rows["hf"] == len(smolyak_grid(3, 1, ISHIGAMI_SPECS))
        models = {"hf": builtin_model("ishigami", "hf")}
        cache = EvalCache(ISHIGAMI_SPECS, 1)
        hf = build_scheme(SchemeSpec("hf", "hf", "hf"), 1, ISHIGAMI_SPECS, models, cache).expansion
        hf_rows = [f"HF,{rank},{mag:.12g}" for _, rank, mag in decay_report([hf])]
        assert [line for line in lines if line.startswith("HF,")] == hf_rows


class TestMcCheckCommand:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        code = main(
            ["--config", str(cfg), "mc-check", "--model", "hf", "--n", "2048"]
        )
        assert code == 0
        payload = json.loads((out / "mc_hf_n2048.json").read_text())
        assert payload["seed"] == 3
        assert len(payload["first_order_se"]) == 3

    def test_unknown_model(self, tmp_path):
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        assert main(["--config", str(cfg), "mc-check", "--model", "nope"]) == 2


class TestExitCodes:
    def test_missing_config_is_config_error(self):
        assert main(["sobol", "--scheme", "hf", "--w", "1"]) == 2

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "ishigami"})
        assert main(["--config", str(path), "converge"]) == 2
        # A model key the binding does not know, e.g. the removed cost_unit.
        models = [
            {"id": "hf", "builtin": "ishigami/hf"},
            {"id": "lf", "builtin": "ishigami/lf1", "cost_unit": 0.125},
        ]
        capsys.readouterr()
        cfg = ishigami_config(tmp_path, tmp_path / "out", models=models)
        assert main(["--config", str(cfg), "converge"]) == 2
        err = capsys.readouterr().err
        assert "cost_unit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["rt_values", "levles"])
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys, key):
        cfg = ishigami_config(tmp_path, tmp_path / "out", **{key: {"min": 1, "max": 2}})
        assert main(["--config", str(cfg), "converge"]) == 2
        err = capsys.readouterr().err
        assert f"unknown config keys: '{key}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "convergence.csv").exists()

    def test_model_failure_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "variables": [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}],
                "models": [
                    {"id": "bad", "command": f"{sys.executable} -c \"print('nan')\""}
                ],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "bad"}],
                "levels": {"min": 1, "max": 1},
                "reference": {"kind": "pce", "model": "bad", "w": 1},
                "output": str(out),
            },
        )
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 3

    def test_non_finite_builtin_value_is_model_error(self, tmp_path, capsys):
        """Borehole with ``r_w`` on [-0.15, 0.15] divides by zero and takes
        logs of negative ratios: exit 3 with one line naming the first
        non-finite node as floats, no numpy warning, and no cache record."""
        variables = [
            {"name": s.name, "dist": "uniform", "a": s.dist.a, "b": s.dist.b}
            for s in BENCHMARK_SPECS["borehole"]
        ]
        variables[0].update(a=-0.15, b=0.15)
        cfg = write_config(
            tmp_path,
            {
                "problem": "borehole",
                "variables": variables,
                "models": [{"id": "hf", "builtin": "borehole/hf"}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "hf"}],
                "reference": {"kind": "pce", "model": "hf", "w": 1},
                "output": str(tmp_path / "out"),
                "cache": str(tmp_path / "c.tsv"),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("model evaluation error: non-finite output nan from model 'hf' at node (")
        assert err.count("\n") == 1
        assert "np.float64" not in err and "Traceback" not in err
        assert not (tmp_path / "c.tsv").exists()
        assert not list((tmp_path / "out").glob("*"))

    def test_malformed_cache_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cache = tmp_path / "cache.tsv"
        # A malformed line that ends in a newline is no crash-cut record.
        cache.write_text("hf\t0 0 0\t3.5\nhf\t1 2\n")
        cfg = ishigami_config(tmp_path, out, cache=str(cache))
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{cache}:2:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "record", ["hf\t0 0 0\tnan\n", "hf\t0 0 0\tinf\n", "hf\tnan 0 0\t1.0\n"],
        ids=["nan_value", "inf_value", "nan_coordinate"],
    )
    def test_non_finite_cache_record_is_malformed(self, tmp_path, capsys, record):
        """A cache record holding a nan or an inf is never served: it exits
        2 with one line naming its file and line, and writes no report."""
        out = tmp_path / "out"
        cache = tmp_path / "c.tsv"
        cache.write_text(record)
        cfg = ishigami_config(tmp_path, out, cache=str(cache))
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{cache}:1: malformed cache record" in err and err.count("\n") == 1
        assert not (out / "sobol_hf_w1.json").exists()

    @pytest.mark.parametrize(
        "fault, command",
        [("config_is_a_directory", command) for command in COMMANDS]
        + [(fault, command) for fault in ("cache_is_a_directory", "cache_under_a_file")
           for command in ("sobol", "decay")]
        + [("out_under_a_file", command) for command in COMMANDS],
    )
    def test_os_error_is_one_line_naming_the_path(self, tmp_path, capsys, fault, command):
        """An OS error on a path the run reads or writes (the config, the
        cache file, the output directory) exits 2 with one line naming the
        path, and no traceback."""
        path = tmp_path / "x"
        if fault.endswith("under_a_file"):
            path.write_text("")
            path = path / "y"
        else:
            path.mkdir()
        overrides = {"cache": str(path)} if fault.startswith("cache") else {}
        argv = ["--config", str(ishigami_config(tmp_path, tmp_path / "out", **overrides))]
        if fault == "out_under_a_file":
            argv += ["--out", str(path)]
        if fault == "config_is_a_directory":
            argv[1] = str(path)
        assert main([*argv, *COMMANDS[command]]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sobol", "decay"])
    def test_cache_append_past_the_file_size_limit(self, tmp_path, command):
        """A cache append that the OS refuses, here past a 1,000-byte file
        size limit set in the child, exits 2 with one line naming the cache
        file, and no traceback."""
        cache = tmp_path / "c.tsv"
        cfg = ishigami_config(tmp_path, tmp_path / "out", cache=str(cache))
        done = run_with_file_size_limit(1000, ["--config", str(cfg), *COMMANDS[command]])
        assert done.returncode == 2
        assert str(cache) in done.stderr and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "command, report",
        [
            ("sobol", "sobol_hf_w3.json"),
            ("converge", "convergence.csv"),
            ("decay", "decay_hf_w3.csv"),
            ("mc-check", "mc_hf_n4.json"),
        ],
    )
    def test_report_write_past_the_file_size_limit(self, tmp_path, command, report):
        """A report write that the OS refuses, here past a 200-byte file
        size limit set in the child, exits 2 with one line naming the
        report, no traceback, and no partial report left behind."""
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        done = run_with_file_size_limit(200, ["--config", str(cfg), *COMMANDS[command]])
        assert done.returncode == 2
        assert str(out / report) in done.stderr and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr
        assert not (out / report).exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failed_rerun_keeps_the_earlier_reports(self, tmp_path, command):
        """A rerun into an ``--out`` that holds a run's reports, whose first
        report write the OS refuses past a 200-byte file size limit, exits 2
        and leaves each earlier report byte for byte, and no other file."""
        out = tmp_path / "out"
        argv = ["--config", str(ishigami_config(tmp_path, out)), *COMMANDS[command]]
        assert main(argv) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        done = run_with_file_size_limit(200, argv)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_stopped_report_write_keeps_the_earlier_report(self, tmp_path):
        """A stop signal while a report is written leaves the earlier report
        as it was, and no temporary file."""
        path = tmp_path / "report.csv"
        path.write_text("earlier\n")
        with pytest.raises(_Stopped):
            with report_file(path) as fh:
                fh.write("partial\n")
                raise _Stopped(signal.SIGTERM)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "earlier\n"

    @pytest.mark.parametrize(
        "mode, k, fault",
        [
            ("stream", 150, "sys.exit('fault')"),
            ("oneshot", 5, "sys.exit('fault')"),
            ("oneshot", 5, "os.close(1); time.sleep(30)"),
        ],
        ids=["stream-150", "oneshot-5", "oneshot-5-linger"],
    )
    def test_failed_batch_keeps_the_rows_answered_below_it(
        self, tmp_path, monkeypatch, spawned, mode, k, fault
    ):
        """A model that fails at row ``k`` of the 159 of ``sobol --scheme
        hf --w 3`` (for the stream model, at its request 151) exits 3,
        whether it exits 1 or closes its output and lingers past the
        deadline (0.2 s here). The oneshot batch leaves the cache records
        of rows 0 to k - 1, in row order; the stream batch leaves none, as
        its one child answered every row and none of them is final. A
        rerun with a sound model pays the rows not kept."""
        monkeypatch.setattr("mfpce.models._LINGER_S", 0.2)
        requests = ishigami_w3_requests()
        script = tmp_path / "model.py"
        script.write_text(ISHIGAMI_FAULT_AT.format(target=requests[k], fault=fault))
        cfg = cached_ishigami_config(tmp_path, f"{sys.executable} {script}", mode)
        argv = ["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "3"]
        assert main(argv) == 3
        assert all(child.poll() is not None for child in spawned)
        cache = tmp_path / "cache.tsv"
        kept = k if mode == "oneshot" else 0
        assert (record_coords(cache) if cache.exists() else []) == requests[:kept]
        cached_ishigami_config(tmp_path, f"{sys.executable} {SCRIPT}", "stream")
        assert main(argv) == 0
        report = json.loads((tmp_path / "out" / "sobol_hf_w3.json").read_text())
        assert report["n_hf"] == 159 - kept
        assert record_coords(cache) == requests

    @pytest.mark.parametrize("delay", [0.0, 0.3], ids=["same_batch", "late_last_reply"])
    def test_stray_stream_line_fails_the_batch_and_keeps_no_record(
        self, tmp_path, capsys, spawned, delay
    ):
        """An Ishigami stream model that prints ``1.0`` before its 5th reply
        shifts every later reply by one row. With its last reply sent at
        once or 0.3 s late, ``sobol --scheme hf --w 3`` with a cache exits
        3 and writes no record: the child's output is read to its end,
        where the 160th line is one past the last row. A rerun with a sound
        model pays all 159 rows and reports the true variance, and the run
        after it pays none."""
        script = tmp_path / "model.py"
        script.write_text(
            "import math, sys, time\nfor i, line in enumerate(sys.stdin):\n"
            "    if i == 4:\n        print(1.0, flush=True)\n"
            f"    if i == 158:\n        time.sleep({delay})\n"
            "    x1, x2, x3 = map(float, line.split())\n"
            "    print(repr(math.sin(x1) + 7.0 * math.sin(x2) ** 2 + 0.1 * x3**4 * math.sin(x1)), flush=True)\n"
        )
        cfg = cached_ishigami_config(tmp_path, f"{sys.executable} {script}", "stream")
        argv = ["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "3"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "malformed response '" in err and err.count("\n") == 1
        assert len(spawned) == 1 and spawned[0].poll() is not None
        assert not (tmp_path / "cache.tsv").exists()
        cached_ishigami_config(tmp_path, f"{sys.executable} {SCRIPT}", "stream")
        for paid in (159, 0):
            assert main(argv) == 0
            report = json.loads((tmp_path / "out" / "sobol_hf_w3.json").read_text())
            assert report["n_hf"] == paid and round(report["variance"], 6) == 12.944771

    def test_crash_cut_cache_record_is_paid_again(self, tmp_path, caplog):
        """A last cache record cut by a crash right after the first character
        of its value parses, but is not served: the next run warns once,
        naming the file, pays that one HF evaluation again and reports the
        clean run's values, and the run after that pays nothing."""
        cache = tmp_path / "cache.tsv"
        cfg = write_config(
            tmp_path,
            {
                "problem": "ishigami",
                "models": [{"id": "hf", "builtin": "ishigami/hf"}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "hf"}],
                "reference": {"kind": "analytic"},
                "output": str(tmp_path / "out"),
                "cache": str(cache),
            },
        )

        def run() -> tuple[int, dict]:
            assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "3"]) == 0
            report = json.loads((tmp_path / "out" / "sobol_hf_w3.json").read_text())
            return report.pop("n_hf"), report

        paid, clean = run()
        assert paid == 159
        records = cache.read_bytes()
        head, _, value = records.rstrip(b"\n").rpartition(b"\t")
        cache.write_bytes(head + b"\t" + value[:1])
        caplog.clear()
        assert run() == (1, clean)
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and str(cache) in warnings[0].getMessage()
        assert cache.read_bytes() == records
        assert run() == (0, clean)

    def test_threads_flag_is_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = ishigami_config(tmp_path, tmp_path / "out")
        monkeypatch.setenv("MFPCE_THREADS", "two")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--threads=2", "sobol", "--scheme", "hf", "--w", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads=2" in capsys.readouterr().err
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 0

    def test_degenerate_model_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "variables": [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}],
                "models": [
                    {"id": "const", "command": f"{sys.executable} -c \"print('1.0')\""}
                ],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "const"}],
                "levels": {"min": 1, "max": 1},
                "reference": {"kind": "analytic"},
                "output": str(out),
            },
        )
        assert (
            main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 4
        )

    @pytest.mark.parametrize(
        "argv, overrides, message",
        [
            (["sobol", "--scheme", "hf", "--w", "-1"], {}, "--w must be >= 0, got -1"),
            (["sobol", "--scheme", "hf", "--w", "2", "--q", "-1"], {}, "--q must be >= 0, got -1"),
            (
                ["sobol", "--scheme", "hf", "--w", "2", "--q", "1"],
                {},
                "--q is for mf schemes, and scheme 'hf' is hf",
            ),
            (["sobol", "--scheme", "mf1", "--w", "1"], {}, "q=2 must be >= 2, got 1"),
            (["decay", "--scheme", "mf1", "--w", "1"], {}, "q=2 must be >= 2, got 1"),
            (["mc-check", "--model", "hf", "--n", "1"], {}, "--n must be >= 2, got 1"),
            (["--seed", "-3", "mc-check", "--model", "hf"], {}, "--seed must be >= 0, got -3"),
            (["converge"], {"levels": {"min": 0, "max": 2}}, "levels min must be >= 1, got 0"),
            (["converge"], {"validation": {"count": 1}}, "validation count must be >= 2, got 1"),
            (["converge"], {"validation": {"seed": -3}}, "validation seed must be >= 0, got -3"),
            (
                ["converge"],
                {"reference": {"kind": "pce", "model": "hf", "w": -1}},
                "reference w must be >= 0, got -1",
            ),
            (
                ["converge"],
                {"reference": {"kind": "mc", "model": "hf", "n": 1}},
                "reference n must be >= 2, got 1",
            ),
            (
                ["converge"],
                {"reference": {"kind": "mc", "model": "hf", "n": 64, "seed": -1}},
                "reference seed must be >= 0, got -1",
            ),
            (
                ["sobol", "--scheme", "hf", "--w", "9"],
                {"variables": ONE_NORMAL},
                "--w must be <= 8 with the normal variable 'g', got 9",
            ),
            (
                ["decay", "--scheme", "mf1", "--w", "9"],
                {"variables": ONE_NORMAL},
                "--w must be <= 8 with the normal variable 'g', got 9",
            ),
            (
                ["converge"],
                {"variables": ONE_NORMAL, "levels": {"min": 1, "max": 9}},
                "levels max must be <= 8 with the normal variable 'g', got 9",
            ),
            (
                ["converge"],
                {"variables": ONE_NORMAL, "reference": {"kind": "pce", "model": "hf", "w": 9}},
                "reference w must be <= 8 with the normal variable 'g', got 9",
            ),
            (
                ["sobol", "--scheme", "hf", "--w", "40"],
                {},
                "--w must be <= 10 with the uniform variable 'xi_1', got 40",
            ),
            (
                ["converge"],
                {"levels": {"min": 1, "max": 40}},
                "levels max must be <= 10 with the uniform variable 'xi_1', got 40",
            ),
            (
                ["converge"],
                {"levels": {"max": 1000000000}},
                "levels max must be <= 10 with the uniform variable 'xi_1', got 1000000000",
            ),
            (
                ["converge"],
                {"reference": {"kind": "pce", "model": "hf", "w": 40}},
                "reference w must be <= 10 with the uniform variable 'xi_1', got 40",
            ),
        ],
        ids=[
            "sobol_w",
            "sobol_q",
            "sobol_q_on_hf_scheme",
            "sobol_w_below_q",
            "decay_w_below_q",
            "mc_check_n",
            "seed",
            "levels_min",
            "validation_count",
            "validation_seed",
            "reference_pce_w",
            "reference_mc_n",
            "reference_mc_seed",
            "sobol_w_hermite",
            "decay_w_hermite",
            "levels_max_hermite",
            "reference_pce_w_hermite",
            "sobol_w_legendre",
            "levels_max_legendre",
            "levels_max_a_billion",
            "reference_pce_w_legendre",
        ],
    )
    def test_out_of_range_number_is_config_error(
        self, tmp_path, monkeypatch, capsys, argv, overrides, message
    ):
        """Exit 2 with one line naming the value, before any model runs. A
        level past 8 is refused with a normal variable, whose level-9
        Gauss-Hermite rule has NaN weights, and past 10 with uniform ones."""
        evaluated = record_batches(monkeypatch)
        schemes = [
            {"name": "hf", "kind": "hf", "hf": "hf"},
            {"name": "mf1", "kind": "mf", "hf": "hf", "lf": "lf", "q": 2},
        ]
        cfg = ishigami_config(tmp_path, tmp_path / "out", schemes=schemes, **overrides)
        assert main(["--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert evaluated == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"validation": 16}, "'validation' must be a mapping, got 16"),
            ({"levels": [1, 2]}, "'levels' must be a mapping, got [1, 2]"),
            ({"levels": {"min": "one"}}, "levels min must be an integer, got 'one'"),
            ({"levels": {"min": 2, "max": "two"}}, "levels max must be an integer, got 'two'"),
            ({"levels": {"min": 2, "max": 1}}, "levels max must be >= 2, got 1"),
            ({"variables": 3}, "'variables' must be a list, got 3"),
            ({"variables": ["x"]}, "a variable must be a mapping, got 'x'"),
            (
                {"reference": {"kind": "analytic", "a": "seven"}},
                "reference a must be a number, got 'seven'",
            ),
            ({"cache": 5}, "'cache' must be a path, got 5"),
            ({"levels": {"min": 1, "max": 1, "step": 2}}, "unknown levels keys: 'step'"),
            ({"validation": {"count": 100, "sed": 3}}, "unknown validation keys: 'sed'"),
            ({"levels": {"min": 1.5, "max": 2.9}}, "levels min must be an integer, got 1.5"),
            ({"levels": {"min": True}}, "levels min must be an integer, got True"),
            ({"validation": {"count": 100.7}}, "validation count must be an integer, got 100.7"),
            (
                {"schemes": [{"name": "mf", "kind": "mf", "hf": "hf", "lf": "lf", "q": 1.5}]},
                "scheme 'mf' q must be an integer, got 1.5",
            ),
            (
                {"models": [{"id": "hf", "builtin": 3}]},
                "model 'hf': builtin must be a string, got 3",
            ),
            (
                {"models": [{"id": "hf", "command": 5}]},
                "model 'hf': command must be a string, got 5",
            ),
            (
                {"models": [{"id": [1], "builtin": "ishigami/hf"}]},
                "model id must be a string, got [1]",
            ),
            (
                {"models": [{"id": "h\tf", "builtin": "ishigami/hf"}]},
                "model id must hold no tab or newline, got 'h\\tf'",
            ),
            (
                {"models": [{"id": "h\nf", "builtin": "ishigami/hf"}]},
                "model id must hold no tab or newline, got 'h\\nf'",
            ),
            (
                {"schemes": [{"name": "hf", "kind": "hf", "hf": [1]}]},
                "scheme 'hf' hf must be a string, got [1]",
            ),
            ({"problem": [1]}, "'problem' must be a string, got [1]"),
            (
                {"problem": "nonsense"},
                "'problem' must be one of borehole, ishigami, short_column, got 'nonsense'",
            ),
            (
                {
                    "problem": "nonsense",
                    "variables": [
                        {"name": n, "dist": "uniform", "a": 0.0, "b": 1.0} for n in "uvw"
                    ],
                },
                "'problem' must be one of borehole, ishigami, short_column, got 'nonsense'",
            ),
            (
                {"validation": {"count": 2**56 + 1}},
                f"validation count must be <= 2**56, got {2**56 + 1}",
            ),
            (
                {"reference": {"kind": "mc", "model": "hf", "n": 2**56 + 1}},
                f"reference n must be <= 2**56, got {2**56 + 1}",
            ),
            (
                {"variables": [{"name": [1], "dist": "uniform", "a": -1.0, "b": 1.0}]},
                "a variable name must be a string, got [1]",
            ),
            (
                {"reference": {"kind": "analytic", "a": True}},
                "reference a must be a number, got True",
            ),
            (
                {"variables": [{"name": "x", "dist": "uniform", "a": False, "b": True}]},
                "variable 'x' a must be a number, got False",
            ),
            (
                {"models": [{"id": "hf", "command": "python3 'unbalanced"}]},
                "model 'hf': command must be shell words (No closing quotation), "
                "got \"python3 'unbalanced\"",
            ),
            ({"models": [{"id": "hf", "command": "  "}]}, "model 'hf': command must name a program, got '  '"),
            (
                {"schemes": [{"name": [1], "kind": "hf", "hf": "hf"}]},
                "a scheme name must be a string, got [1]",
            ),
            ({"schemes": [{"name": "hf", "kind": "hf", "hf": None}]}, "scheme 'hf' hf is required"),
            (
                {"schemes": [{"name": "mf", "kind": "mf", "hf": "hf", "lf": "lf", "rt": True}]},
                "scheme 'mf' rt must be a number, got True",
            ),
            ({"output": [1]}, "'output' must be a string, got [1]"),
            (
                {"reference": {"kind": "analytic", "a": float("nan")}},
                "reference a must be finite, got nan",
            ),
            (
                {"models": [{"id": "hf", "builtin": "ishigami/hf", "fidelity": 3}]},
                "model 'hf': fidelity must be a string, got 3",
            ),
            (
                {"reference": {"kind": [1]}},
                "reference kind must be one of analytic, pce, mc, got [1]",
            ),
            (
                {"schemes": [{"name": "hf", "kind": "hf", "hf": "hf"}] * 2},
                "scheme names must be unique, got ['hf', 'hf']",
            ),
            (
                {
                    "variables": [
                        {"name": n, "dist": "uniform", "a": -3.0, "b": 3.0} for n in ("x", "y", "x")
                    ]
                },
                "variable names must be unique, got ['x', 'y', 'x']",
            ),
            (
                {"models": [{"id": "hf", "builtin": "ishigami/hf", "mode": "stream"}]},
                "model 'hf': a builtin model takes no mode",
            ),
            (
                {"models": [{"id": "hf", "builtin": "ishigami/hf", "fidelity": "lf3"}]},
                "model 'hf': a builtin model takes no fidelity",
            ),
            (
                {"schemes": [{"name": "hf", "kind": "hf", "hf": "hf", "q": 3}]},
                "kind hf takes no q",
            ),
            (
                {"schemes": [{"name": "hf", "kind": "hf", "hf": "hf", "lf": "lf"}]},
                "kind hf takes no lf",
            ),
            (
                {"schemes": [{"name": "hf", "kind": "hf", "hf": "hf", "rt": 0.5}]},
                "kind hf takes no rt",
            ),
            (
                {"schemes": [{"name": "lf", "kind": "lf", "hf": "hf", "lf": "lf", "q": 1}]},
                "kind lf takes no q",
            ),
        ],
        ids=[
            "validation_not_mapping",
            "levels_not_mapping",
            "levels_min_not_integer",
            "levels_max_not_integer",
            "levels_max_below_min",
            "variables_not_list",
            "variable_not_mapping",
            "reference_a_not_number",
            "cache_not_path",
            "levels_unknown_key",
            "validation_unknown_key",
            "levels_fractional",
            "levels_boolean",
            "validation_count_fractional",
            "scheme_q_fractional",
            "model_builtin_not_string",
            "model_command_not_string",
            "model_id_not_string",
            "model_id_tab",
            "model_id_newline",
            "scheme_model_not_string",
            "problem_not_string",
            "problem_unknown",
            "problem_unknown_with_variables",
            "validation_count_too_large",
            "reference_n_too_large",
            "variable_name_not_string",
            "reference_a_boolean",
            "variable_bound_boolean",
            "model_command_unbalanced_quote",
            "model_command_empty",
            "scheme_name_not_string",
            "scheme_hf_null",
            "scheme_rt_boolean",
            "output_not_string",
            "reference_a_nan",
            "model_fidelity_not_string",
            "reference_kind_not_string",
            "scheme_names_not_unique",
            "variable_names_not_unique",
            "builtin_model_mode",
            "builtin_model_fidelity",
            "hf_scheme_q",
            "hf_scheme_lf",
            "hf_scheme_rt",
            "lf_scheme_q",
        ],
    )
    def test_malformed_section_is_config_error(
        self, tmp_path, monkeypatch, capsys, overrides, message
    ):
        """A section that is not a mapping, an unknown key in a section, a
        missing or repeated key or name, or a value that is not an integer,
        a finite number, a string, a path or shell words exits 2 with one
        line naming it, before any model runs and before the output
        directory is created."""
        evaluated = record_batches(monkeypatch)
        cfg = ishigami_config(tmp_path, tmp_path / "out", **overrides)
        assert main(["--config", str(cfg), "converge"]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert evaluated == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["converge"], ["sobol", "--scheme", "hf", "--w", "1"]])
    def test_builtin_dimension_mismatch_is_config_error(self, tmp_path, monkeypatch, capsys, argv):
        """A builtin model whose input count differs from the config's
        variables exits 2 when the config is read, before any model runs."""
        evaluated = record_batches(monkeypatch)
        variables = [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}]
        cfg = ishigami_config(tmp_path, tmp_path / "out", variables=variables)
        assert main(["--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        message = "model 'hf': builtin 'ishigami/hf' takes 3 inputs, but the config has 1 variables"
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert evaluated == []

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {
                    "models": [
                        {"id": "hf", "builtin": "ishigami/lf7"},
                        {"id": "lf", "builtin": "ishigami/lf1"},
                    ]
                },
                "config error: unknown builtin model 'ishigami/lf7'\n",
            ),
            (
                {"variables": [{"name": n, "dist": "uniform", "a": 0.0, "b": 1.0} for n in "uv"]},
                "config error: model 'hf': builtin 'ishigami/hf' takes 3 inputs, "
                "but the config has 2 variables\n",
            ),
        ],
        ids=["unknown", "input_count"],
    )
    @pytest.mark.parametrize("argv", [["converge"], ["sobol", "--scheme", "hf", "--w", "1"]])
    def test_bad_builtin_exits_before_the_output_directory(
        self, tmp_path, capsys, argv, overrides, message
    ):
        """An unknown builtin, or one whose input count differs from the
        config's variables, is refused when the config is read: exit 2
        with one line, and ``--out`` is never created."""
        out = tmp_path / "fresh"
        cfg = ishigami_config(tmp_path, tmp_path / "out", **overrides)
        assert main(["--config", str(cfg), "--out", str(out), *argv]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sobol", "--scheme", "nope", "--w", "1"],
            ["sobol", "--scheme", "hf", "--w", "-1"],
            ["sobol", "--scheme", "hf", "--w", "2", "--q", "1"],
            ["decay", "--scheme", "nope", "--w", "1"],
            ["mc-check", "--model", "nope"],
            ["mc-check", "--model", "hf", "--n", str(2**56 + 1)],
        ],
        ids=[
            "unknown_scheme",
            "negative_w",
            "q_on_hf_scheme",
            "decay_unknown_scheme",
            "unknown_model",
            "n_too_large",
        ],
    )
    def test_bad_argument_exits_before_the_output_directory(self, tmp_path, capsys, argv):
        """A command argument that its config refuses exits 2 with one
        line, and ``--out`` is never created."""
        out = tmp_path / "fresh"
        cfg = ishigami_config(tmp_path, tmp_path / "out")
        assert main(["--config", str(cfg), "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, argv",
        [
            ({}, ["mc-check", "--model", "hf", "--n", str(2**56)]),
            ({"validation": {"count": 2**56}}, ["converge"]),
            ({"reference": {"kind": "mc", "model": "hf", "n": 2**56}}, ["converge"]),
        ],
        ids=["mc_check_n", "validation_count", "reference_n"],
    )
    def test_sample_count_past_memory_is_one_line(self, tmp_path, capsys, overrides, argv):
        """The largest sample count taken, 2**56, asks for a float64 column
        of 512 PiB, more than any address space holds: exit 2 with one
        line, no traceback."""
        cfg = ishigami_config(tmp_path, tmp_path / "out", **overrides)
        assert main(["--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1

    def test_analytic_reference_of_wrong_dimension_is_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        """The analytic reference is the 3-variable Ishigami decomposition:
        with borehole's 8 variables ``converge`` exits 2 before any model
        runs and before ``--out`` is created, while ``sobol``, which reads
        no reference, still runs."""
        cfg = write_config(
            tmp_path,
            {
                "problem": "borehole",
                "models": [{"id": "hf", "builtin": "borehole/hf"}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "hf"}],
                "reference": {"kind": "analytic"},
                "output": str(tmp_path / "out"),
            },
        )
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 0
        evaluated = record_batches(monkeypatch)
        capsys.readouterr()
        out = tmp_path / "fresh"
        assert main(["--config", str(cfg), "--out", str(out), "converge"]) == 2
        err = capsys.readouterr().err
        assert "the analytic reference needs 3 variables, got 8" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert evaluated == []
        assert not out.exists()

    def test_failed_reference_model_leaves_no_output_directory(self, tmp_path, capsys, spawned):
        """A PCE reference whose command model fails exits 3 with one line,
        and ``converge`` never creates ``--out``."""
        script = tmp_path / "model.py"
        script.write_text(STREAM_MODEL.format(output="'nan'"))
        cfg = write_config(
            tmp_path,
            {
                "variables": [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}],
                "models": [{"id": "m", "command": f"{sys.executable} {script}", "mode": "stream"}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "m"}],
                "reference": {"kind": "pce", "model": "m", "w": 1},
                "output": str(tmp_path / "out"),
            },
        )
        out = tmp_path / "fresh"
        assert main(["--config", str(cfg), "--out", str(out), "converge"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("model evaluation error: ") and err.count("\n") == 1
        assert not out.exists()
        assert spawned and all(child.poll() is not None for child in spawned)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failed_model_leaves_no_output_directory(self, tmp_path, capsys, spawned, command):
        """A command whose HF model exits 1 with no reply ends in exit 3
        with one line, before its first report, and creates no ``--out``."""
        models = [{"id": "hf", "command": "false", "mode": "stream"}, {"id": "lf", "builtin": "ishigami/lf1"}]
        cfg = ishigami_config(tmp_path, tmp_path / "out", models=models)
        out = tmp_path / "fresh"
        assert main(["--config", str(cfg), "--out", str(out), *COMMANDS[command]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("model evaluation error: ") and err.count("\n") == 1
        assert not out.exists()
        assert spawned and all(child.poll() is not None for child in spawned)

    @pytest.mark.parametrize("output, code", [("x", 0), ("'nan'", 3)], ids=["ok", "model_error"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sobol", "--scheme", "hf", "--w", "1"],
            ["converge"],
            ["decay", "--scheme", "hf", "--w", "1"],
            ["mc-check", "--model", "m", "--n", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_stream_child_outlives_the_command(self, tmp_path, spawned, argv, output, code):
        script = tmp_path / "model.py"
        script.write_text(STREAM_MODEL.format(output=output))
        cfg = write_config(
            tmp_path,
            {
                "variables": [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}],
                "models": [{"id": "m", "command": f"{sys.executable} {script}", "mode": "stream"}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "m"}],
                "levels": {"min": 1, "max": 1},
                "reference": {"kind": "pce", "model": "m", "w": 1},
                "validation": {"count": 8},
                "output": str(tmp_path / "out"),
            },
        )
        assert main(["--config", str(cfg), *argv]) == code
        assert spawned and all(child.poll() is not None for child in spawned)

    @pytest.mark.parametrize(
        "mode, model, message",
        [
            (
                "oneshot",
                "x = float(input())\nif x > 0.5:\n    sys.exit('x above 0.5')\nprint(x)",
                "exit status 1; stderr: x above 0.5",
            ),
            (
                "stream",
                STREAM_FAULT.format(fault="print('garbage', flush=True)"),
                "malformed response 'garbage'",
            ),
            ("stream", STREAM_FAULT.format(fault="break"), "closed its output"),
            *[
                (mode, f"import os, time\n{close}\ntime.sleep(30)", "closed its output")
                for mode in ("oneshot", "stream")
                for close in ("os.close(1)", "os.close(1); os.close(2)")
            ],
        ],
        ids=[
            "oneshot_exit", "stream_garbage", "stream_exit",
            "oneshot_closed_stdout", "oneshot_closed_output",
            "stream_closed_stdout", "stream_closed_output",
        ],
    )
    def test_external_fault_is_model_error(
        self, tmp_path, monkeypatch, capsys, spawned, mode, model, message
    ):
        """A oneshot child failing above 0.5, a stream child answering
        garbage or exiting at its third request, or a child of either mode
        that closes its stdout, or its stdout and stderr, before its first
        reply and then sleeps 30 s, exits 3 within 5 s with one line naming
        the node, and leaves no child running. The sleeping child is killed
        once the deadline after the end of its output has passed: 0.2 s
        here, 10 s as shipped."""
        monkeypatch.setattr("mfpce.models._LINGER_S", 0.2)
        script = tmp_path / "model.py"
        script.write_text("import sys\n" + model)
        cfg = write_config(
            tmp_path,
            {
                "variables": [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}],
                "models": [{"id": "m", "command": f"{sys.executable} {script}", "mode": mode}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "m"}],
                "reference": {"kind": "pce", "model": "m", "w": 1},
                "output": str(tmp_path / "out"),
            },
        )
        start = time.monotonic()
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "3"]) == 3
        assert time.monotonic() - start < 5
        err = capsys.readouterr().err
        assert "at node (" in err and message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert spawned and all(child.poll() is not None for child in spawned)

    def test_child_that_ends_its_output_unread_is_model_error(self, tmp_path):
        """A stream child that closes its stdout and stderr, then exits 1
        without reading a request, while ``converge``'s 2,000 validation
        requests (about 120 kB) fill its input pipe: its input is the last
        pipe to close, and the command exits 3 within the child
        interpreter's 30 s bound, naming the exit status."""
        script = tmp_path / "model.py"
        script.write_text("import os, time\nos.close(1)\nos.close(2)\ntime.sleep(0.5)\nos._exit(1)\n")
        models = [
            {"id": "hf", "command": f"{sys.executable} {script}", "mode": "stream"},
            {"id": "lf", "builtin": "ishigami/lf1"},
        ]
        cfg = ishigami_config(tmp_path, tmp_path / "out", models=models)
        argv = [sys.executable, "-m", "mfpce.cli", "--config", str(cfg), "converge"]
        done = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=30)
        assert done.returncode == 3
        assert done.stderr.startswith("model evaluation error: ") and "exit status 1" in done.stderr

    @pytest.mark.parametrize("mode", ["oneshot", "stream"])
    def test_over_long_reply_line_is_malformed_at_once(self, tmp_path, capsys, spawned, mode):
        """A child answering with one 16 MB line exits 3 in under 1 s, with
        one stderr line under 1 KB, no traceback and no child left: the line
        is malformed once it passes 4 KiB, and only its start is quoted."""
        script = tmp_path / "model.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n"
            "    sys.stdout.write('1' * (16 << 20) + '\\n')\n    sys.stdout.flush()\n"
        )
        cfg = write_config(
            tmp_path,
            {
                "variables": [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}],
                "models": [{"id": "m", "command": f"{sys.executable} {script}", "mode": mode}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "m"}],
                "reference": {"kind": "pce", "model": "m", "w": 1},
                "output": str(tmp_path / "out"),
            },
        )
        start = time.monotonic()
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 3
        assert time.monotonic() - start < 1
        err = capsys.readouterr().err
        assert "malformed response of over 4096 bytes '111" in err and "Traceback" not in err
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert spawned and all(child.poll() is not None for child in spawned)

    def test_long_stderr_line_is_quoted_cut(self, tmp_path, capsys, spawned):
        """A oneshot child that writes one 100 KB stderr line and exits 1
        exits 3 with one stderr line under 1 KB and no traceback: a quoted
        stderr line is cut as a quoted reply is."""
        script = tmp_path / "model.py"
        script.write_text("import sys\nsys.stderr.write('e' * 100_000 + '\\n')\nsys.exit(1)\n")
        cfg = write_config(
            tmp_path,
            {
                "variables": [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}],
                "models": [{"id": "m", "command": f"{sys.executable} {script}"}],
                "schemes": [{"name": "hf", "kind": "hf", "hf": "m"}],
                "reference": {"kind": "analytic"},
                "output": str(tmp_path / "out"),
            },
        )
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 3
        err = capsys.readouterr().err
        assert f"exit status 1; stderr: {'e' * 64}...\n" in err and "Traceback" not in err
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert spawned and all(child.poll() is not None for child in spawned)

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
    def test_stop_signal_reaps_a_hung_stream_child(self, tmp_path, signum):
        """SIGINT or SIGTERM, sent while a stream child hangs on request 101
        of the 159 of ``sobol --scheme hf --w 3``, once it has answered the
        first 100, ends ``mfpce`` with one line and exit 128 + the signal
        number, no traceback, and the child gone within 2 s. A stopped
        stream batch keeps none of its rows, so no cache file is written."""
        requests = ishigami_w3_requests()
        pid_file = tmp_path / "child.pid"
        hung = tmp_path / "hung"
        script = tmp_path / "model.py"
        script.write_text(
            "import os\n"
            f"open({str(pid_file)!r} + '.tmp', 'w').write(str(os.getpid()))\n"
            f"os.replace({str(pid_file)!r} + '.tmp', {str(pid_file)!r})\n"
            + ISHIGAMI_FAULT_AT.format(
                target=requests[100], fault=f"open({str(hung)!r}, 'w').close(); time.sleep(3600)"
            )
        )
        cfg = cached_ishigami_config(tmp_path, f"{sys.executable} {script}", "stream")
        cache = tmp_path / "cache.tsv"
        env = child_env()
        argv = [sys.executable, "-m", "mfpce.cli", "--config", str(cfg), "sobol", "--scheme", "hf", "--w", "3"]
        pid = None
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                deadline = time.monotonic() + 30
                while not hung.exists() and proc.poll() is None and time.monotonic() < deadline:
                    time.sleep(0.02)
                pid = int(pid_file.read_text())
                proc.send_signal(signum)
                sent = time.monotonic()
                _, err = proc.communicate(timeout=10)
                while time.monotonic() - sent < 2 and child_running(pid):
                    time.sleep(0.02)
                assert proc.returncode == 128 + signum
                assert err == f"stopped by {signum.name}\n"
                assert not child_running(pid)
                assert not cache.exists()
            finally:
                proc.kill()
                if pid is not None and child_running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_signal_handlers_are_restored(self, tmp_path):
        """An in-process caller keeps its own handlers, after a success
        and after an error."""
        before = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
        cfg = ishigami_config(tmp_path, tmp_path / "out")
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 0
        assert [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)] == before
        assert main(["sobol", "--scheme", "hf", "--w", "1"]) == 2
        assert [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)] == before


def child_running(pid: int) -> bool:
    """Whether the process ``pid`` still exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_mfpce_environment_changes_nothing(tmp_path, monkeypatch, capsys):
    """``MFPCE_CONFIG``, ``MFPCE_OUT`` and ``MFPCE_SEED`` are not read:
    with no ``--config`` the exit is 2, and ``mc-check`` draws from the
    config's seed into the config's output directory."""
    out, env_out = tmp_path / "out", tmp_path / "env_out"
    cfg = ishigami_config(tmp_path, out)
    monkeypatch.setenv("MFPCE_CONFIG", str(cfg))
    monkeypatch.setenv("MFPCE_OUT", str(env_out))
    monkeypatch.setenv("MFPCE_SEED", "99")
    assert main(["sobol", "--scheme", "hf", "--w", "1"]) == 2
    assert capsys.readouterr().err == "config error: no config given (use --config)\n"
    assert main(["--config", str(cfg), "mc-check", "--model", "hf", "--n", "512"]) == 0
    assert json.loads((out / "mc_hf_n512.json").read_text())["seed"] == 3
    assert not env_out.exists()


def modules_after(code: str, *args: str) -> set[str]:
    """The names in ``sys.modules`` of a fresh interpreter that imports
    ``mfpce`` from this tree, once it has run ``code`` with ``args`` as
    ``sys.argv[1:]``."""
    probe = f"{code}\nimport sys; print(*sorted(sys.modules))"
    argv = [sys.executable, "-c", probe, *args]
    done = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_import_does_not_load_scipy():
    """The CLI runs on numpy alone: importing it in a fresh interpreter
    loads no SciPy module, nor ``numpy.random``."""
    assert not {"scipy", "numpy.random"} & modules_after("import mfpce.cli")


def test_builtin_converge_loads_no_process_machinery(tmp_path):
    """Only an external batch imports ``subprocess`` and ``selectors``: a
    fresh interpreter that runs a ``converge`` of builtin models has loaded
    neither."""
    cfg = ishigami_config(tmp_path, tmp_path / "out")
    run = "import sys; from mfpce.cli import main; assert main(['--config', sys.argv[1], 'converge']) == 0"
    assert not {"subprocess", "selectors"} & modules_after(run, str(cfg))
    assert (tmp_path / "out" / "convergence.csv").exists()


@pytest.mark.parametrize("argv", [["converge"], ["mc-check", "--model", "hf", "--n", "64"]])
def test_uniform_draws_load_no_numpy_random(tmp_path, argv):
    """Uniform validation points and Monte Carlo samples come from
    ``mfpce.philox``: a fresh interpreter that draws them has not loaded
    ``numpy.random`` and its ``secrets`` → ``hashlib`` chain."""
    cfg = ishigami_config(tmp_path, tmp_path / "out")
    run = "import sys; from mfpce.cli import main; assert main(['--config', *sys.argv[1:]]) == 0"
    assert "numpy.random" not in modules_after(run, str(cfg), *argv)


def test_normal_input_draws_numpy_points(tmp_path, monkeypatch):
    """A config with a normal input validates on the points of numpy's
    ``Generator(Philox(key=seed))``, bit for bit: its normal column comes
    from numpy's ziggurat, after the two uniform columns' words."""
    calls, batch = [], Model.batch

    def recorded(self, X, on_answered=None):
        if on_answered is None:  # the validation truths
            calls.append(X)
        return batch(self, X, on_answered)

    monkeypatch.setattr(Model, "batch", recorded)
    cfg = ishigami_config(tmp_path, tmp_path / "out", variables=ONE_NORMAL)
    assert main(["--config", str(cfg), "converge"]) == 0
    rng = np.random.Generator(np.random.Philox(key=3))
    columns = [rng.uniform(-3.0, 3.0, 2000), rng.uniform(-3.0, 3.0, 2000), rng.normal(0.0, 1.0, 2000)]
    want = np.column_stack(columns)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0].view(np.uint64), want.view(np.uint64))

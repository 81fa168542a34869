import collections
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from mfpce.cli import main
from mfpce.models import ISHIGAMI_SPECS, ExternalModel, Model
from mfpce.sparse_grid import smolyak_grid


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


def record_batches(monkeypatch) -> list:
    """Make every batch, of a builtin or a command model, record its model
    id instead of running; a test that finds none proves no model ran."""
    ids = []
    for cls in (Model, ExternalModel):
        monkeypatch.setattr(cls, "batch", lambda self, X: ids.append(self.id))
    return ids


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


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

    @pytest.mark.parametrize("name", ["ishigami", "borehole"])
    def test_shipped_config_reproduces_its_pinned_csv(self, tmp_path, name):
        """``converge --seed 7`` on a shipped config writes, byte for byte,
        the ``convergence.csv`` kept in ``tests/data`` (written with numpy
        2.4 and OpenBLAS on x86-64). A printed digit that moves is a change
        in the numbers, to be explained or mended."""
        root = Path(__file__).resolve().parent
        config = root.parent / "configs" / f"{name}.yaml"
        argv = ["--config", str(config), "--out", str(tmp_path), "--seed", "7", "converge"]
        assert main(argv) == 0
        got = (tmp_path / "convergence.csv").read_text()
        assert got == (root / "data" / f"convergence_{name}_seed7.csv").read_text()

    def test_no_cells_writes_the_header_only(self, tmp_path):
        """With every scheme's ``q`` above ``levels.max`` there is no cell
        to build or validate: the csv is its header alone, and exit 0."""
        out = tmp_path / "out"
        mf = {"name": "mf", "kind": "mf", "hf": "hf", "lf": "lf", "q": 3, "rt": 0.125}
        cfg = ishigami_config(tmp_path, out, schemes=[mf])
        assert main(["--config", str(cfg), "converge"]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines == ["scheme,w,q,n_hf,n_lf,n_e,n_tot,mare,r2,e,e_t,mean,std"]


class TestDecayCommand:
    def test_mf_decay_includes_all_spectra(self, tmp_path, monkeypatch):
        rows = collections.Counter()
        batch = Model.batch
        monkeypatch.setattr(
            Model, "batch", lambda self, X: rows.update({self.id: len(X)}) or batch(self, X)
        )
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        assert main(["--config", str(cfg), "decay", "--scheme", "mf", "--w", "2"]) == 0
        lines = (out / "decay_mf_w2.csv").read_text().splitlines()
        provenances = {line.split(",")[0] for line in lines[1:]}
        assert provenances == {"LF", "Correction", "Combined", "HF"}
        # The HF spectrum at w - q = 1 reuses the correction's HF values.
        assert rows["hf"] == len(smolyak_grid(3, 1, ISHIGAMI_SPECS))


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
    def test_missing_config_is_config_error(self, monkeypatch):
        monkeypatch.delenv("MFPCE_CONFIG", raising=False)
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
        ],
        ids=[
            "sobol_w",
            "sobol_q",
            "sobol_q_on_hf_scheme",
            "sobol_w_below_q",
            "decay_w_below_q",
            "mc_check_n",
            "seed",
            "validation_count",
            "validation_seed",
            "reference_pce_w",
            "reference_mc_n",
            "reference_mc_seed",
        ],
    )
    def test_out_of_range_number_is_config_error(
        self, tmp_path, monkeypatch, capsys, argv, overrides, message
    ):
        """Exit 2 with one line naming the value, before any model runs."""
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
        missing or repeated key, or a value that is not an integer, a finite
        number, a string, a path or shell words exits 2 with one line
        naming it, before any model runs."""
        evaluated = record_batches(monkeypatch)
        cfg = ishigami_config(tmp_path, tmp_path / "out", **overrides)
        assert main(["--config", str(cfg), "converge"]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert evaluated == []

    @pytest.mark.parametrize("argv", [["converge"], ["sobol", "--scheme", "hf", "--w", "1"]])
    def test_builtin_dimension_mismatch_is_config_error(self, tmp_path, monkeypatch, capsys, argv):
        """A builtin model whose input count differs from the config's
        variables exits 2 when the models are loaded, before any runs."""
        evaluated = record_batches(monkeypatch)
        variables = [{"name": "x", "dist": "uniform", "a": -1.0, "b": 1.0}]
        cfg = ishigami_config(tmp_path, tmp_path / "out", variables=variables)
        assert main(["--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        message = "model 'hf': builtin 'ishigami/hf' takes 3 inputs, but the config has 1 variables"
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert evaluated == []

    def test_analytic_reference_of_wrong_dimension_is_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        """The analytic reference is the 3-variable Ishigami decomposition:
        with borehole's 8 variables ``converge`` exits 2 before any model
        runs, while ``sobol``, which reads no reference, still runs."""
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
        assert main(["--config", str(cfg), "converge"]) == 2
        err = capsys.readouterr().err
        assert "the analytic reference needs 3 variables, got 8" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert evaluated == []

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
        ],
        ids=["oneshot_exit", "stream_garbage", "stream_exit"],
    )
    def test_external_fault_is_model_error(self, tmp_path, capsys, spawned, mode, model, message):
        """A oneshot child failing above 0.5, or a stream child answering
        garbage or exiting at its third request, exits 3 within 5 s with
        one line naming the node, and leaves no child running."""
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
        assert spawned and all(child.poll() is not None for child in spawned)

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
    def test_stop_signal_reaps_a_hung_stream_child(self, tmp_path, signum):
        """SIGINT or SIGTERM, sent while a stream child hangs on its first
        request, ends ``mfpce`` with one line and exit 128 + the signal
        number, no traceback, and the child gone within 2 s."""
        pid_file = tmp_path / "child.pid"
        script = tmp_path / "model.py"
        script.write_text(
            "import os, sys, time\n"
            f"open({str(pid_file)!r} + '.tmp', 'w').write(str(os.getpid()))\n"
            f"os.replace({str(pid_file)!r} + '.tmp', {str(pid_file)!r})\n"
            "for line in sys.stdin:\n    time.sleep(3600)\n"
        )
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
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "mfpce.cli", "--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]
        pid = None
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                deadline = time.monotonic() + 30
                while not pid_file.exists() and proc.poll() is None and time.monotonic() < deadline:
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
            finally:
                proc.kill()
                if pid is not None and child_running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_signal_handlers_are_restored(self, tmp_path, monkeypatch):
        """An in-process caller keeps its own handlers, after a success
        and after an error."""
        before = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
        cfg = ishigami_config(tmp_path, tmp_path / "out")
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 0
        assert [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)] == before
        monkeypatch.delenv("MFPCE_CONFIG", raising=False)
        assert main(["sobol", "--scheme", "hf", "--w", "1"]) == 2
        assert [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)] == before


def child_running(pid: int) -> bool:
    """Whether the process ``pid`` still exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestEnvironmentOverrides:
    def test_config_and_out_from_env(self, tmp_path, monkeypatch):
        out = tmp_path / "env_out"
        cfg = ishigami_config(tmp_path, tmp_path / "ignored")
        monkeypatch.setenv("MFPCE_CONFIG", str(cfg))
        monkeypatch.setenv("MFPCE_OUT", str(out))
        assert main(["sobol", "--scheme", "hf", "--w", "1"]) == 0
        assert (out / "sobol_hf_w1.json").exists()

    def test_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        monkeypatch.setenv("MFPCE_SEED", "99")
        assert main(["--config", str(cfg), "mc-check", "--model", "hf", "--n", "512"]) == 0
        payload = json.loads((out / "mc_hf_n512.json").read_text())
        assert payload["seed"] == 99


def test_import_does_not_load_scipy():
    """The CLI runs on numpy alone: importing it in a fresh interpreter
    loads no SciPy module."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, mfpce.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

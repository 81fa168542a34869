import json
import sys

import pytest
import yaml

from mfpce.cli import main


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def ishigami_config(tmp_path, out, **overrides):
    data = {
        "problem": "ishigami",
        "models": [
            {"id": "hf", "builtin": "ishigami/hf"},
            {"id": "lf", "builtin": "ishigami/lf1", "cost_unit": 0.125},
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


class TestDecayCommand:
    def test_mf_decay_includes_all_spectra(self, tmp_path):
        out = tmp_path / "out"
        cfg = ishigami_config(tmp_path, out)
        assert main(["--config", str(cfg), "decay", "--scheme", "mf", "--w", "2"]) == 0
        lines = (out / "decay_mf_w2.csv").read_text().splitlines()
        provenances = {line.split(",")[0] for line in lines[1:]}
        assert provenances == {"LF", "Correction", "Combined", "HF"}


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

    def test_invalid_config_is_config_error(self, tmp_path):
        path = write_config(tmp_path, {"problem": "ishigami"})
        assert main(["--config", str(path), "converge"]) == 2

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
        # A crash during an append leaves a truncated last record.
        cache.write_text("hf\t0 0 0\t3.5\nhf\t1 2\n")
        cfg = ishigami_config(tmp_path, out, cache=str(cache))
        assert main(["--config", str(cfg), "sobol", "--scheme", "hf", "--w", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{cache}:2:" in err
        assert "Traceback" not in err

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

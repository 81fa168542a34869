"""Self-tests of the benchmark itself (not of mfpce).

    python3 -m pytest -q bench/selftest.py

They check that the tracer wraps every alias, counts exactly and restores
everything; that a tiny ishigami study yields every metric of
``BENCHMARK.json`` with its unit; that the correctness gate counts each bad
output; and that the stand-in models speak the mfpce wire protocol.
"""

from __future__ import annotations

import collections
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, Outcome, Workload, load_reference  # noqa: E402

TINY_CONVERGE = """\
problem: ishigami
models:
  - {id: hf, builtin: ishigami/hf}
  - {id: lf1, builtin: ishigami/lf1}
schemes:
  - {name: hf, kind: hf, hf: hf}
  - {name: mf1, kind: mf, hf: hf, lf: lf1, q: 1, rt: 0.125}
levels: {min: 1, max: 2}
reference: {kind: analytic, a: 7.0, b: 0.1}
validation: {count: 500, seed: 3}
"""


def tiny_sobol_config(passdir: Path) -> str:
    """Ishigami through the external stand-in in both protocol modes, with a
    persistent cache in ``passdir``."""
    model = f"{sys.executable} {ROOT / 'scripts' / 'ishigami_model.py'}"
    return f"""\
problem: ishigami
models:
  - {{id: hf, command: "{model}", mode: oneshot}}
  - {{id: lf, command: "{model}", mode: stream, fidelity: lf1}}
schemes:
  - {{name: mf1, kind: mf, hf: hf, lf: lf, q: 1}}
reference: {{kind: analytic}}
cache: "{passdir / 'cache.tsv'}"
"""


def tiny_invocations(passdir: Path, seed: int):
    converge = passdir / "converge.yaml"
    converge.write_text(TINY_CONVERGE)
    sobol = passdir / "sobol.yaml"
    sobol.write_text(tiny_sobol_config(passdir))
    calls = [
        (label, ["--config", str(sobol), "--out", str(passdir / label), "sobol", "--scheme", "mf1", "--w", "2"])
        for label in ("cold", "warm")
    ]
    converge_argv = ["--config", str(converge), "--out", str(passdir / "out"), "--seed", str(seed), "converge"]
    return calls + [("converge", converge_argv)]


def tiny_check(passdir: Path, seed: int) -> Outcome:
    out = Outcome(attempted=3)
    for label in ("cold", "warm"):
        report = json.loads((passdir / label / "sobol_mf1_w2.json").read_text())
        out.hf_evals += report["n_hf"]
        out.lf_evals += report["n_lf"]
    if not (passdir / "out" / "convergence.csv").is_file():
        out.fail("no convergence.csv")
    return out


TINY = Workload("tiny", tiny_invocations, tiny_check, ops=3, cache_file="cache.tsv")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_study_yields_every_metric_with_its_unit(tmp_path, trace):
    result = run.measure(TINY, seed=1, seconds=0, trace=trace, workdir=tmp_path)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == 3 * (2 if trace else 1)
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        # Every traced layer is hit by the tiny study.
        for name, (span, key) in run.SPAN_METRICS.items():
            if key == "calls":
                assert values[name] > 0, name
        assert values["models.external.oneshot.evals"] > 0
        assert values["models.external.stream.evals"] > 0
        assert values["models.EvalCache.bytes_appended"] > 0
        assert values["cli.main.cold_s"] > 0 and values["cli.main.warm_s"] > 0
    else:
        assert all(values[k] > 0 for k in values)


def _bindings():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "mfpce" or name.startswith("mfpce.")
        for key, value in vars(module).items()
    }


def test_aliases_are_rebound_hit_counted_exactly_and_restored(tmp_path):
    import mfpce.cli
    import mfpce.models

    before = _bindings()
    methods_before = {}
    for _, cls_name, method, *_ in tracer.METHODS:
        cls = getattr(mfpce.models, cls_name)
        methods_before[(cls, method)] = cls.__dict__[method]
    t = tracer.Tracer("test")
    aliases = set(tracer.install(t))
    try:
        for module in ("mfpce", "mfpce.sparse_grid", "mfpce.pce", "mfpce.mf", "mfpce.study"):
            assert (module, "smolyak_grid") in aliases
        for module, attr, _ in tracer.FUNCTIONS:
            original = before[(f"mfpce.{module}", attr)]
            assert not any(v is original for v in _bindings().values()), f"{module}.{attr} left unwrapped"

        # Count calls of every original independently with a profiler.
        codes = {}
        for module, attr, _ in tracer.FUNCTIONS:
            fn = before[(f"mfpce.{module}", attr)]
            if hasattr(fn, "__code__"):  # gauss_rule's lru_cache runs no Python code on a hit
                codes[fn.__code__] = f"{module}.{attr}"
        for (_, cls_name, method, name, *_), fn in zip(tracer.METHODS, methods_before.values()):
            if isinstance(name, str):
                codes[fn.__code__] = name
        seen = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                seen[codes[frame.f_code]] += 1

        config = tmp_path / "tiny.yaml"
        config.write_text(TINY_CONVERGE)
        sys.setprofile(profile)
        try:
            rc = mfpce.cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "converge"])
        finally:
            sys.setprofile(None)
        assert rc == 0
    finally:
        tracer.uninstall(t)

    after = _bindings()
    assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
    assert all(cls.__dict__[m] is fn for (cls, m), fn in methods_before.items())
    summary = tracer.summarize(t.spans)
    traced = {name: row["calls"] for name, row in summary.items()}
    for name, count in seen.items():
        assert traced.get(name) == count, (name, traced.get(name), count)
    # Two single-fidelity HF builds (w=1, 2) and two MF builds.
    assert traced["study.build_scheme"] == 4
    assert traced["sparse_grid.smolyak_grid"] == seen["sparse_grid.smolyak_grid"] > 0
    assert traced["orthopoly.gauss_rule"] >= 1
    # self time never exceeds inclusive time, and children nest inside parents
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["s"] + 1e-12
    for name, start, end, parent, *_ in t.spans:
        if parent is not None:
            assert t.spans[parent][1] <= start <= end <= t.spans[parent][2]


def _write_convergence(path: Path, rows: dict, seeded: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = "scheme,w,q,n_hf,n_lf,n_e,n_tot,mare,r2,e,e_t,mean,std".split(",")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for key, row in rows.items():
            full = {"scheme": key.split(",")[0], **row, **seeded[key]}
            fh.write(",".join(f"{full[c]:.12g}" if isinstance(full[c], float) else str(full[c]) for c in cols) + "\n")


def test_converge_gate_counts_each_bad_row(tmp_path):
    ref = load_reference("ishigami_converge")
    seed = next(iter(ref["validation"]))
    csv_path = tmp_path / "out" / "convergence.csv"
    _write_convergence(csv_path, ref["rows"], ref["validation"][seed])
    good = workloads.check_ishigami(tmp_path, int(seed))
    assert (good.attempted, good.failed) == (14, 0), good.problems
    assert good.hf_evals == sum(r["n_hf"] for r in ref["rows"].values())

    def mutated(key, col, value):
        rows = json.loads(json.dumps(ref["rows"]))
        rows[key][col] = value
        _write_convergence(csv_path, rows, ref["validation"][seed])
        return workloads.check_ishigami(tmp_path, int(seed))

    assert mutated("hf,3", "n_hf", 160).failed == 1
    assert mutated("lf1,2", "mean", ref["rows"]["lf1,2"]["mean"] * (1 + 1e-9)).failed == 1
    assert mutated("hf,5", "e", 2e-12).failed == 1
    rows = dict(ref["rows"])
    del rows["mf1,3"]
    _write_convergence(csv_path, rows, ref["validation"][seed])
    missing = workloads.check_ishigami(tmp_path, int(seed))
    assert (missing.attempted, missing.failed) == (14, 1)
    # An unstored seed still gets the seed-free checks.
    _write_convergence(csv_path, ref["rows"], ref["validation"][seed])
    assert workloads.check_ishigami(tmp_path, 10**6).failed == 0


def test_ishigami_oracle_is_the_closed_form():
    from mfpce.study import ishigami_analytic

    oracle = workloads.ishigami_oracle()
    exact = ishigami_analytic(7.0, 0.1)
    assert oracle["mean"] == exact.mean
    assert oracle["std"] == pytest.approx(exact.variance**0.5, rel=1e-15)
    assert oracle["totals"] == pytest.approx(exact.total_indices, rel=1e-15)
    assert oracle["subsets"] == pytest.approx(exact.subset_indices, rel=1e-15)


def _write_sobol(outdir: Path, report: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sobol_mf1_w5.json").write_text(json.dumps(report))
    with open(outdir / "sobol_mf1_w5_totals.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variable", "total_index"])
        for t in report["total_indices"]:
            writer.writerow([t["variable"], f"{t['value']:.12g}"])


def test_cached_gate_compares_cold_with_reference_and_warm_with_cold(tmp_path):
    cold = load_reference("short_column_external_cached")["cold"]
    warm = {**cold, "n_hf": 1, "n_lf": 431}
    _write_sobol(tmp_path / "cold", cold)
    _write_sobol(tmp_path / "warm", warm)
    good = workloads.check_short_column(tmp_path, 0)
    assert (good.attempted, good.failed, good.hf_evals, good.lf_evals) == (2, 0, 82, 10794)

    _write_sobol(tmp_path / "warm", {**warm, "variance": np.nextafter(cold["variance"], 1.0)})
    assert workloads.check_short_column(tmp_path, 0).failed == 1
    _write_sobol(tmp_path / "warm", {**warm, "n_hf": 82})
    assert workloads.check_short_column(tmp_path, 0).failed == 1
    (tmp_path / "warm" / "sobol_mf1_w5.json").unlink()
    assert workloads.check_short_column(tmp_path, 0).failed == 1
    # A wrong cold report fails both: the warm one cannot be verified.
    _write_sobol(tmp_path / "warm", warm)
    _write_sobol(tmp_path / "cold", {**cold, "mean": cold["mean"] * (1 + 1e-9)})
    assert workloads.check_short_column(tmp_path, 0).failed == 2


@pytest.mark.parametrize("variant", ["hf", "lf4"])
def test_stand_ins_speak_the_wire_protocol(variant):
    from mfpce.models import SHORT_COLUMN_SPECS, ExternalModel, builtin_model

    rng = np.random.default_rng(5)
    X = np.column_stack([s.sample(rng, 6) for s in SHORT_COLUMN_SPECS])
    command = f"{sys.executable} {workloads.SHORT_COLUMN_MODEL} {variant}"
    request = " ".join(f"{c:.17g}" for c in X[0]) + "\n"
    oneshot = subprocess.run(command.split(), input=request, capture_output=True, text=True, timeout=30)
    assert oneshot.returncode == 0
    lines = oneshot.stdout.splitlines()
    assert len(lines) == 1 and lines[0] == f"{float(lines[0]):.17g}"

    want = builtin_model("short_column", variant).batch(X)
    for mode in ("oneshot", "stream"):
        model = ExternalModel(command, mode=mode)
        try:
            got = model.batch(X)
        finally:
            model.close()
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ishigami_converge", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

#!/usr/bin/env python3
"""The mfpce benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's mfpce CLI invocations (see ``workloads.py``), each in a
fresh single-threaded worker process, one at a time. A pass is one round of
a workload's invocations in its own temporary directory; passes repeat
until ``S`` seconds have gone by, at least once. Every output of every pass
is checked. The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: median per pass of
``run_s``, ``setup_s`` from the median of several worker start-ups, the
highest ``peak_rss_mb`` and the exact ``hf_evals``/``lf_evals``. With
``--trace 1`` one more pass runs with the mfpce layers wrapped (see
``tracer.py``); the metrics are the per-layer ones from that pass, and its
outputs must equal the untraced pass's byte for byte.

Exits 2 without a result when the mfpce sources or the references are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from workloads import BENCH, ROOT, WORKLOADS, Outcome, load_reference

WORKER = BENCH / "worker.py"
SRC = ROOT / "src"
#: Import-only workers per run, on top of the workload's own, so that
#: ``setup_s`` is a median even when a pass is a single invocation.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0

#: The workloads and metrics, with their units and reasons.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics read straight off a span: name -> (span name, field
#: of tracer.summarize). The others are derived in ``layer_metrics``.
SPAN_METRICS = {
    "sparse_grid.tensor_grid.calls": ("sparse_grid.tensor_grid", "calls"),
    "sparse_grid.tensor_grid.self_s": ("sparse_grid.tensor_grid", "self_s"),
    "sparse_grid.smolyak_grid.calls": ("sparse_grid.smolyak_grid", "calls"),
    "sparse_grid.smolyak_grid.self_s": ("sparse_grid.smolyak_grid", "self_s"),
    "sparse_grid.smolyak_grid.nodes": ("sparse_grid.smolyak_grid", "nodes"),
    "pce.project.calls": ("pce.project", "calls"),
    "pce.project.self_s": ("pce.project", "self_s"),
    "pce.project.coefficients": ("pce.project", "coefficients"),
    "pce.evaluate_batch.calls": ("pce.evaluate_batch", "calls"),
    "pce.evaluate_batch.self_s": ("pce.evaluate_batch", "self_s"),
    "pce.evaluate_batch.point_terms": ("pce.evaluate_batch", "point_terms"),
    "orthopoly.eval_poly_table.calls": ("orthopoly.eval_poly_table", "calls"),
    "orthopoly.eval_poly_table.self_s": ("orthopoly.eval_poly_table", "self_s"),
    "orthopoly.gauss_rule.calls": ("orthopoly.gauss_rule", "calls"),
    "models.EvalCache.evaluate_many.calls": ("models.EvalCache.evaluate_many", "calls"),
    "models.EvalCache.evaluate_many.self_s": ("models.EvalCache.evaluate_many", "self_s"),
    "models.EvalCache.requested": ("models.EvalCache.evaluate_many", "requested"),
    "models.EvalCache.misses": ("models.EvalCache.evaluate_many", "misses"),
    "models.EvalCache.init_s": ("models.EvalCache.__init__", "s"),
    "models.Model.batch.self_s": ("models.Model.batch", "self_s"),
    "models.external.oneshot.evals": ("models.external.oneshot", "evals"),
    "models.external.oneshot.s": ("models.external.oneshot", "s"),
    "models.external.stream.evals": ("models.external.stream", "evals"),
    "models.external.stream.s": ("models.external.stream", "s"),
    "mf.build_mf_parts.self_s": ("mf.build_mf_parts", "self_s"),
    "sobol.all_indices.self_s": ("sobol.all_indices", "self_s"),
    "study.build_scheme.calls": ("study.build_scheme", "calls"),
    "study.prediction_error.self_s": ("study.prediction_error", "self_s"),
    "study.write_convergence_csv.self_s": ("study.write_convergence_csv", "self_s"),
    "config.load_config.self_s": ("config.load_config", "self_s"),
    "config.build_reference.s": ("config.build_reference", "s"),
    "cli.main.s": ("cli.main", "s"),
}


def worker_env() -> dict[str, str]:
    """The caller's environment without mfpce overrides, with every BLAS
    and OpenMP pool held to one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MFPCE_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(workdir: Path, argv: list[str] | None, trace: bool = False, run_id: str = "") -> dict:
    """Run one worker to completion; its report, or ``{"error": ...}``."""
    result = Path(tempfile.mkstemp(prefix="worker-", suffix=".json", dir=workdir)[1])
    job = {"src": str(SRC), "argv": argv, "trace": trace, "run_id": run_id, "result": str(result)}
    job["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=workdir,
            env=worker_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s: {argv}"}
    try:
        report = json.loads(result.read_text())
    except (OSError, ValueError):
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    finally:
        result.unlink(missing_ok=True)
    if report.get("rc") not in (None, 0):
        report["error"] = f"mfpce exited {report['rc']}: {proc.stderr.strip()[-2000:]}"
    return report


def run_pass(workload, seed: int, passdir: Path, trace: bool = False) -> dict:
    """One round of the workload's invocations, with their reports, the
    size of the cache file it leaves and the check of its outputs."""
    passdir.mkdir()
    invocations = []
    for label, argv in workload.invocations(passdir, seed):
        report = spawn(passdir, argv, trace=trace, run_id=label)
        report["label"] = label
        invocations.append(report)
    errors = [r["error"] for r in invocations if "error" in r]
    if errors:
        outcome = Outcome(attempted=workload.ops, failed=workload.ops, problems=errors)
    else:
        outcome = workload.check(passdir, seed)
    cache = passdir / workload.cache_file if workload.cache_file else None
    return {
        "invocations": invocations,
        "outcome": outcome,
        "cache_bytes": cache.stat().st_size if cache is not None and cache.exists() else 0,
        "outputs": output_files(passdir),
    }


def output_files(passdir: Path) -> dict[str, bytes]:
    """Every file mfpce wrote in a pass, by relative path (the generated
    configs name the pass directory, so they are left out)."""
    return {
        str(p.relative_to(passdir)): p.read_bytes()
        for p in sorted(passdir.rglob("*"))
        if p.is_file() and p.suffix != ".yaml"
    }


def layer_metrics(traced: dict, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass (missing spans read as zero)."""
    by_label = {r["label"]: tracer.summarize(r.get("spans", [])) for r in traced["invocations"]}
    merged: dict[str, dict[str, float]] = {}
    for summary in by_label.values():
        for name, row in summary.items():
            into = merged.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value

    def field(summary, span, key):
        return summary.get(span, {}).get(key, 0)

    metrics = {name: field(merged, span, key) for name, (span, key) in SPAN_METRICS.items()}
    requested = metrics["models.EvalCache.requested"]
    misses = metrics["models.EvalCache.misses"]
    metrics["models.EvalCache.hit_ratio"] = 1.0 - misses / requested if requested else 0.0
    metrics["models.EvalCache.bytes_appended"] = traced["cache_bytes"]
    warm = by_label.get("warm", {})
    metrics["models.EvalCache.warm_misses"] = field(warm, "models.EvalCache.evaluate_many", "misses")
    metrics["cli.main.cold_s"] = field(by_label.get("cold", {}), "cli.main", "s")
    metrics["cli.main.warm_s"] = field(warm, "cli.main", "s")
    metrics["trace.overhead_s"] = metrics["cli.main.s"] - untraced_run_s
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    spawn(workdir, None)  # warm the file cache and compile bytecode, unmeasured
    probes = [spawn(workdir, None) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, seed, workdir / f"pass{len(passes)}"))
    if trace:
        traced = run_pass(workload, seed, workdir / "traced", trace=True)
        passes.append(traced)

    attempted = sum(p["outcome"].attempted for p in passes)
    failed = sum(p["outcome"].failed for p in passes)
    problems = [m for p in passes for m in p["outcome"].problems]
    counts = {(p["outcome"].hf_evals, p["outcome"].lf_evals) for p in passes}
    if len(counts) > 1:
        problems.append(f"evaluation counts differ between passes: {sorted(counts)}")
    if trace and traced["outputs"] != passes[0]["outputs"]:
        problems.append("traced outputs differ from untraced outputs")

    untraced = passes[:-1] if trace else passes
    invocations = [r for p in untraced for r in p["invocations"] if "error" not in r]
    pass_run_s = [sum(r.get("run_s", 0.0) for r in p["invocations"]) for p in untraced]
    run_s = statistics.median(pass_run_s)
    if trace:
        metrics = layer_metrics(traced, run_s)
    elif invocations:
        setups = [r["setup_s"] for r in probes + invocations if "setup_s" in r]
        metrics = {
            "setup_s": len(passes[0]["invocations"]) * statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mb": max(r["maxrss_mb"] for r in invocations),
            "hf_evals": passes[0]["outcome"].hf_evals,
            "lf_evals": passes[0]["outcome"].lf_evals,
        }
    else:
        metrics = {}
    section = SPEC["per_layer" if trace else "end_to_end"]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pass_run_s": pass_run_s,
        # Every metric BENCHMARK.json names, or none when no invocation ran.
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section}
        if metrics
        else {},
    }


def machine() -> dict:
    """What the numbers were measured on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "mfpce" / "cli.py").is_file():
        print(f"error: no mfpce sources under {SRC}", file=sys.stderr)
        return 2
    try:
        load_reference(workload.name)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Per-run scratch inside the checkout, removed afterwards.
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"machine": machine()}), file=sys.stderr)
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"run_s of each untraced pass: {result.pop('pass_run_s')}", file=sys.stderr)
    del result["problems"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

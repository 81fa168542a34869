#!/usr/bin/env python3
"""Write ``reference/<workload>.json`` from the current mfpce sources.

    python3 bench/make_references.py

The stored references pin the outputs of the commit they were made on, so
run this only to re-pin on purpose. It rewrites every workload's reference
together. For a converge workload it runs the CLI once for each seed in
``SEEDS``, checks that every column but ``r2`` and ``mare`` is the same
for all seeds, and stores those columns once and ``r2``/``mare`` per seed.
For the cached workload it stores the cold report and, for the record, the
warm pass's evaluation counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import spawn
from workloads import (
    CONVERGE_COUNTS,
    CONVERGE_SEEDED,
    CONVERGE_VALUES,
    REFERENCE_DIR,
    ROOT,
    WORKLOADS,
    read_convergence,
    read_sobol,
)

#: Seeds whose ``r2``/``mare`` are stored; the gate compares those exactly.
SEEDS = range(16)


def _source() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _run(workload, seed: int, workdir) -> object:
    passdir = workdir / f"{workload.name}-{seed}"
    passdir.mkdir()
    for label, argv in workload.invocations(passdir, seed):
        report = spawn(passdir, argv)
        if "error" in report:
            sys.exit(f"{workload.name} seed {seed} {label}: {report['error']}")
    return passdir


def converge_reference(workload, workdir) -> dict:
    rows, validation = None, {}
    for seed in SEEDS:
        got = read_convergence(_run(workload, seed, workdir) / "out" / "convergence.csv")
        fixed = {
            key: {c: json.loads(r[c]) for c in CONVERGE_COUNTS + CONVERGE_VALUES}
            for key, r in got.items()
        }
        if rows is not None and fixed != rows:
            sys.exit(f"{workload.name}: seed {seed} changes seed-independent columns")
        rows = fixed
        validation[str(seed)] = {k: {c: float(r[c]) for c in CONVERGE_SEEDED} for k, r in got.items()}
    return {"rows": rows, "validation": validation}


def cached_reference(workload, workdir) -> dict:
    passdir = _run(workload, 0, workdir)
    warm = read_sobol(passdir / "warm")
    return {
        "cold": read_sobol(passdir / "cold"),
        "warm_counts_at_source": {"n_hf": warm["n_hf"], "n_lf": warm["n_lf"]},
    }


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="references-", dir=ROOT / ".bench_tmp"))
    try:
        for name, workload in sorted(WORKLOADS.items()):
            if workload.cache_file is None:
                ref = converge_reference(workload, workdir)
            else:
                ref = cached_reference(workload, workdir)
            ref = {"source_commit": _source(), **ref}
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

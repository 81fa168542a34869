"""The benchmark's workloads: the mfpce CLI invocations each one makes, and
the checks that every output is right.

Each workload takes the benchmark seed as the CLI's ``--seed``. On the
converge workloads the seed draws the validation points, so it moves only
``r2`` and ``mare``; every other column is the same for every seed. The
cached workload's ``sobol`` reports do not depend on it.

Reference outputs, taken from the mfpce seed commit by
``make_references.py``, live in ``reference/``. Every converge row and
every ``sobol`` report is one operation; a missing or mismatched output
counts as a failed one.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_DIR = BENCH / "reference"

#: The ROADMAP refactor tolerance: ``|x - ref| <= REL_TOL * max(1, |ref|)``.
REL_TOL = 1e-12

CONVERGE_COUNTS = ("w", "q", "n_hf", "n_lf", "n_e", "n_tot")
CONVERGE_VALUES = ("mean", "std", "e", "e_t")
CONVERGE_SEEDED = ("mare", "r2")


@dataclass
class Outcome:
    """Operations attempted and failed, what went wrong, and the model
    evaluations the outputs say were paid."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    hf_evals: int = 0
    lf_evals: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def close(got: float, ref: float, printed_digits: int | None = None) -> bool:
    """Agreement within ``REL_TOL``. A value read back from text printed with
    ``printed_digits`` significant digits may also differ by one unit in the
    last printed digit, since a last-bit change can round either way."""
    tol = REL_TOL * max(1.0, abs(ref))
    if printed_digits is not None and ref != 0.0:
        tol += 10.0 ** (math.floor(math.log10(abs(ref))) - printed_digits + 1)
    return abs(got - ref) <= tol


def ishigami_oracle(a: float = 7.0, b: float = 0.1) -> dict:
    """Closed-form mean, standard deviation and Sobol indices of the
    Ishigami function (Sobol' & Levitan 1999), independent of mfpce."""
    pi4, pi8 = math.pi**4, math.pi**8
    d = a * a / 8.0 + b * pi4 / 5.0 + b * b * pi8 / 18.0 + 0.5
    d1 = b * pi4 / 5.0 + b * b * pi8 / 50.0 + 0.5
    d2 = a * a / 8.0
    d13 = 8.0 * b * b * pi8 / 225.0
    return {
        "mean": a / 2.0,
        "std": math.sqrt(d),
        "subsets": {(0,): d1 / d, (1,): d2 / d, (0, 2): d13 / d},
        "totals": ((d1 + d13) / d, d2 / d, d13 / d),
    }


@functools.cache
def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        raise FileNotFoundError(f"missing reference outputs {path}")
    return json.loads(path.read_text())


# --- converge workloads ---------------------------------------------------------


def read_convergence(path: Path) -> dict[str, dict[str, str]]:
    """``convergence.csv`` rows keyed ``"<scheme>,<w>"``."""
    with open(path, newline="") as fh:
        return {f"{r['scheme']},{r['w']}": r for r in csv.DictReader(fh)}


def _converge_row_problem(got: dict, want: dict, seeded: dict | None) -> str | None:
    for col in CONVERGE_COUNTS:
        if float(got[col]) != want[col]:
            return f"{col}={got[col]} (want {want[col]})"
    for col in CONVERGE_VALUES:
        if not close(float(got[col]), want[col], printed_digits=12):
            return f"{col}={got[col]} (want {want[col]!r})"
    for col in CONVERGE_SEEDED:
        value = float(got[col])
        if not math.isfinite(value) or value < 0.0:
            return f"{col}={got[col]} is not a finite non-negative number"
        if seeded is not None and not close(value, seeded[col], printed_digits=12):
            return f"{col}={got[col]} (want {seeded[col]!r})"
    if float(got["r2"]) > 1.0:
        return f"r2={got['r2']} exceeds 1"
    return None


def check_converge(passdir: Path, seed: int, ref: dict, top_hf: str, r2_floor: float) -> Outcome:
    """Compare ``convergence.csv`` with the reference rows: counts exactly,
    moments and index errors within ``REL_TOL``, and ``r2``/``mare`` within
    ``REL_TOL`` where the reference holds this seed. For any seed, every
    ``r2`` lies in [0, 1] and the top HF row ``top_hf`` reaches
    ``r2_floor``."""
    out = Outcome(attempted=len(ref["rows"]))
    try:
        rows = read_convergence(passdir / "out" / "convergence.csv")
    except (OSError, KeyError, csv.Error) as exc:
        out.failed = out.attempted
        out.problems.append(f"convergence.csv unreadable: {exc}")
        return out
    seeded = ref["validation"].get(str(seed))
    for key, want in ref["rows"].items():
        got = rows.get(key)
        if got is None:
            out.fail(f"row {key} missing")
            continue
        try:
            problem = _converge_row_problem(got, want, seeded[key] if seeded else None)
        except (KeyError, ValueError, TypeError) as exc:
            problem = f"unparsable: {exc}"
        if problem is None and key == top_hf and float(got["r2"]) < r2_floor:
            problem = f"r2={got['r2']} below {r2_floor}"
        if problem is not None:
            out.fail(f"row {key}: {problem}")
            continue
        out.hf_evals += int(got["n_hf"])
        out.lf_evals += int(got["n_lf"])
    for key in rows.keys() - ref["rows"].keys():
        out.attempted += 1
        out.fail(f"unexpected row {key}")
    return out


def check_ishigami(passdir: Path, seed: int) -> Outcome:
    ref = load_reference("ishigami_converge")
    out = check_converge(passdir, seed, ref, top_hf="hf,5", r2_floor=1.0 - 1e-6)
    # The benchmark's own oracle: at w=5 the HF expansion reproduces the
    # closed-form moments, and its summed index errors against the closed
    # form (e over all subsets, e_t over totals) vanish to REL_TOL.
    oracle = ishigami_oracle()
    row = read_convergence(passdir / "out" / "convergence.csv").get("hf,5") if not out.failed else None
    if row is not None:
        off = [c for c in ("mean", "std") if not close(float(row[c]), oracle[c], printed_digits=12)]
        off += [c for c in ("e", "e_t") if not float(row[c]) <= REL_TOL]
        if off:
            out.fail(f"row hf,5 disagrees with the closed form in {off}")
    return out


def check_borehole(passdir: Path, seed: int) -> Outcome:
    # hf,w=3 reaches r2 = 1 - 1.1e-6 at the seed commit (validation seed
    # 19), so the floor sits one decade lower than on Ishigami.
    ref = load_reference("borehole_converge")
    return check_converge(passdir, seed, ref, top_hf="hf,3", r2_floor=1.0 - 1e-5)


def converge_invocations(config: str) -> Callable[[Path, int], list[tuple[str, list[str]]]]:
    def invocations(passdir: Path, seed: int) -> list[tuple[str, list[str]]]:
        argv = ["--config", str(ROOT / "configs" / config), "--out", str(passdir / "out")]
        return [("converge", argv + ["--seed", str(seed), "converge"])]

    return invocations


# --- cached external workload ---------------------------------------------------

SHORT_COLUMN_MODEL = BENCH / "short_column_model.py"
SOBOL_STEM = "sobol_mf1_w5"


def short_column_config(passdir: Path) -> str:
    """The generated study config: short_column with an external HF stand-in
    in oneshot mode, an external LF stand-in in stream mode, one MF scheme
    (q=3) and a persistent cache file inside ``passdir``."""
    model = f"{shlex.quote(sys.executable)} {shlex.quote(str(SHORT_COLUMN_MODEL))}"
    return "\n".join(
        [
            "problem: short_column",
            "models:",
            f"  - {{id: hf, command: {json.dumps(model + ' hf')}, mode: oneshot, fidelity: hf}}",
            f"  - {{id: lf, command: {json.dumps(model + ' lf4')}, mode: stream, fidelity: lf4}}",
            "schemes:",
            "  - {name: mf1, kind: mf, hf: hf, lf: lf, q: 3}",
            "reference: {kind: analytic}",
            f"cache: {json.dumps(str(passdir / 'cache.tsv'))}",
            "",
        ]
    )


def short_column_invocations(passdir: Path, seed: int) -> list[tuple[str, list[str]]]:
    config = passdir / "short_column.yaml"
    config.write_text(short_column_config(passdir))
    return [
        (
            label,
            ["--config", str(config), "--out", str(passdir / label), "--seed", str(seed)]
            + ["sobol", "--scheme", "mf1", "--w", "5"],
        )
        for label in ("cold", "warm")
    ]


def read_sobol(outdir: Path) -> dict:
    """The JSON report plus its totals CSV, which must agree to ``.12g``."""
    report = json.loads((outdir / f"{SOBOL_STEM}.json").read_text())
    with open(outdir / f"{SOBOL_STEM}_totals.csv", newline="") as fh:
        totals = [(r["variable"], r["total_index"]) for r in csv.DictReader(fh)]
    expected = [(t["variable"], f"{t['value']:.12g}") for t in report["total_indices"]]
    if totals != expected:
        raise ValueError(f"totals CSV {totals} disagrees with the JSON report {expected}")
    return report


def _indices(report: dict) -> tuple[dict, dict]:
    subsets = {tuple(s["subset"]): s["value"] for s in report["subset_indices"]}
    totals = {t["variable"]: t["value"] for t in report["total_indices"]}
    return subsets, totals


def _sobol_problem(got: dict, want: dict) -> str | None:
    for col in ("n_hf", "n_lf"):
        if got[col] != want[col]:
            return f"{col}={got[col]} (want {want[col]})"
    for col in ("mean", "variance"):
        if not close(got[col], want[col]):
            return f"{col}={got[col]!r} (want {want[col]!r})"
    for got_map, want_map in zip(_indices(got), _indices(want)):
        # A subset absent from a report reads as zero (below mfpce's floor).
        for key in got_map.keys() | want_map.keys():
            if not close(got_map.get(key, 0.0), want_map.get(key, 0.0)):
                return f"index {key}={got_map.get(key)!r} (want {want_map.get(key)!r})"
    return None


def check_short_column(passdir: Path, seed: int) -> Outcome:
    """The cold report matches the reference; the warm report, read back
    from the cache the cold pass wrote, repeats the cold report's moments
    and indices exactly. The warm pass's evaluation counts are a cost, not
    a correctness check: a complete cache should leave them at zero, and
    they may not exceed the cold pass's."""
    ref = load_reference("short_column_external_cached")
    out = Outcome(attempted=2)
    try:
        cold = read_sobol(passdir / "cold")
        problem = _sobol_problem(cold, ref["cold"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problem = f"unreadable: {exc!r}"
    if problem is not None:
        # The warm report cannot be verified without a good cold one.
        out.failed = 2
        out.problems.append(f"cold report: {problem}")
        return out
    try:
        warm = read_sobol(passdir / "warm")
        same = (warm["mean"], warm["variance"], _indices(warm)) == (
            cold["mean"],
            cold["variance"],
            _indices(cold),
        )
        paid_more = not (0 <= warm["n_hf"] <= cold["n_hf"] and 0 <= warm["n_lf"] <= cold["n_lf"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        out.fail(f"warm report unreadable: {exc!r}")
        return out
    if not same:
        out.fail("warm report differs from the cold report")
    elif paid_more:
        out.fail(f"warm pass paid more than the cold pass: {warm['n_hf']}/{warm['n_lf']}")
    else:
        out.hf_evals = cold["n_hf"] + warm["n_hf"]
        out.lf_evals = cold["n_lf"] + warm["n_lf"]
    return out


# --- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A workload's code; its reason for being chosen is its ``why`` in
    ``BENCHMARK.json``."""

    name: str
    invocations: Callable[[Path, int], list[tuple[str, list[str]]]]
    check: Callable[[Path, int], Outcome]
    #: Operations per pass: converge rows or sobol reports.
    ops: int
    #: The persistent cache file a pass writes, relative to its directory.
    cache_file: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ishigami_converge",
            converge_invocations("ishigami.yaml"),
            check_ishigami,
            ops=14,
        ),
        Workload(
            "borehole_converge",
            converge_invocations("borehole.yaml"),
            check_borehole,
            ops=6,
        ),
        Workload(
            "short_column_external_cached",
            short_column_invocations,
            check_short_column,
            ops=2,
            cache_file="cache.tsv",
        ),
    )
}

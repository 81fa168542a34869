"""Evaluation apparatus: the prediction error metric, Sobol error metrics,
analytic Ishigami references, convergence sweeps, cost accounting, and
coefficient-decay reports.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .mf import BuiltScheme, build_mf_parts, fit
from .models import EvalCache, Model
from .orthopoly import RedrawnPoints
from .pce import evaluate_batch, mean, union, variance
from .sobol import SobolReport, ZeroVarianceError, all_indices
from .sparse_grid import grid_plan, grid_size

# No code here reads ``smolyak_grid``; the name stays in this namespace,
# where bench/tracer.py rebinds it and bench/selftest.py expects it.
from .sparse_grid import smolyak_grid  # noqa: F401

log = logging.getLogger(__name__)

#: Observations with |reference| below this are skipped in MARE sums; the
#: short-column response crosses zero, where a pointwise relative error is
#: ill-defined.
_MARE_FLOOR = 1e-300


class _Scores:
    """Running r² and MARE of ``c`` predicted columns against one truth,
    fed one block of points at a time through :meth:`add`.

    MARE sums ``|(y_pred - y_true) / y_true|`` over the rows it keeps and
    counts them. r² is the squared correlation, formed from the sums of
    ``y_true - truth_mean``, of ``y_pred - shift`` (``shift`` is one value
    per column), of their squares and of their product: a one-pass
    covariance that stays accurate as long as each shift lies near its
    column's mean. ``y_true`` is held whole by its callers, so its own mean
    is known before the first block. The ``(c, b)`` temporaries of a block
    share one scratch array, kept for the next block of at most ``b``
    points.
    """

    def __init__(self, truth_mean: float, shift) -> None:
        self.truth_mean = truth_mean
        self.shift = np.asarray(shift, dtype=float)[:, None]
        self.count = self.kept = 0
        self.true_sum = self.true_squares = 0.0
        c = len(self.shift)
        self.pred_sum, self.pred_squares, self.products, self.mare_sum = np.zeros((4, c))
        self.scratch = np.empty((c, 0))

    def add(self, y_true: np.ndarray, y_pred: np.ndarray) -> None:
        """One block of points: ``y_true`` is ``(b,)`` and ``y_pred`` is
        ``(c, b)``. ``y_pred`` is read, never written."""
        if self.scratch.shape[1] < len(y_true):
            self.scratch = np.empty((len(self.shift), len(y_true)))
        true_dev = y_true - self.truth_mean
        pred_dev = np.subtract(y_pred, self.shift, out=self.scratch[:, : len(y_true)])
        self.count += len(y_true)
        self.true_sum += true_dev.sum()
        self.true_squares += true_dev @ true_dev
        self.pred_sum += pred_dev.sum(axis=1)
        self.pred_squares += np.einsum("ij,ij->i", pred_dev, pred_dev)
        self.products += pred_dev @ true_dev

        keep = np.abs(y_true) >= _MARE_FLOOR
        if not keep.all():
            y_true, y_pred = y_true[keep], y_pred[:, keep]
        self.kept += len(y_true)
        relative = np.subtract(y_pred, y_true, out=self.scratch[:, : len(y_true)])
        relative /= y_true
        self.mare_sum += np.abs(relative, out=relative).sum(axis=1)

    def result(self) -> list[tuple[float, float]]:
        """``(r2, mare)`` per column. Raises :class:`ZeroVarianceError` if a
        sample set is constant."""
        skipped = self.count - self.kept
        if skipped:
            log.info("MARE: skipped %d observations with near-zero reference", skipped)
        true_var = self.true_squares - self.true_sum**2 / self.count
        pred_mean = self.pred_sum / self.count
        pred_var = self.pred_squares - pred_mean * self.pred_sum
        denom = math.sqrt(max(true_var, 0.0)) * np.sqrt(np.maximum(pred_var, 0.0))
        if (denom == 0.0).any():
            raise ZeroVarianceError("correlation undefined: a sample set is constant")
        r = (self.products - pred_mean * self.true_sum) / denom
        mare = self.mare_sum / self.kept if self.kept else np.full(len(r), math.nan)
        return [(v**2, m) for v, m in zip(r.tolist(), mare.tolist())]


def prediction_error(y_true, y_pred) -> tuple[float, float]:
    """Squared correlation and mean absolute relative error of ``y_pred``
    against ``y_true``: a surrogate against its model, or an LF model
    against the HF one. Rows whose ``|y_true|`` is below ``_MARE_FLOOR``
    are left out of the MARE, with one INFO log line. This is
    :class:`_Scores` fed one block, with the sample mean as the shift."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size < 2:
        raise ValueError("need two equal-length sample sets of size >= 2")
    scores = _Scores(y_true.mean(), [y_pred.mean()])
    scores.add(y_true, y_pred[None])
    return scores.result()[0]


def sobol_errors(report: SobolReport, reference: SobolReport) -> tuple[float, float]:
    """Summed absolute index errors over all subsets (e) and totals (e_T).

    Subsets absent from either report read as zero.
    """
    if report.n != reference.n:
        raise ValueError(f"dimension mismatch: {report.n} vs {reference.n}")
    subsets = set(report.subset_indices) | set(reference.subset_indices)
    e = sum(
        abs(report.subset_indices.get(s, 0.0) - reference.subset_indices.get(s, 0.0))
        for s in subsets
    )
    e_t = sum(
        abs(a - b) for a, b in zip(report.total_indices, reference.total_indices)
    )
    return float(e), float(e_t)


def ishigami_analytic(a: float, b: float) -> SobolReport:
    """Closed-form variance decomposition of the Ishigami family."""
    pi4 = math.pi**4
    pi8 = math.pi**8
    d = a * a / 8.0 + b * pi4 / 5.0 + b * b * pi8 / 18.0 + 0.5
    d1 = b * pi4 / 5.0 + b * b * pi8 / 50.0 + 0.5
    d2 = a * a / 8.0
    d13 = 8.0 * b * b * pi8 / 225.0
    subsets = {(0,): d1 / d, (1,): d2 / d}
    if d13 > 0:
        subsets[(0, 2)] = d13 / d
    return SobolReport(
        mean=a / 2.0,
        variance=d,
        subset_indices=subsets,
        total_indices=((d1 + d13) / d, d2 / d, d13 / d),
    )


@dataclass(frozen=True)
class SchemeSpec:
    """One PCE scheme of a study: a fidelity mode plus its model bindings."""

    name: str
    kind: str  # "hf" | "lf" | "mf"
    hf: str  # model id used as the truth / correction target
    lf: str | None = None
    q: int = 0
    rt: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hf", "lf", "mf"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind in ("lf", "mf") and self.lf is None:
            raise ValueError(f"scheme {self.name!r} needs an lf model")
        reads = {"hf": (), "lf": ("lf", "rt"), "mf": ("lf", "q", "rt")}[self.kind]
        given = {"lf": self.lf is not None, "q": self.q != 0, "rt": self.rt is not None}
        unread = [key for key, is_given in given.items() if is_given and key not in reads]
        if unread:
            raise ValueError(f"kind {self.kind} takes no {', '.join(unread)}")
        if self.q < 0:
            raise ValueError("q must be non-negative")
        if self.rt is not None and not 0.0 < self.rt <= 1.0:
            raise ValueError("rt must lie in (0, 1]")

    def label(self, w: int) -> str:
        if self.kind == "mf":
            return f"{self.name}:SG-{w - self.q}-{w}"
        return f"{self.name}:SG-{w}"


@dataclass(frozen=True)
class ConvergenceRow:
    scheme: str
    w: int
    q: int
    n_hf: int
    n_lf: int
    n_e: int
    n_tot: float
    mare: float
    r2: float
    e: float
    e_t: float
    mean: float
    std: float


def build_scheme(scheme: SchemeSpec, w: int, specs, models: dict[str, Model], cache: EvalCache) -> BuiltScheme:
    """Build the expansion a scheme prescribes at sparse level ``w``,
    paid through ``cache``, of a level at least ``w``: one
    :func:`~mfpce.mf.fit`, which costs the level-``w`` grid's nodes of its
    model, or :func:`~mfpce.mf.build_mf_parts` for ``mf``."""
    if scheme.kind == "mf":
        return build_mf_parts(models[scheme.lf], models[scheme.hf], specs, w, scheme.q, cache)
    model = models[scheme.hf if scheme.kind == "hf" else scheme.lf]
    exp = fit(model, w, specs, cache, scheme.kind.upper())
    cost = grid_size(len(specs), w)
    return BuiltScheme(exp, None, None, None, *((cost, 0) if scheme.kind == "hf" else (0, cost)))


def _prediction_scores(expansions, X, y_true) -> list[tuple[float, float]]:
    """``prediction_error`` of each expansion at the rows of ``X`` against
    ``y_true[i]``. ``X`` is an ``(N, n)`` array or a
    :class:`~mfpce.orthopoly.RedrawnPoints` whose :meth:`whole` has run,
    which :func:`evaluate_batch` redraws block by block, so that the
    points are not held whole either. The expansions are evaluated by one
    :func:`evaluate_batch` call on their :func:`union`, one column each;
    columns with the same terms (one level of a sweep) share their
    products, and all share the 1D tables. The predictions are never held
    whole: each block of outputs goes into one :class:`_Scores` per
    distinct truth array, with each column's PCE mean as its shift, so the
    memory does not grow with the number of points times the number of
    expansions. When one truth covers every column, its scores read the
    block in place; otherwise each truth's columns are gathered from it."""
    if not expansions:
        return []
    united = union(expansions)
    by_truth: dict[int, tuple[np.ndarray, list[int]]] = {}
    for i, y in enumerate(y_true):
        by_truth.setdefault(id(y), (np.asarray(y, dtype=float), []))[1].append(i)
    parts = []
    for y, columns in by_truth.values():
        if y.shape != (len(X),) or len(X) < 2:
            raise ValueError("need two equal-length sample sets of size >= 2")
        parts.append((y, np.array(columns), _Scores(y.mean(), united.coeffs[0, columns])))

    def each_block(start, block):
        stop = start + block.shape[1]
        for y, columns, scores in parts:
            scores.add(y[start:stop], block if len(parts) == 1 else block[columns])

    evaluate_batch(united, X, each_block=each_block)
    results = [None] * len(expansions)
    for _, columns, scores in parts:
        for i, score in zip(columns, scores.result()):
            results[i] = score
    return results


def run_convergence(cfg, models, reference: SobolReport, cache: EvalCache) -> list[ConvergenceRow]:
    """One row per (scheme, level) with ``w >= q``, in config order,
    deterministically, with Sobol errors against ``reference``.

    ``cfg`` is a :class:`mfpce.config.StudyConfig` and ``models`` its open
    models. The plan of a PCE reference, the run's largest grid, is first
    released from :func:`~mfpce.sparse_grid.grid_plan`'s cache. Every cell
    is paid through ``cache``, the command's one
    :class:`~mfpce.models.EvalCache`, of a level at least ``levels max``,
    which a PCE reference has paid through too, so a node is paid once per
    run, or once for good with a cache file; each row's counts are its
    cell's cost, which no cache changes. The validation points are drawn
    whole only for the one ``batch`` call of each HF model that pays its
    truths, just before the first cell that reads them, and let go after
    it; that draw records where in the Philox stream each outer block of
    each column starts (see :class:`~mfpce.orthopoly.RedrawnPoints`). All
    cells are validated by one :func:`evaluate_batch` call on their union,
    which redraws each outer block of points from those positions, and
    whose r² and MARE are summed block by block (see
    :func:`_prediction_scores`): only the HF truths, paid by the models
    themselves, are held whole, one array per HF model. The cells' plans
    are released before validation, which reads none of them. A sweep with
    no cells writes no rows.
    """
    # No cell reads the reference's plan, the largest grid of the run.
    grid_plan.cache_clear()
    points = RedrawnPoints(cfg.variables, cfg.validation.seed, cfg.validation.count)
    y_true: dict[str, np.ndarray] = {}

    cells = []
    for scheme in cfg.schemes:
        for w in range(max(cfg.levels.min, scheme.q), cfg.levels.max + 1):
            if scheme.hf not in y_true:  # paid just before the first cell that reads them
                y_true[scheme.hf] = models[scheme.hf].batch(points.whole())
            cells.append((scheme, w, build_scheme(scheme, w, cfg.variables, models, cache)))
    # Validation reads no grid plan either.
    grid_plan.cache_clear()
    scores = _prediction_scores(
        [built.expansion for _, _, built in cells],
        points,
        [y_true[scheme.hf] for scheme, _, _ in cells],
    )

    rows = []
    for (scheme, w, built), (r2, mare) in zip(cells, scores):
        exp, n_hf, n_lf = built.expansion, built.n_hf, built.n_lf
        n_e = n_hf if scheme.kind != "lf" else n_lf
        n_tot = n_hf + scheme.rt * n_lf if scheme.rt is not None else float(n_e)
        e, e_t = sobol_errors(all_indices(exp), reference)
        row = (scheme.name, w, scheme.q, n_hf, n_lf, n_e, n_tot, mare, r2, e, e_t, mean(exp))
        rows.append(ConvergenceRow(*row, std=math.sqrt(max(variance(exp), 0.0))))
    return rows


def decay_report(expansions) -> list[tuple[str, int, float]]:
    """(provenance, rank, |coefficient|) rows, each spectrum sorted by
    descending magnitude. Coefficients are orthonormal, so a magnitude is
    its term's share of the standard deviation."""
    expansions = list(expansions)
    if not expansions:
        raise ValueError("need at least one expansion")
    rows = []
    for exp in expansions:
        spectrum = np.sort(np.abs(exp.coeffs))[::-1].tolist()
        rows.extend((exp.provenance, rank, mag) for rank, mag in enumerate(spectrum, 1))
    return rows


@contextlib.contextmanager
def report_file(path):
    """A file to write the report ``path`` under a temporary name beside it,
    in its directory (made if missing), moved into place by ``os.replace``.
    Any exception, a stop signal too, removes the temporary file, so the
    report appears whole or not at all. A write's OS error names ``path``."""
    part = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.part")
    part.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(part, "w") as fh:
            yield fh
        os.replace(part, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        part.unlink(missing_ok=True)


def write_csv(path, header, rows) -> None:
    """The report file ``path``: the column names ``header``, then one line
    per row of ``rows``, each float to 12 significant digits and anything
    else by ``str``, written through :func:`report_file`."""
    with report_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def write_convergence_csv(rows, path) -> None:
    """One line per :class:`ConvergenceRow`, its fields in order, by :func:`write_csv`."""
    write_csv(path, [f.name for f in fields(ConvergenceRow)], map(astuple, rows))

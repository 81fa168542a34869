"""Evaluation apparatus: the prediction error metric, Sobol error metrics,
analytic Ishigami references, convergence sweeps, cost accounting, and
coefficient-decay reports.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .mf import BuiltScheme, build_mf_parts
from .models import EvalCache, Model
from .pce import evaluate_batch, mean, project, union, variance
from .sobol import SobolReport, ZeroVarianceError, all_indices
from .sparse_grid import grid_plan, physical_nodes, smolyak_grid

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
        true_var = self.true_squares - self.true_sum**2 / self.count
        scores = []
        for pred_sum, squares, products, mare_sum in zip(
            self.pred_sum, self.pred_squares, self.products, self.mare_sum
        ):
            if skipped:
                log.info("MARE: skipped %d observations with near-zero reference", skipped)
            pred_mean = pred_sum / self.count
            pred_var = squares - pred_mean * pred_sum
            denom = math.sqrt(max(true_var, 0.0)) * math.sqrt(max(pred_var, 0.0))
            if denom == 0.0:
                raise ZeroVarianceError("correlation undefined: a sample set is constant")
            r2 = float((products - pred_mean * self.true_sum) / denom) ** 2
            scores.append((r2, float(mare_sum / self.kept) if self.kept else math.nan))
        return scores


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


def build_scheme(
    scheme: SchemeSpec,
    w: int,
    specs,
    models: dict[str, Model],
    cache: EvalCache | None = None,
) -> BuiltScheme:
    """Build the expansion a scheme prescribes at sparse level ``w``."""
    cache = cache if cache is not None else EvalCache()
    specs = tuple(specs)
    if scheme.kind == "mf":
        return build_mf_parts(models[scheme.lf], models[scheme.hf], specs, w, scheme.q, cache)
    model = models[scheme.hf if scheme.kind == "hf" else scheme.lf]
    before = cache.count(model.id)
    grid = smolyak_grid(len(specs), w, specs)
    values = cache.evaluate_many(model, physical_nodes(grid, specs))
    exp = project(values, w, specs, provenance=scheme.kind.upper())
    paid = cache.count(model.id) - before
    if scheme.kind == "hf":
        return BuiltScheme(exp, None, None, n_hf=paid, n_lf=0)
    return BuiltScheme(exp, None, None, n_hf=0, n_lf=paid)


def _prediction_scores(expansions, X, y_true) -> list[tuple[float, float]]:
    """``prediction_error`` of each expansion at the rows of ``X`` against
    ``y_true[i]``. The expansions are evaluated by one
    :func:`evaluate_batch` call on their :func:`union`, one column each;
    columns with the same terms (one level of a sweep) share their
    products, and all share the 1D tables. The predictions are never held
    whole: each block of outputs goes into one :class:`_Scores` per
    distinct truth array, with each column's PCE mean as its shift, so the
    memory does not grow with the number of points times the number of
    expansions."""
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
            scores.add(y[start:stop], block[columns])

    evaluate_batch(united, X, each_block=each_block)
    results = [None] * len(expansions)
    for _, columns, scores in parts:
        for i, score in zip(columns, scores.result()):
            results[i] = score
    return results


def run_convergence(cfg) -> list[ConvergenceRow]:
    """One row per (scheme, level), in config order, deterministically.

    ``cfg`` is a :class:`mfpce.config.StudyConfig`. The reference report is
    built once, and its Smolyak plan, the largest grid of the run, is
    released from :func:`~mfpce.sparse_grid.grid_plan`'s cache before the
    sweep. Every cell is built on a fresh in-memory cache, so each
    row's counts are that cell's own cost; the config's ``cache`` file is
    read by ``sobol`` and ``decay`` only. Rows are emitted only for levels
    with ``w >= q``. The cells are built first, then all of them are
    validated by one :func:`evaluate_batch` call on their union, whose r²
    and MARE are summed block by block as the outputs are made (see
    :func:`_prediction_scores`): only the HF truths are held whole, one
    array per HF model. A sweep with no cells writes no rows. The models
    are closed before it returns.
    """
    from .config import build_reference  # local import to avoid a cycle

    with cfg.open_models() as models:
        reference = build_reference(cfg, models)
        # No cell reads the reference's plan, the largest grid of the run.
        grid_plan.cache_clear()
        rng = np.random.Generator(np.random.Philox(key=cfg.validation.seed))
        X_val = np.column_stack([s.sample(rng, cfg.validation.count) for s in cfg.variables])
        y_true: dict[str, np.ndarray] = {}

        cells = []
        for scheme in cfg.schemes:
            if scheme.hf not in y_true:
                y_true[scheme.hf] = models[scheme.hf].batch(X_val)
            for w in range(cfg.levels.min, cfg.levels.max + 1):
                if w < scheme.q:
                    continue
                cells.append((scheme, w, build_scheme(scheme, w, cfg.variables, models)))
    scores = _prediction_scores(
        [built.expansion for _, _, built in cells],
        X_val,
        [y_true[scheme.hf] for scheme, _, _ in cells],
    )

    rows = []
    for (scheme, w, built), (r2, mare) in zip(cells, scores):
        e, e_t = sobol_errors(all_indices(built.expansion), reference)
        n_e = built.n_hf if scheme.kind != "lf" else built.n_lf
        if scheme.rt is not None:
            n_tot = built.n_hf + scheme.rt * built.n_lf
        else:
            n_tot = float(n_e)
        rows.append(
            ConvergenceRow(
                scheme=scheme.name,
                w=w,
                q=scheme.q,
                n_hf=built.n_hf,
                n_lf=built.n_lf,
                n_e=n_e,
                n_tot=n_tot,
                mare=mare,
                r2=r2,
                e=e,
                e_t=e_t,
                mean=mean(built.expansion),
                std=math.sqrt(max(variance(built.expansion), 0.0)),
            )
        )
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


def write_convergence_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("scheme,w,q,n_hf,n_lf,n_e,n_tot,mare,r2,e,e_t,mean,std\n")
        for r in rows:
            fh.write(
                f"{r.scheme},{r.w},{r.q},{r.n_hf},{r.n_lf},{r.n_e},"
                f"{r.n_tot:.12g},{r.mare:.12g},{r.r2:.12g},{r.e:.12g},"
                f"{r.e_t:.12g},{r.mean:.12g},{r.std:.12g}\n"
            )


def write_decay_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("provenance,rank,abs_coeff\n")
        for provenance, rank, mag in rows:
            fh.write(f"{provenance},{rank},{mag:.12g}\n")

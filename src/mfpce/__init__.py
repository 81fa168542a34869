"""Variance-based global sensitivity analysis with single- and
multi-fidelity polynomial chaos expansions on Smolyak sparse grids."""

from .mf import BuiltScheme, build_mf_parts, fit
from .models import EvalCache, ExternalModel, Model, ModelError, builtin_model
from .orthopoly import (
    GaussRule,
    Normal,
    PolyFamily,
    Uniform,
    VariableSpec,
    gauss_rule,
)
from .pce import Expansion, evaluate_batch, mean, project, variance
from .sobol import SobolReport, ZeroVarianceError, all_indices, mc_sobol
from .sparse_grid import growth, level_terms, smolyak_grid, tensor_grid
from .study import (
    ConvergenceRow,
    SchemeSpec,
    decay_report,
    ishigami_analytic,
    prediction_error,
    run_convergence,
    sobol_errors,
)

__version__ = "0.1.0"

__all__ = [
    "BuiltScheme",
    "build_mf_parts",
    "fit",
    "EvalCache",
    "ExternalModel",
    "Model",
    "ModelError",
    "builtin_model",
    "GaussRule",
    "Normal",
    "PolyFamily",
    "Uniform",
    "VariableSpec",
    "gauss_rule",
    "Expansion",
    "evaluate_batch",
    "mean",
    "project",
    "variance",
    "SobolReport",
    "ZeroVarianceError",
    "all_indices",
    "mc_sobol",
    "growth",
    "level_terms",
    "smolyak_grid",
    "tensor_grid",
    "ConvergenceRow",
    "SchemeSpec",
    "decay_report",
    "ishigami_analytic",
    "prediction_error",
    "run_convergence",
    "sobol_errors",
]

"""Additive multi-fidelity expansion construction.

A low-fidelity expansion at sparse level ``w`` is merged with a correction
expansion at level ``w - q`` built from pointwise HF minus LF differences.
On the bases shared by both index sets the coefficients add; outside the
correction set the LF coefficients pass through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import EvalCache, Model
from .pce import Expansion, project
from .sparse_grid import physical_nodes, row_keys, smolyak_grid


@dataclass(frozen=True)
class MfConfig:
    """LF sparse level and the correction level offset (0 <= q <= w)."""

    w: int
    q: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.q <= self.w:
            raise ValueError(f"need 0 <= q <= w, got w={self.w}, q={self.q}")


@dataclass(frozen=True)
class MfBuild:
    """The three expansions of one multi-fidelity build plus eval counts."""

    lf: Expansion
    correction: Expansion
    combined: Expansion
    n_hf: int
    n_lf: int


def correction_values(hf, lf) -> np.ndarray:
    """Elementwise HF minus LF differences at shared nodes."""
    hf = np.asarray(hf, dtype=float)
    lf = np.asarray(lf, dtype=float)
    if hf.shape != lf.shape:
        raise ValueError(f"length mismatch: {hf.shape} vs {lf.shape}")
    return hf - lf


def build_mf_parts(
    lf_model: Model,
    hf_model: Model,
    specs,
    cfg: MfConfig,
    cache: EvalCache | None = None,
) -> MfBuild:
    """Build the LF, correction, and combined expansions of one MF scheme."""
    specs = tuple(specs)
    n = len(specs)
    cache = cache if cache is not None else EvalCache()

    lf_grid = smolyak_grid(n, cfg.w, specs)
    lf_values = cache.evaluate_many(lf_model, physical_nodes(lf_grid, specs))
    lf_exp = project(lf_values, cfg.w, specs, provenance="LF")

    w_cr = cfg.w - cfg.q
    cr_grid = smolyak_grid(n, w_cr, specs)
    cr_nodes = physical_nodes(cr_grid, specs)
    hf_at_cr = cache.evaluate_many(hf_model, cr_nodes)
    lf_at_cr = cache.evaluate_many(lf_model, cr_nodes)
    cr_exp = project(
        correction_values(hf_at_cr, lf_at_cr), w_cr, specs, provenance="Correction"
    )

    # The level w - q multi-indices are a subset of the level w ones.
    coeffs = lf_exp.coeffs.copy()
    coeffs[np.searchsorted(row_keys(lf_exp.terms), row_keys(cr_exp.terms))] += cr_exp.coeffs
    combined = Expansion(specs=specs, terms=lf_exp.terms, coeffs=coeffs, provenance="Combined")
    return MfBuild(
        lf=lf_exp,
        correction=cr_exp,
        combined=combined,
        n_hf=cache.count(hf_model.id),
        n_lf=cache.count(lf_model.id),
    )


def build_mf(
    lf_model: Model,
    hf_model: Model,
    specs,
    cfg: MfConfig,
    cache: EvalCache | None = None,
) -> Expansion:
    """The combined multi-fidelity expansion (see :func:`build_mf_parts`)."""
    return build_mf_parts(lf_model, hf_model, specs, cfg, cache).combined

"""Additive multi-fidelity expansion construction.

:func:`fit` projects one model's values on one sparse grid. The
multi-fidelity PCE is the LF fit at level ``w`` plus a correction at level
``w - q``. Projection is linear in the node values, so the correction is
the HF fit minus the LF fit at ``w - q``, and :func:`build_mf_parts` is
three fits: ``LF(w) + HF(w - q) - LF(w - q)``, where the LF coefficients
outside the correction's index set pass through unchanged.
:class:`BuiltScheme` is the result of every build, single- or multi-fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import EvalCache, Model
from .pce import Expansion, project
from .sparse_grid import grid_size, row_keys, smolyak_grid


@dataclass(frozen=True)
class BuiltScheme:
    """Expansions and cost of one build. An MF build's parts are the LF fit
    at ``w`` and the correction and HF fit at ``w - q``. ``n_hf`` and
    ``n_lf`` are its cost, the distinct nodes it asks of each model,
    counted from its grids whatever its cache holds; what a cache paid is
    its :meth:`~mfpce.models.EvalCache.count`."""

    expansion: Expansion
    lf_expansion: Expansion | None
    correction: Expansion | None
    hf_expansion: Expansion | None
    n_hf: int
    n_lf: int


def fit(model: Model, w: int, specs, cache: EvalCache, provenance: str) -> Expansion:
    """``model``'s expansion labelled ``provenance``: its values at the
    level-``w`` sparse grid's nodes, paid through ``cache``, projected
    straight from the cache's value array, by each node's rank in the
    cache's ``U_W`` (:meth:`~mfpce.models.EvalCache.evaluate_grid`)."""
    grid = smolyak_grid(len(specs), w, specs)
    return project(cache.evaluate_grid(model, grid, w), w, specs, provenance, cache.space)


def build_mf_parts(lf_model: Model, hf_model: Model, specs, w: int, q: int, cache: EvalCache) -> BuiltScheme:
    """The LF fit at level ``w``, then the HF fit and the correction at
    level ``w - q``, paid in that order through ``cache``, of a level at
    least ``w``, and their sum, the combined ``expansion``; needs ``0 <= q
    <= w``. Its cost, counted first, is the level ``w - q`` grid's nodes of
    HF and both grids' nodes of LF."""
    specs = tuple(specs)
    n_lf, n_hf = grid_size(len(specs), w, q), grid_size(len(specs), w - q)

    lf_exp = fit(lf_model, w, specs, cache, "LF")
    hf_exp = fit(hf_model, w - q, specs, cache, "HF")
    # Both level w - q fits have the one term set of that level's plan.
    cr_coeffs = hf_exp.coeffs - fit(lf_model, w - q, specs, cache, "LF").coeffs
    cr_exp = Expansion(specs=specs, terms=hf_exp.terms, coeffs=cr_coeffs, provenance="Correction")

    # The level w - q multi-indices are a subset of the level w ones.
    coeffs = lf_exp.coeffs.copy()
    coeffs[np.searchsorted(row_keys(lf_exp.terms), row_keys(cr_exp.terms))] += cr_coeffs
    combined = Expansion(specs=specs, terms=lf_exp.terms, coeffs=coeffs, provenance="Combined")
    return BuiltScheme(combined, lf_exp, cr_exp, hf_exp, n_hf, n_lf)

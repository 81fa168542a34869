"""Additive multi-fidelity expansion construction.

The multi-fidelity PCE is the LF expansion at sparse level ``w`` plus a
correction expansion at level ``w - q``, projected from the HF minus LF
values at the correction grid's nodes. On the bases shared by both index
sets the coefficients add; outside the correction set the LF coefficients
pass through unchanged. :func:`build_mf_parts` is that one construction, and
:class:`BuiltScheme` is the result of every build, single- or multi-fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import EvalCache, Model
from .pce import Expansion, project
from .sparse_grid import physical_nodes, row_keys, smolyak_grid


@dataclass(frozen=True)
class BuiltScheme:
    """Expansions and evaluation counts of one build. ``n_hf`` and ``n_lf``
    are what the build paid: nodes already in its cache cost nothing."""

    expansion: Expansion
    lf_expansion: Expansion | None
    correction: Expansion | None
    n_hf: int
    n_lf: int


def build_mf_parts(
    lf_model: Model,
    hf_model: Model,
    specs,
    w: int,
    q: int,
    cache: EvalCache | None = None,
) -> BuiltScheme:
    """The LF expansion at level ``w``, the correction at level ``w - q`` and
    their sum, the combined ``expansion``; needs ``0 <= q <= w``."""
    if not 0 <= q <= w:
        raise ValueError(f"need 0 <= q <= w, got w={w}, q={q}")
    specs = tuple(specs)
    n = len(specs)
    cache = cache if cache is not None else EvalCache()
    hf_before, lf_before = cache.count(hf_model.id), cache.count(lf_model.id)

    lf_grid = smolyak_grid(n, w, specs)
    lf_values = cache.evaluate_many(lf_model, physical_nodes(lf_grid, specs))
    lf_exp = project(lf_values, w, specs, provenance="LF")

    cr_nodes = physical_nodes(smolyak_grid(n, w - q, specs), specs)
    hf_at_cr = cache.evaluate_many(hf_model, cr_nodes)
    lf_at_cr = cache.evaluate_many(lf_model, cr_nodes)
    cr_exp = project(hf_at_cr - lf_at_cr, w - q, specs, provenance="Correction")

    # The level w - q multi-indices are a subset of the level w ones.
    coeffs = lf_exp.coeffs.copy()
    coeffs[np.searchsorted(row_keys(lf_exp.terms), row_keys(cr_exp.terms))] += cr_exp.coeffs
    return BuiltScheme(
        expansion=Expansion(specs=specs, terms=lf_exp.terms, coeffs=coeffs, provenance="Combined"),
        lf_expansion=lf_exp,
        correction=cr_exp,
        n_hf=cache.count(hf_model.id) - hf_before,
        n_lf=cache.count(lf_model.id) - lf_before,
    )

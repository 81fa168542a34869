"""Outside-in tracing of the mfpce layers for the benchmark's traced pass.

:func:`install` rebinds every alias of each traced function, in every loaded
``mfpce`` module, and each traced method on its class, to a wrapper that
records a span; :func:`uninstall` puts the originals back. Nothing in
``mfpce`` itself changes, and untraced runs never import this module.

A span is ``[name, start, end, parent, run_id, counts]``: ``parent`` is the
index of the enclosing traced call in the same process (or ``None``) and
``counts`` holds the work counts taken at that boundary. Spans stay in
memory until the worker writes them out after the run.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _rows(X) -> int:
    return len(np.atleast_2d(X))


def _cache_misses_before(args) -> int:
    return sum(args[0].counters.values())


#: Traced module functions: (module, attribute, counts(args, result, pre)).
#: Every alias of each function in any ``mfpce`` namespace is wrapped, e.g.
#: ``smolyak_grid`` in ``sparse_grid``, ``pce``, ``mf``, ``study`` and the
#: package itself, so calls made through any module's binding are seen.
FUNCTIONS = [
    ("sparse_grid", "tensor_grid", None),
    ("sparse_grid", "smolyak_grid", lambda a, r, p: {"nodes": len(r)}),
    ("pce", "project", lambda a, r, p: {"coefficients": len(r.terms)}),
    ("pce", "evaluate_batch", lambda a, r, p: {"point_terms": _rows(a[1]) * len(a[0].terms)}),
    ("orthopoly", "eval_poly_table", None),
    ("orthopoly", "gauss_rule", None),
    ("mf", "build_mf_parts", None),
    ("sobol", "all_indices", None),
    ("study", "build_scheme", None),
    ("study", "prediction_error", None),
    ("study", "write_convergence_csv", None),
    ("config", "load_config", None),
    ("config", "build_reference", None),
    ("cli", "main", None),
]

#: Traced methods: (module, class, method, span name, counts, pre(args)).
#: A callable span name is computed from the call's arguments, which splits
#: external evaluation time by protocol mode.
METHODS = [
    ("models", "EvalCache", "__init__", "models.EvalCache.__init__", None, None),
    (
        "models",
        "EvalCache",
        "evaluate_many",
        "models.EvalCache.evaluate_many",
        lambda a, r, p: {"requested": _rows(a[2]), "misses": sum(a[0].counters.values()) - p},
        _cache_misses_before,
    ),
    ("models", "Model", "batch", "models.Model.batch", None, None),
    (
        "models",
        "ExternalModel",
        "batch",
        lambda a: f"models.external.{a[0].mode}",
        lambda a, r, p: {"evals": _rows(a[1])},
        None,
    ),
]


class Tracer:
    """Collects spans of one worker process in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, counts=None, pre=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name(args) if callable(name) else name,
                0.0,
                0.0,
                stack[-1] if stack else None,
                run_id,
                None,
            ]
            before = pre(args) if pre is not None else None
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, result, before)
            return result

        return traced


def _mfpce_modules():
    return [m for k, m in list(sys.modules.items()) if k == "mfpce" or k.startswith("mfpce.")]


def install(tracer: Tracer) -> list[tuple[str, str]]:
    """Wrap every traced function alias and method; return the aliases
    rebound, as ``(module, attribute)`` pairs."""
    if tracer._restore:
        raise RuntimeError("tracer already installed")
    modules = _mfpce_modules()
    for module, attr, counts in FUNCTIONS:
        original = getattr(sys.modules[f"mfpce.{module}"], attr)
        wrapper = tracer.wrap(original, f"{module}.{attr}", counts)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    tracer._restore.append((mod, key, original))
    for module, cls_name, method, name, counts, pre in METHODS:
        cls = getattr(sys.modules[f"mfpce.{module}"], cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, tracer.wrap(original, name, counts, pre))
        tracer._restore.append((cls, method, original))
    return [(getattr(o, "__name__", str(o)), key) for o, key, _ in tracer._restore]


def uninstall(tracer: Tracer) -> None:
    """Put back every original that :func:`install` replaced."""
    for owner, key, original in reversed(tracer._restore):
        setattr(owner, key, original)
    tracer._restore.clear()


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` (inclusive time
    minus the time of direct traced children) and the summed counts."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_s[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent, _run, counts), inner in zip(spans, child_s):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - inner
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out

"""Study configuration: a YAML file with nested key/value sections.

Schema (see README for a full example)::

    problem: ishigami            # optional builtin: pulls variables
    variables:                   # explicit list, overrides problem
      - {name: x1, dist: uniform, a: -3.1416, b: 3.1416}
      - {name: p,  dist: normal,  mu: 500.0,  sigma: 100.0}
    models:
      - {id: hf, builtin: ishigami/hf}
      - {id: lf, builtin: ishigami/lf1}
      - {id: ext, command: "python model.py", mode: stream, fidelity: hf}
    schemes:
      - {name: hf,  kind: hf, hf: hf}
      - {name: mf1, kind: mf, hf: hf, lf: lf, q: 2, rt: 0.03125}
    levels: {min: 1, max: 4}
    reference: {kind: analytic, a: 7.0, b: 0.1}
    #          {kind: pce, model: hf, w: 5}
    #          {kind: mc,  model: hf, n: 65536, seed: 7}
    validation: {count: 10000, seed: 42}
    output: out
    cache: cache.tsv             # optional persistent evaluation cache

Any other key, at the top level or in ``levels`` or ``validation``, is a
:class:`ConfigError`.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import yaml

from .models import BENCHMARK_SPECS, Model, builtin_model, external_model
from .orthopoly import Normal, Uniform, VariableSpec
from .sobol import SobolReport, all_indices, mc_sobol
from .study import SchemeSpec, build_scheme, ishigami_analytic

#: The top-level keys of a study config.
CONFIG_KEYS = (
    "problem",
    "variables",
    "models",
    "schemes",
    "levels",
    "reference",
    "validation",
    "output",
    "cache",
)


class ConfigError(ValueError):
    """Invalid or inconsistent study configuration."""


def int_at_least(value, low: int, what: str) -> int:
    """``value`` as an integer no less than ``low``, or a :class:`ConfigError`
    naming ``what`` and the value. An integral float such as ``2.0`` is an
    integer; a boolean, a string or any other float is not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{what} must be >= {low}, got {value}")
    return value


def _float(value) -> float:
    """``float(value)``, with a ``TypeError`` for a boolean, which is no number."""
    if isinstance(value, bool):
        raise TypeError(f"a boolean is not a number, got {value!r}")
    return float(value)


def _number(value, what: str) -> float:
    """``value`` as a float, or a :class:`ConfigError` naming ``what`` and the value."""
    try:
        return _float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _known_keys(section: dict, keys, what: str) -> None:
    """A :class:`ConfigError` naming every key of ``section`` not in ``keys``."""
    unknown = [key for key in section if key not in keys]
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(map(repr, unknown))}")


def _mapping(data: dict, key: str, keys) -> dict:
    """The section ``data[key]`` (empty if absent), or a :class:`ConfigError`
    if it is not a mapping or has a key not in ``keys``."""
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be a mapping, got {section!r}")
    _known_keys(section, keys, key)
    return section


def _list(data: dict, key: str) -> list:
    """The entries ``data[key]`` (empty if absent), or a :class:`ConfigError`
    if they are not a list."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise ConfigError(f"'{key}' must be a list, got {entries!r}")
    return entries


def seed_value(value, what: str) -> int:
    """``value`` as a seed: a key of the Philox generator, ``0 <= seed < 2**128``."""
    seed = int_at_least(value, 0, what)
    if seed >= 2**128:
        raise ConfigError(f"{what} must be < 2**128, got {seed}")
    return seed


@dataclass(frozen=True)
class ModelBinding:
    id: str
    builtin: str | None = None
    command: str | None = None
    mode: str = "oneshot"
    fidelity: str = "hf"


@dataclass(frozen=True)
class ReferenceSpec:
    kind: str  # "analytic" | "pce" | "mc"
    model: str | None = None
    w: int | None = None
    n: int | None = None
    seed: int | None = None
    a: float = 7.0
    b: float = 0.1


@dataclass(frozen=True)
class StudyConfig:
    variables: tuple[VariableSpec, ...]
    models: tuple[ModelBinding, ...]
    schemes: tuple[SchemeSpec, ...]
    level_min: int
    level_max: int
    reference: ReferenceSpec
    validation_count: int = 10000
    validation_seed: int = 42
    output: str = "out"
    cache_path: str | None = None
    problem: str | None = None

    def resolved_models(self) -> dict[str, Model]:
        out: dict[str, Model] = {}
        for binding in self.models:
            if binding.builtin is not None:
                problem, _, fidelity = binding.builtin.partition("/")
                try:
                    base = builtin_model(problem, fidelity)
                except KeyError as exc:
                    raise ConfigError(str(exc)) from exc
                inputs = len(BENCHMARK_SPECS[problem])
                if inputs != len(self.variables):
                    raise ConfigError(
                        f"model {binding.id!r}: builtin {binding.builtin!r} takes {inputs} "
                        f"inputs, but the config has {len(self.variables)} variables"
                    )
                out[binding.id] = Model(id=binding.id, fidelity=base.fidelity, fn=base.fn)
            else:
                out[binding.id] = external_model(
                    binding.command,
                    fidelity=binding.fidelity,
                    mode=binding.mode,
                    id=binding.id,
                )
        return out

    @contextmanager
    def open_models(self):
        """:meth:`resolved_models`, closed when the block ends, on success
        or on error, so that no stream child outlives it."""
        models = self.resolved_models()
        try:
            yield models
        finally:
            for model in models.values():
                model.close()

    def scheme(self, name: str) -> SchemeSpec:
        for s in self.schemes:
            if s.name == name:
                return s
        raise ConfigError(f"unknown scheme {name!r}")


def _parse_variable(entry: dict) -> VariableSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"a variable must be a mapping, got {entry!r}")
    if not isinstance(entry.get("name"), str):
        raise ConfigError(f"a variable name must be a string, got {entry.get('name')!r}")
    kind = entry.get("dist")
    try:
        if kind == "uniform":
            return VariableSpec(entry["name"], Uniform(_float(entry["a"]), _float(entry["b"])))
        if kind == "normal":
            return VariableSpec(entry["name"], Normal(_float(entry["mu"]), _float(entry["sigma"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad variable entry {entry!r}: {exc}") from exc
    raise ConfigError(f"variable {entry.get('name')!r}: unknown dist {kind!r}")


def _parse_scheme(entry: dict) -> SchemeSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"a scheme must be a mapping, got {entry!r}")
    if "q" in entry:
        entry = {**entry, "q": int_at_least(entry["q"], 0, f"scheme {entry.get('name')!r} q")}
    try:
        return SchemeSpec(**entry)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scheme entry: {exc}") from exc


def parse_config(data: dict) -> StudyConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _known_keys(data, CONFIG_KEYS, "config")

    problem = data.get("problem")
    if problem is not None and not isinstance(problem, str):
        raise ConfigError(f"'problem' must be a string, got {problem!r}")
    if "variables" in data:
        variables = tuple(_parse_variable(v) for v in _list(data, "variables"))
    elif problem in BENCHMARK_SPECS:
        variables = tuple(BENCHMARK_SPECS[problem])
    else:
        raise ConfigError("config needs 'variables' or a builtin 'problem'")
    if not variables:
        raise ConfigError("at least one variable is required")

    try:
        models = tuple(ModelBinding(**m) for m in _list(data, "models"))
    except TypeError as exc:
        raise ConfigError(f"bad model binding: {exc}") from exc
    if not models:
        raise ConfigError("at least one model is required")
    for binding in models:
        if not isinstance(binding.id, str):
            raise ConfigError(f"model id must be a string, got {binding.id!r}")
        for key in ("builtin", "command"):
            value = getattr(binding, key)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"model {binding.id!r}: {key} must be a string, got {value!r}")
        if (binding.builtin is None) == (binding.command is None):
            raise ConfigError(
                f"model {binding.id!r} needs exactly one of 'builtin' or 'command'"
            )
        if binding.mode not in ("oneshot", "stream"):
            raise ConfigError(f"model {binding.id!r}: unknown mode {binding.mode!r}")
    model_ids = [m.id for m in models]
    if len(set(model_ids)) != len(models):
        raise ConfigError("model ids must be unique")

    schemes = tuple(_parse_scheme(s) for s in _list(data, "schemes"))
    if not schemes:
        raise ConfigError("at least one scheme is required")
    for scheme in schemes:
        for ref in (scheme.hf, scheme.lf):
            if ref is not None and ref not in model_ids:
                raise ConfigError(f"scheme {scheme.name!r} references unknown model {ref!r}")

    levels = _mapping(data, "levels", ("min", "max"))
    level_min = int_at_least(levels.get("min", 1), 0, "levels min")
    level_max = int_at_least(levels.get("max", level_min), level_min, "levels max")

    ref_data = data.get("reference")
    if not isinstance(ref_data, dict) or "kind" not in ref_data:
        raise ConfigError("config needs a 'reference' section with a 'kind'")
    try:
        reference = ReferenceSpec(**ref_data)
    except TypeError as exc:
        raise ConfigError(f"bad reference section: {exc}") from exc
    if reference.kind not in ("analytic", "pce", "mc"):
        raise ConfigError(f"unknown reference kind {reference.kind!r}")
    if reference.kind == "analytic":
        reference = dataclasses.replace(
            reference, a=_number(reference.a, "reference a"), b=_number(reference.b, "reference b")
        )
    if reference.kind in ("pce", "mc"):
        if reference.model not in model_ids:
            raise ConfigError(f"reference model {reference.model!r} not defined")
        if reference.kind == "pce" and reference.w is None:
            raise ConfigError("pce reference needs 'w'")
        if reference.kind == "mc" and reference.n is None:
            raise ConfigError("mc reference needs 'n'")
    if reference.kind == "pce":
        reference = dataclasses.replace(reference, w=int_at_least(reference.w, 0, "reference w"))
    if reference.kind == "mc":
        reference = dataclasses.replace(
            reference,
            n=int_at_least(reference.n, 2, "reference n"),
            seed=None if reference.seed is None else seed_value(reference.seed, "reference seed"),
        )

    validation = _mapping(data, "validation", ("count", "seed"))
    cache_path = data.get("cache")
    if cache_path is not None and not isinstance(cache_path, str):
        raise ConfigError(f"'cache' must be a path, got {cache_path!r}")
    return StudyConfig(
        variables=variables,
        models=models,
        schemes=schemes,
        level_min=level_min,
        level_max=level_max,
        reference=reference,
        validation_count=int_at_least(validation.get("count", 10000), 2, "validation count"),
        validation_seed=seed_value(validation.get("seed", 42), "validation seed"),
        output=str(data.get("output", "out")),
        cache_path=cache_path,
        problem=problem,
    )


def load_config(path: str | Path) -> StudyConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(data)


def config_to_dict(cfg: StudyConfig) -> dict:
    variables = []
    for spec in cfg.variables:
        if isinstance(spec.dist, Uniform):
            variables.append(
                {"name": spec.name, "dist": "uniform", "a": spec.dist.a, "b": spec.dist.b}
            )
        else:
            variables.append(
                {"name": spec.name, "dist": "normal", "mu": spec.dist.mu, "sigma": spec.dist.sigma}
            )
    models = []
    for m in cfg.models:
        entry: dict = {"id": m.id}
        if m.builtin is not None:
            entry["builtin"] = m.builtin
        else:
            entry.update({"command": m.command, "mode": m.mode, "fidelity": m.fidelity})
        models.append(entry)
    schemes = []
    for s in cfg.schemes:
        entry = {"name": s.name, "kind": s.kind, "hf": s.hf}
        if s.lf is not None:
            entry["lf"] = s.lf
        if s.kind == "mf":
            entry["q"] = s.q
        if s.rt is not None:
            entry["rt"] = s.rt
        schemes.append(entry)
    ref: dict = {"kind": cfg.reference.kind}
    if cfg.reference.kind == "analytic":
        ref.update({"a": cfg.reference.a, "b": cfg.reference.b})
    elif cfg.reference.kind == "pce":
        ref.update({"model": cfg.reference.model, "w": cfg.reference.w})
    else:
        ref.update(
            {"model": cfg.reference.model, "n": cfg.reference.n, "seed": cfg.reference.seed}
        )
    out = {
        "variables": variables,
        "models": models,
        "schemes": schemes,
        "levels": {"min": cfg.level_min, "max": cfg.level_max},
        "reference": ref,
        "validation": {"count": cfg.validation_count, "seed": cfg.validation_seed},
        "output": cfg.output,
    }
    if cfg.problem is not None:
        out["problem"] = cfg.problem
    if cfg.cache_path is not None:
        out["cache"] = cfg.cache_path
    return out


def save_config(cfg: StudyConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))


def build_reference(cfg: StudyConfig, models: dict[str, Model]) -> SobolReport:
    """Reference Sobol report named by the config: analytic, a high-level
    PCE of one model, or a seeded Monte Carlo run."""
    ref = cfg.reference
    if ref.kind == "analytic":
        return ishigami_analytic(ref.a, ref.b)
    if ref.kind == "pce":
        scheme = SchemeSpec(name="__reference__", kind="hf", hf=ref.model)
        built = build_scheme(scheme, ref.w, cfg.variables, models)
        return all_indices(built.expansion)
    return mc_sobol(models[ref.model], cfg.variables, ref.n, ref.seed or 0)

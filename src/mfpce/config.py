"""Study configuration: a YAML file with nested key/value sections.

Each section is described once, as a :class:`Section`: a table of fields,
each with a check and a default. :data:`CONFIG` and the sections it nests
are read by one walker and written back by :func:`config_to_dict`. The
README's "Study configuration" has the same tables and a full example.
"""

from __future__ import annotations

import shlex
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

from .models import BENCHMARK_SPECS, ExternalModel, Model, builtin_model
from .orthopoly import Normal, Uniform, VariableSpec
from .sobol import SobolReport, all_indices, mc_sobol
from .study import SchemeSpec, build_scheme, ishigami_analytic


class ConfigError(ValueError):
    """Invalid or inconsistent study configuration."""


# --- field checks: each takes a value and its label and returns the value ----


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


def seed_value(value, what: str) -> int:
    """``value`` as a seed: a key of the Philox generator, ``0 <= seed < 2**128``."""
    seed = int_at_least(value, 0, what)
    if seed >= 2**128:
        raise ConfigError(f"{what} must be < 2**128, got {seed}")
    return seed


def at_least(low: int) -> Callable:
    """The check of an integer no less than ``low``."""
    return lambda value, what: int_at_least(value, low, what)


def string(value, what: str, noun: str = "a string") -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be {noun}, got {value!r}")
    return value


def record_field(value, what: str) -> str:
    """A string that fits in a field of a cache record: no tab, no newline."""
    text = string(value, what)
    if "\t" in text or "\n" in text:
        raise ConfigError(f"{what} must hold no tab or newline, got {value!r}")
    return text


def path(value, what: str) -> str:
    return string(value, what, "a path")


def shell_words(value, what: str) -> str:
    """A string that ``shlex.split`` splits into a program and its arguments,
    as an external model is run."""
    words = string(value, what)
    try:
        argv = shlex.split(words)
    except ValueError as exc:
        raise ConfigError(f"{what} must be shell words ({exc}), got {value!r}") from None
    if not argv:
        raise ConfigError(f"{what} must name a program, got {value!r}")
    return words


def number(value, what: str) -> float:
    """A finite number, as a float; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return float(value)


def one_of(*choices: str) -> Callable:
    """The check of one of the strings ``choices``."""

    def check(value, what: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{what} must be one of {', '.join(choices)}, got {value!r}")
        return value

    return check


# --- sections -----------------------------------------------------------------

#: The default of a key that must be given.
REQUIRED = object()


@dataclass(frozen=True)
class Section:
    """One mapping of a config, or with ``many`` a list of them, described
    as a table of fields; ``noun`` names it in errors.

    ``fields`` maps each key to ``(check, default)``. A check is a function
    of the value and its label, or a nested :class:`Section`. A dict in
    place of a check makes the key a tag: its value picks one of the dict's
    tables, whose fields join the section. A ``null`` value is an absent key
    and takes the default, which is checked like a given value; a default
    of :data:`REQUIRED` makes the key required. A field's label is
    ``label`` formatted with its ``key`` and the ``name`` in the entry's
    first field. ``build`` makes the section's object from its fields and
    ``view`` gives them back.
    """

    noun: str
    label: str
    fields: dict
    many: bool = False
    build: Callable = dict
    view: Callable = vars

    def __call__(self, value, what: str):
        if not self.many:
            return self._read(value, what)
        if not isinstance(value, list):
            raise ConfigError(f"{what} must be a list, got {value!r}")
        if not value:
            raise ConfigError(f"{what} needs at least one entry")
        return tuple(self._read(entry, f"a {self.noun}") for entry in value)

    def _read(self, data, what: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{what} must be a mapping, got {data!r}")
        fields, got = dict(self.fields), {}
        keys = list(fields)
        for key in keys:  # a tag extends ``keys`` by its variant's
            check, default = fields[key]
            value = default if data.get(key) is None else data[key]
            if self.many and not got:
                label = f"a {self.noun} {key}"
            else:
                label = self.label.format(key=key, name=next(iter(got.values()), None))
            if value is REQUIRED:
                raise ConfigError(f"{label} is required")
            if isinstance(check, dict):
                value = one_of(*check)(value, label)
                fields.update(check[value])
                keys += check[value]
            elif value is not None:
                value = check(value, label)
            got[key] = value
        unknown = [key for key in data if key not in fields]
        if unknown:
            raise ConfigError(f"unknown {self.noun} keys: {', '.join(map(repr, unknown))}")
        try:
            return self.build(**got)
        except ValueError as exc:
            raise ConfigError(f"bad {self.noun} {data!r}: {exc}") from None

    def dump(self, obj) -> dict:
        """The mapping of ``obj`` by this table: each field that is not None."""
        values, fields, out = self.view(obj), dict(self.fields), {}
        keys = list(fields)
        for key in keys:  # a tag extends ``keys`` by its variant's
            check, value = fields[key][0], values[key]
            if isinstance(check, dict):
                fields.update(check[value])
                keys += check[value]
            elif isinstance(check, Section) and value is not None:
                value = [check.dump(v) for v in value] if check.many else check.dump(value)
            if value is not None:
                out[key] = value
        return out


# --- the config's objects and tables -----------------------------------------


@dataclass(frozen=True)
class ModelBinding:
    id: str
    builtin: str | None
    command: str | None
    mode: str | None
    fidelity: str | None


@dataclass(frozen=True)
class ReferenceSpec:
    kind: str  # "analytic" | "pce" | "mc"
    model: str | None = None
    w: int | None = None
    n: int | None = None
    seed: int | None = None
    a: float | None = None
    b: float | None = None


@dataclass(frozen=True)
class Levels:
    min: int
    max: int


@dataclass(frozen=True)
class Validation:
    count: int
    seed: int


#: The input distributions, by the ``dist`` tag of a variable.
DISTS = {"uniform": Uniform, "normal": Normal}


def _variable(name: str, dist: str, **params) -> VariableSpec:
    return VariableSpec(name, DISTS[dist](**params))


def _variable_fields(spec: VariableSpec) -> dict:
    dist = next(tag for tag, kind in DISTS.items() if isinstance(spec.dist, kind))
    return {"name": spec.name, "dist": dist, **vars(spec.dist)}


VARIABLE = Section("variable", "variable {name!r} {key}", many=True,
                   build=_variable, view=_variable_fields, fields={
    "name": (string, REQUIRED),
    "dist": ({
        "uniform": {"a": (number, REQUIRED), "b": (number, REQUIRED)},
        "normal": {"mu": (number, REQUIRED), "sigma": (number, REQUIRED)},
    }, REQUIRED),
})

MODEL = Section("model", "model {name!r}: {key}", many=True, build=ModelBinding, fields={
    "id": (record_field, REQUIRED),
    "builtin": (string, None),
    "command": (shell_words, None),
    "mode": (one_of("oneshot", "stream"), None),
    "fidelity": (string, None),  # a label that nothing reads
})

SCHEME = Section("scheme", "scheme {name!r} {key}", many=True, build=SchemeSpec, fields={
    "name": (string, REQUIRED),
    "kind": (one_of("hf", "lf", "mf"), REQUIRED),
    "hf": (string, REQUIRED),
    "lf": (string, None),
    "q": (at_least(0), 0),
    "rt": (number, None),
})

REFERENCE = Section("reference", "reference {key}", build=ReferenceSpec, fields={
    "kind": ({
        "analytic": {"a": (number, 7.0), "b": (number, 0.1)},
        "pce": {"model": (string, REQUIRED), "w": (at_least(0), REQUIRED)},
        "mc": {"model": (string, REQUIRED), "n": (at_least(2), REQUIRED), "seed": (seed_value, 0)},
    }, REQUIRED),
})

LEVELS = Section("levels", "levels {key}", fields={  # parse_config makes the Levels
    "min": (at_least(0), 1),
    "max": (at_least(0), None),
})

VALIDATION = Section("validation", "validation {key}", build=Validation, fields={
    "count": (at_least(2), 10000),
    "seed": (seed_value, 42),
})

#: The whole config, whose fields make a :class:`StudyConfig`.
CONFIG = Section("config", "'{key}'", fields={
    "problem": (string, None),
    "variables": (VARIABLE, None),
    "models": (MODEL, REQUIRED),
    "schemes": (SCHEME, REQUIRED),
    "levels": (LEVELS, {}),
    "reference": (REFERENCE, REQUIRED),
    "validation": (VALIDATION, {}),
    "output": (string, "out"),
    "cache": (path, None),
})


@dataclass(frozen=True)
class StudyConfig:
    problem: str | None
    variables: tuple[VariableSpec, ...]
    models: tuple[ModelBinding, ...]
    schemes: tuple[SchemeSpec, ...]
    levels: Levels
    reference: ReferenceSpec
    validation: Validation
    output: str
    cache: str | None

    def resolved_models(self) -> dict[str, Model | ExternalModel]:
        out: dict[str, Model | ExternalModel] = {}
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
                out[binding.id] = Model(id=binding.id, fn=base.fn)
            else:
                out[binding.id] = ExternalModel(
                    binding.command, binding.mode or "oneshot", binding.id
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


def parse_config(data) -> StudyConfig:
    """The config ``data`` read through :data:`CONFIG`, then checked by the
    rules that span fields."""
    fields = CONFIG(data, "config")
    if fields["variables"] is None:
        if fields["problem"] not in BENCHMARK_SPECS:
            raise ConfigError("config needs 'variables' or a builtin 'problem'")
        fields["variables"] = tuple(BENCHMARK_SPECS[fields["problem"]])
    models, schemes, reference = fields["models"], fields["schemes"], fields["reference"]
    model_ids = [m.id for m in models]
    for what, names in (("model ids", model_ids), ("scheme names", [s.name for s in schemes])):
        if len(set(names)) != len(names):
            raise ConfigError(f"{what} must be unique, got {names}")
    for binding in models:
        if (binding.builtin is None) == (binding.command is None):
            raise ConfigError(f"model {binding.id!r} needs exactly one of 'builtin' or 'command'")
        unread = [key for key in ("mode", "fidelity") if getattr(binding, key) is not None]
        if binding.builtin is not None and unread:
            raise ConfigError(f"model {binding.id!r}: a builtin model takes no {', '.join(unread)}")
    uses = [(f"scheme {s.name!r}", ref) for s in schemes for ref in (s.hf, s.lf)]
    for user, ref in uses + [("reference", reference.model)]:
        if ref is not None and ref not in model_ids:
            raise ConfigError(f"{user} references unknown model {ref!r}")
    low, high = fields["levels"]["min"], fields["levels"]["max"]
    fields["levels"] = Levels(low, int_at_least(low if high is None else high, low, "levels max"))
    return StudyConfig(**fields)


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
    """``cfg`` as the mapping that :func:`parse_config` reads back into it."""
    return CONFIG.dump(cfg)


def build_reference(cfg: StudyConfig, models: dict[str, Model]) -> SobolReport:
    """Reference Sobol report named by the config: the analytic Ishigami
    decomposition, a high-level PCE of one model, or a seeded Monte Carlo
    run."""
    ref = cfg.reference
    if ref.kind == "analytic":
        if len(cfg.variables) != 3:
            raise ConfigError(f"the analytic reference needs 3 variables, got {len(cfg.variables)}")
        return ishigami_analytic(ref.a, ref.b)
    if ref.kind == "pce":
        scheme = SchemeSpec(name="__reference__", kind="hf", hf=ref.model)
        built = build_scheme(scheme, ref.w, cfg.variables, models)
        return all_indices(built.expansion)
    return mc_sobol(models[ref.model], cfg.variables, ref.n, ref.seed)

import copy
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from mfpce.config import (
    ConfigError,
    build_reference,
    config_to_dict,
    load_config,
    parse_config,
)
from mfpce.models import builtin_model
from mfpce.orthopoly import Normal, Uniform

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))

#: The values each section and leaf of a shipped config is replaced by.
MUTATIONS = [True, [1], {"k": 1}, "s", None, float("nan"), float("inf"), -1, 1.5, 0]


def paths(node, prefix=()):
    """The path of every section, list entry and leaf below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def at(node, path):
    """The node at ``path`` below ``node``."""
    for key in path:
        node = node[key]
    return node


def outcome(data):
    """The config ``data`` makes, with its models resolved, or None if
    either step raises :class:`ConfigError`."""
    try:
        cfg = parse_config(data)
        with cfg.open_models():
            pass
    except ConfigError:
        return None
    return cfg


def same_kind(value, original) -> bool:
    """Whether ``value`` is of the shipped leaf ``original``'s kind: a string
    for a string, an integer for an integer, a finite number for a float."""
    if isinstance(original, str):
        return isinstance(value, str)
    kinds = (int, float) if type(original) is float else (int,)
    return type(value) in kinds and math.isfinite(value)


def minimal_config(**overrides):
    data = {
        "problem": "ishigami",
        "models": [
            {"id": "hf", "builtin": "ishigami/hf"},
            {"id": "lf", "builtin": "ishigami/lf1"},
        ],
        "schemes": [
            {"name": "hf", "kind": "hf", "hf": "hf"},
            {"name": "mf", "kind": "mf", "hf": "hf", "lf": "lf", "q": 1, "rt": 0.125},
        ],
        "levels": {"min": 1, "max": 2},
        "reference": {"kind": "analytic", "a": 7.0, "b": 0.1},
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal(self):
        cfg = parse_config(minimal_config())
        assert len(cfg.variables) == 3
        assert (cfg.levels.min, cfg.levels.max) == (1, 2)
        assert cfg.validation.count == 10000  # default
        assert cfg.scheme("mf").rt == 0.125

    def test_explicit_variables_override_problem(self):
        data = minimal_config(
            variables=[
                {"name": "u", "dist": "uniform", "a": 0.0, "b": 1.0},
                {"name": "g", "dist": "normal", "mu": 5.0, "sigma": 0.5},
            ]
        )
        cfg = parse_config(data)
        assert [v.name for v in cfg.variables] == ["u", "g"]
        assert isinstance(cfg.variables[0].dist, Uniform)
        assert isinstance(cfg.variables[1].dist, Normal)

    def test_unknown_dist(self):
        data = minimal_config(
            variables=[{"name": "u", "dist": "beta", "a": 0.0, "b": 1.0}]
        )
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_missing_models(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(models=[]))

    def test_duplicate_model_ids(self):
        data = minimal_config(
            models=[
                {"id": "hf", "builtin": "ishigami/hf"},
                {"id": "hf", "builtin": "ishigami/lf1"},
            ]
        )
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_model_needs_one_source(self):
        data = minimal_config(models=[{"id": "hf"}])
        with pytest.raises(ConfigError):
            parse_config(data)
        data = minimal_config(
            models=[{"id": "hf", "builtin": "ishigami/hf", "command": "true"}]
        )
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_scheme_references_must_resolve(self):
        data = minimal_config(
            schemes=[{"name": "hf", "kind": "hf", "hf": "nope"}]
        )
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_reference_section_required(self):
        data = minimal_config()
        del data["reference"]
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_pce_reference_needs_level(self):
        data = minimal_config(reference={"kind": "pce", "model": "hf"})
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_mc_reference_needs_count(self):
        data = minimal_config(reference={"kind": "mc", "model": "hf"})
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_bad_level_range(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(levels={"min": 3, "max": 1}))

    @pytest.mark.parametrize("key", ["rt_values", "levles"])
    def test_unknown_top_level_key(self, key):
        data = minimal_config(**{key: [0.25, 0.125]})
        with pytest.raises(ConfigError, match=repr(key)):
            parse_config(data)

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError):
            parse_config(["not", "a", "mapping"])


class TestRoundTrip:
    def test_save_load_is_identity(self, tmp_path):
        cfg = parse_config(
            minimal_config(
                validation={"count": 5000, "seed": 3},
                output="results",
                cache="cache.tsv",
            )
        )
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
        again = load_config(path)
        assert again == cfg
        # and the dict form is stable too
        assert config_to_dict(again) == config_to_dict(cfg)
        # a builtin model has no mode or fidelity to write
        assert all(m.keys() == {"id", "builtin"} for m in config_to_dict(cfg)["models"])

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_every_mutant_is_config_error_or_round_trips(self, tmp_path, path):
        """Each section and leaf of a shipped config, replaced by each of
        ``MUTATIONS``, either raises :class:`ConfigError` from parsing and
        resolving, or parses to a config that saves and loads back equal.
        A ``null`` parses as the key's absence would; any other value that
        parses is of the shipped leaf's kind and stays in its place."""
        data = yaml.safe_load(path.read_text())
        saved = tmp_path / "saved.yaml"
        for where in paths(data):
            for value in MUTATIONS:
                mutant = copy.deepcopy(data)
                parent = at(mutant, where[:-1])
                parent[where[-1]] = value
                cfg = outcome(mutant)
                if cfg is None:
                    continue
                saved.write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
                assert load_config(saved) == cfg, (where, value)
                if value is None:
                    del parent[where[-1]]
                    assert outcome(mutant) == cfg, where
                else:
                    assert same_kind(value, at(data, where)), (where, value)
                    assert at(config_to_dict(cfg), where) == value, (where, value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("models: [unbalanced\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestResolution:
    def test_builtin_models_resolve(self):
        cfg = parse_config(minimal_config())
        models = cfg.resolved_models()
        assert set(models) == {"hf", "lf"}
        assert models["hf"].id == "hf"
        assert models["lf"].id == "lf"
        x = np.array([[0.3, -1.2, 2.0]])
        assert models["lf"].batch(x) == builtin_model("ishigami", "lf1").batch(x)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_loads_and_resolves(self, path):
        cfg = load_config(path)
        with cfg.open_models() as models:
            assert list(models) == [binding.id for binding in cfg.models]
        for scheme in cfg.schemes:
            assert {scheme.hf, scheme.lf} - {None} <= models.keys()

    def test_unknown_builtin(self):
        data = minimal_config(
            models=[
                {"id": "hf", "builtin": "ishigami/lf7"},
                {"id": "lf", "builtin": "ishigami/lf1"},
            ]
        )
        cfg = parse_config(data)
        with pytest.raises(ConfigError):
            cfg.resolved_models()

    def test_unknown_scheme_name(self):
        cfg = parse_config(minimal_config())
        with pytest.raises(ConfigError):
            cfg.scheme("missing")


class TestReference:
    def test_analytic(self):
        cfg = parse_config(minimal_config())
        report = build_reference(cfg, cfg.resolved_models())
        assert report.n == 3
        assert sum(report.subset_indices.values()) == pytest.approx(1.0)

    def test_pce(self):
        cfg = parse_config(
            minimal_config(reference={"kind": "pce", "model": "hf", "w": 3})
        )
        report = build_reference(cfg, cfg.resolved_models())
        assert report.n == 3

    def test_mc(self):
        cfg = parse_config(
            minimal_config(
                reference={"kind": "mc", "model": "hf", "n": 2048, "seed": 5}
            )
        )
        report = build_reference(cfg, cfg.resolved_models())
        assert report.first_order_se is not None

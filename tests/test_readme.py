import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

from mfpce.config import CONFIG, Section, parse_config
from mfpce.models import ExternalModel, Model

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_start_runs():
    """The README's library quick start runs as written in a fresh interpreter."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def schema_keys(section):
    """``(noun, keys)`` of a config section and of each section it nests;
    the keys of a tag's variants join their section's."""
    keys = set(section.fields)
    for check, _ in section.fields.values():
        if isinstance(check, dict):
            keys |= {key for variant in check.values() for key in variant}
        elif isinstance(check, Section):
            yield from schema_keys(check)
    yield section.noun, keys


def test_config_tables_name_every_schema_key():
    """Each section of the config schema has a table in the README's "Study
    configuration" whose first column names every one of its keys."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Study configuration", 1)[1].split("\n## ", 1)[0]
    tables = []  # the keys in the first column of each table
    for block in re.split(r"\n\s*\n", section):
        rows = [line.split("|")[1] for line in block.splitlines() if line.startswith("|")]
        tables.append({key for row in rows[2:] for key in re.findall(r"`([^`]+)`", row)})
    for noun, keys in schema_keys(CONFIG):
        assert any(keys <= table for table in tables), f"no README table has every {noun} key"


def test_example_config_loads_and_opens_its_models(monkeypatch):
    """The YAML example of "Study configuration" parses, and its models,
    builtin and command, open as a plain dict with no model run and no
    child started; neither kind has anything to close."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Study configuration", 1)[1]
    data = yaml.safe_load(re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1))
    ran = []
    monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: ran.append(args))
    for cls in (Model, ExternalModel):
        monkeypatch.setattr(cls, "batch", lambda self, X, on_answered=None: ran.append(self.id))
    models = parse_config(data).open_models()
    assert type(models) is dict and list(models) == ["hf", "lf", "ext"]
    assert (models["ext"].id, models["ext"].mode) == ("ext", "stream")
    assert not hasattr(models["hf"], "close")
    assert ran == []

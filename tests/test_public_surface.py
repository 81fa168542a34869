"""The package's public names: each resolves, and each is used by the
program, the benchmark or the README, not by the tests alone."""

import ast
import re
from pathlib import Path

import mfpce

ROOT = Path(__file__).resolve().parent.parent


def python_names(path: Path) -> set[str]:
    """The names and attributes that the code of ``path`` reads or writes;
    a ``def`` or ``class`` statement and an import do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def readme_names() -> set[str]:
    """The identifiers in the README's code: fenced blocks and inline spans."""
    readme = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.DOTALL)
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


def test_every_public_name_resolves_and_is_used():
    sources = [p for p in (ROOT / "src" / "mfpce").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    used = readme_names().union(*map(python_names, sources))
    for name in mfpce.__all__:
        assert hasattr(mfpce, name), f"mfpce.{name} does not resolve"
    unused = [name for name in mfpce.__all__ if name not in used]
    assert unused == [], f"exported but used only by the tests: {unused}"


#: Imports kept for other modules to read, as ``(module, name)``.
#: ``pce.smolyak_grid`` and ``study.smolyak_grid`` are rebound there by
#: bench/tracer.py.
KEPT_IMPORTS = {("pce", "smolyak_grid"), ("study", "smolyak_grid")}


def imported_names(tree: ast.Module) -> set[str]:
    """The names an import statement of ``tree`` binds, but ``__future__``'s."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list."""
    return {
        item.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for item in node.value.elts
    }


def test_every_import_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "mfpce").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = python_names(path) | exported_names(tree)
        unused += [
            f"{path.stem}.{name}"
            for name in sorted(imported_names(tree) - used)
            if (path.stem, name) not in KEPT_IMPORTS
        ]
    assert unused == [], f"imported but never used: {unused}"

"""Checks on the project as shipped: the README's library example runs as
written, and no module imports a name it never uses."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "dualmoco").glob("*.py") if p.name != "__init__.py")


def test_readme_library_use_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    acc_ab, acc_ba = ast.literal_eval(out.getvalue().strip())
    assert acc_ab >= 0.95 and acc_ba >= 0.95


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom typing import Sequence\nos.sep\n"
    assert _unused_imports(source) == ["line 3: Sequence"]

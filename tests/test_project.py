"""Checks on the project as shipped: the README's library example runs as
written and it names only commands and flags the CLI accepts, no module
imports a name it never uses, every top-level name the package defines,
private ones too, has a user outside the tests, every raise is one of the package's error
families, and so is the error of every conversion to one of its enums."""

import argparse
import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

from dualmoco import cli, errors

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


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subcommands.choices


def _unknown_flags(parser: argparse.ArgumentParser, text: str) -> list[str]:
    """The `--flag` words of `text` that no subcommand of `parser` accepts."""
    accepted = {
        option
        for command in _subcommands(parser).values()
        for action in command._actions
        for option in action.option_strings
    }
    return sorted(set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text)) - accepted)


def _unknown_commands(parser: argparse.ArgumentParser, text: str) -> list[str]:
    """The commands of the `dualmoco <command>` lines and inline code spans of
    `text` that are not subcommands of `parser`."""
    named = re.findall(r"(?:^|`)[ \t]*dualmoco ([a-z][\w-]*)", text, re.M)
    return sorted(set(named) - set(_subcommands(parser)))


def test_readme_names_only_accepted_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _unknown_flags(cli.build_parser(), readme) == []


def test_unknown_flag_is_reported():
    text = "| `--momentum 0` | the ablation, formerly `--no-momentum`; see --help |"
    assert _unknown_flags(cli.build_parser(), text) == ["--no-momentum"]


def test_readme_names_only_existing_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _unknown_commands(cli.build_parser(), readme) == []


def test_unknown_command_is_reported():
    text = (
        "```bash\ndualmoco embed --out e\n  dualmoco dump-embeddings --out d\n```\n"
        "then `dualmoco mine` or `dualmoco fit`; from dualmoco import cli\n"
    )
    assert _unknown_commands(cli.build_parser(), text) == ["dump-embeddings", "fit"]


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


def _unused_names(sources: dict[str, str], docs: str) -> list[str]:
    """Top-level names but dunders defined in `sources` (module name -> code)
    that no source loads or imports and no word of `docs` matches. Only
    loads count, so an assignment is not its own use, and a private helper
    that only the tests call is reported."""
    defined, used = [], set(re.findall(r"\w+", docs))
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
                defined.extend((module, name) for name in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{m}.{name}" for m, name in defined if name not in used and not re.fullmatch(r"__\w*__", name)]


def test_every_public_name_has_a_user_outside_the_tests():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    docs = [ROOT / "README.md", ROOT / "pyproject.toml", *sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unused_names(sources, "\n".join(p.read_text(encoding="utf-8") for p in docs)) == []


def test_unused_public_name_is_reported():
    sources = {
        "a": "X = 1\nY = 2\n_Z = 3\ndef f():\n    return Y\nclass C:\n    pass\nclass D:\n    pass\n",
        "b": "from .a import C\nimport a\na.D\n__all__ = []\n_W = 4\ndef _g():\n    return _W\ndef _h():\n    pass\n",
        "c": "from .b import _g\n",
    }
    assert _unused_names(sources, "f is in the README") == ["a.X", "a._Z", "b._h"]


def _foreign_raises(sources: dict[str, str], families: set[str]) -> list[str]:
    """The raise statements of `sources` (module name -> code) that do not
    construct a class named in `families`, directly or through a function
    annotated to return one."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    makers = set(families)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and isinstance(node.returns, ast.Name):
                if node.returns.id in families:
                    makers.add(node.name)
    return [
        f"{module} line {node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and not (isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name) and node.exc.func.id in makers)
    ]


def test_every_raise_is_an_error_family():
    families = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.DualMocoError)
    }
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert _foreign_raises(sources, families) == []


def test_foreign_raise_is_reported():
    sources = {
        "a": (
            "def f(x):\n    if x:\n        raise ConfigError('x')\n    raise ValueError('y')\n"
            "def _bad(n) -> InvalidInputError:\n    return InvalidInputError(n)\n"
            "def g(n):\n    raise _bad(n)\n"
            "def h():\n    try:\n        pass\n    except KeyError:\n        raise\n"
        ),
    }
    assert _foreign_raises(sources, {"ConfigError", "InvalidInputError"}) == ["a line 4", "a line 13"]


def _bare_enum_conversions(sources: dict[str, str]) -> list[str]:
    """The calls of `sources` (module name -> code) that convert a value to
    an Enum class the sources define, such as Pooling(x), outside a
    function annotated to return that class.

    Such a conversion raises ValueError for an unknown value, outside the
    error families; the annotated function is where it is turned into one.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    enums = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id == "Enum" for b in node.bases)
    }
    allowed = {
        id(call)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and isinstance(node.returns, ast.Name) and node.returns.id in enums
        for call in ast.walk(node)
    }
    return [
        f"{module} line {node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in enums
        and id(node) not in allowed
    ]


def test_every_enum_conversion_is_an_error_family():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert _bare_enum_conversions(sources) == []


def test_bare_enum_conversion_is_reported():
    sources = {
        "a": (
            "class Mode(str, Enum):\n    X = 'x'\n"
            "def as_mode(v) -> Mode:\n    try:\n        return Mode(v)\n"
            "    except ValueError:\n        raise ConfigError(v) from None\n"
            "def f(v):\n    return Mode(v)\n"
        ),
        "b": "def g(v):\n    return [Mode(v), as_mode(v), Other(v)]\n",
    }
    assert _bare_enum_conversions(sources) == ["a line 9", "b line 2"]

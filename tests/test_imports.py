"""Every top-level import in the package modules is used, and every name
the package exports has a caller."""

import ast
import pathlib
import re

import pytest

import imred

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "imred"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["line 1: c"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def uncalled(names, sources: list[str], texts: list[str]) -> list[str]:
    """The names that no source reads, as a loaded name or an attribute,
    and that no text holds as a whole word."""
    called = set(re.findall(r"\w+", "\n".join(texts)))
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
    return sorted(set(names) - called)


def test_scan_finds_an_uncalled_name():
    source = "a()\nx.b = 1\nc = 2\n"
    assert uncalled(["a", "b", "c", "d", "e"], [source], ["see d, not e_"]) == ["c", "e"]


def test_every_export_has_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    texts = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "bench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    assert uncalled(imred.__all__, sources, texts) == []

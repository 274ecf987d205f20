"""README.md and DESIGN.md name only what exists.

Every dotted ``repro.…`` name (and every name a ``from repro.… import``
line in their examples imports) must import or be an attribute of an
importable module, and every backticked ``src/`` / ``tests/`` /
``benchmarks/`` / ``examples/`` path must exist — with each
``::``-separated test or class after it defined in that file.  Every
backticked diagnostic code (``NOISE-EXPLOSION``, ``EQV-DAG``, …) must be
a string literal somewhere in ``src/``, so a checker can emit it.  A
renamed symbol, moved file or deleted code fails here instead of leaving
the prose stale.
"""

from __future__ import annotations

import ast
import importlib
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")

_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_FROM_IMPORT = re.compile(r"^from (repro(?:\.\w+)*) import ([\w, ]+)$", re.MULTILINE)
_PATH = re.compile(r"`((?:src|tests|benchmarks|examples)/[^`\s]+)`")
_CODE = re.compile(r"`([A-Z]+(?:-[A-Z0-9]+)+)`")


def _names() -> list[str]:
    found: set[str] = set()
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        found.update(_DOTTED.findall(text))
        for module, imported in _FROM_IMPORT.findall(text):
            found.update(f"{module}.{name.strip()}" for name in imported.split(","))
    return sorted(found)


def _paths() -> list[str]:
    found: set[str] = set()
    for doc in DOCS:
        found.update(_PATH.findall((ROOT / doc).read_text()))
    return sorted(found)


def _codes() -> list[str]:
    found: set[str] = set()
    for doc in DOCS:
        found.update(_CODE.findall((ROOT / doc).read_text()))
    return sorted(found)


@lru_cache(maxsize=None)
def _source_strings() -> frozenset[str]:
    strings: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return frozenset(strings)


def _resolves(dotted: str) -> bool:
    """Import the longest importable module prefix, then walk attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_name_things():
    # Guards the scan itself: an empty match set would pass vacuously.
    assert len(_names()) > 50 and len(_paths()) > 10 and len(_codes()) > 10


@pytest.mark.parametrize("name", _names())
def test_dotted_name_resolves(name):
    assert _resolves(name), f"{name} is named in {' / '.join(DOCS)} but does not resolve"


@pytest.mark.parametrize("path", _paths())
def test_path_exists(path):
    file, *members = path.split("::")
    target = ROOT / file
    assert target.exists(), f"{file} is named in {' / '.join(DOCS)} but does not exist"
    if members:
        source = target.read_text()
        for member in members:
            assert re.search(rf"^\s*(?:class|def) {re.escape(member)}\b", source, re.MULTILINE), (
                f"{path}: {member} is not defined in {file}"
            )


@pytest.mark.parametrize("code", _codes())
def test_diagnostic_code_is_emitted(code):
    assert code in _source_strings(), (
        f"{code} is named in {' / '.join(DOCS)} but no string in src/ holds it"
    )

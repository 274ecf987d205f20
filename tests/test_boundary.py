"""Only ``repro.ckks.ops`` builds ciphertexts: the bootstrap, the linear
transforms and the Chebyshev evaluator are programs over the evaluator's
vocabulary.

``ckks/bootstrap.py``, ``ckks/linear.py`` and ``ckks/poly_eval.py`` may
not call ``Ciphertext(...)``, import ``repro.rns`` or
``repro.ckks.context`` at run time, or read a ``context``, ``ring`` or
``step_at`` attribute.  An import under ``if TYPE_CHECKING:`` is for
annotations only and is allowed.  That is what lets the symbolic domain
(``repro.check.ckks_check.SymbolicEvaluator``) run them without keys.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAMS = ("bootstrap", "linear", "poly_eval")
RUNTIME_FORBIDDEN = ("repro.rns", "repro.ckks.context")
ATTRIBUTES_FORBIDDEN = ("context", "ring", "step_at")


def _is_type_checking(test: ast.expr) -> bool:
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
    return name == "TYPE_CHECKING"


def violations(source: str) -> list[str]:
    """Every reach under the evaluator in ``source``, as ``line N: what``."""
    tree = ast.parse(source)
    type_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and _is_type_checking(node.test)
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Ciphertext":
                found.append(f"line {node.lineno}: builds a Ciphertext")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in type_only:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            for module in modules:
                if any(module == f or module.startswith(f + ".") for f in RUNTIME_FORBIDDEN):
                    found.append(f"line {node.lineno}: imports {module} at run time")
        elif isinstance(node, ast.Attribute) and node.attr in ATTRIBUTES_FORBIDDEN:
            found.append(f"line {node.lineno}: reads .{node.attr}")
    return found


@pytest.mark.parametrize("module", PROGRAMS)
def test_the_program_stays_over_the_vocabulary(module):
    path = ROOT / "src" / "repro" / "ckks" / f"{module}.py"
    assert violations(path.read_text(encoding="utf-8")) == []


def test_scan_sees_builds_imports_and_reads():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from repro.ckks.cipher import Ciphertext\n"
        "from repro.rns.poly import RnsPolynomial\n"
        "import repro.ckks.context\n"
        "from repro import rns\n"
        "if TYPE_CHECKING:\n"
        "    from repro.ckks.context import CkksContext\n"
        "def f(ev, ct):\n"
        "    ev.context.encode(ct.c0)\n"
        "    return Ciphertext(ct.c0, ct.c1, ct.level, ev.params.step_at(1).scale)\n"
    )
    assert sorted(violations(source)) == [
        "line 10: builds a Ciphertext",
        "line 10: reads .step_at",
        "line 3: imports repro.rns.poly.RnsPolynomial at run time",
        "line 4: imports repro.ckks.context at run time",
        "line 5: imports repro.rns at run time",
        "line 9: reads .context",
    ]

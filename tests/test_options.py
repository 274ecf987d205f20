"""No option grows back: every defaulted parameter of ``src/repro`` is set
by some call in ``src/``, ``examples/`` or ``benchmarks/``, or is listed
in ``ALLOWED`` with the reason it stays.

A defaulted parameter that no such call sets, by keyword or by
position, has one value in use: it is the constant it always is, and any
branch only another value reaches is dead.  The scan is by name — a call
``f(...)`` or ``x.f(...)`` is matched with every definition named ``f``,
and a class call with its ``__init__`` — so it over-approximates "set";
a call through ``*args`` or ``**kwargs`` sets every parameter.  The
mutation corpus (``repro.check.mutations``) lives in ``src/`` and the
benchmark in ``benchmarks/``, so what they set counts as set.  Dataclass
fields are record slots, not options, and are not scanned.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "examples", "benchmarks")

# "module:qualname(parameter)" -> why it stays.  Every reason names one
# of the two kinds below.
DEPLOYMENT = "deployment setting"
TEST_SEAM = "tier-1 test seam"
ALLOWED: dict[str, str] = {
    "repro.check.cli:main(argv)": f"{DEPLOYMENT}: the command line (None reads sys.argv)",
    "repro.serve.__main__:main(argv)": f"{DEPLOYMENT}: the command line (None reads sys.argv)",
    "repro.serve.server:FheServer.__init__(host)": f"{DEPLOYMENT}: the address to listen on",
    "repro.serve.server:FheServer.__init__(port)": f"{DEPLOYMENT}: the port (0 picks a free one)",
    "repro.ckks.linear:bsgs_split(baby)": f"{TEST_SEAM}: the fused-stage tests pin uneven splits",
    "repro.ckks.linear:LinearTransform.from_matrix(conj)": (
        f"{TEST_SEAM}: dense-matrix constructor of the linear-transform tests"
    ),
    "repro.ckks.linear:LinearTransform.from_matrix(baby_steps)": (
        f"{TEST_SEAM}: dense-matrix constructor of the linear-transform tests"
    ),
    "repro.params.presets:build_native_ckks_params(slots)": (
        f"{TEST_SEAM}: the native-preset tests run sparse packing"
    ),
    "repro.params.primes:find_ntt_primes(min_value)": (
        f"{TEST_SEAM}: the backend tests draw full-width primes"
    ),
    "repro.params.security:max_log_pq(security_bits)": (
        f"{TEST_SEAM}: the budget's scaling with the security target is tested"
    ),
    "repro.workloads.datasets:make_mnist_like(train)": f"{TEST_SEAM}: smaller HELR sets",
    "repro.workloads.datasets:make_mnist_like(test)": f"{TEST_SEAM}: smaller HELR sets",
    "repro.workloads.datasets:make_cifar_like(train)": f"{TEST_SEAM}: smaller CNN sets",
    "repro.workloads.datasets:make_cifar_like(test)": f"{TEST_SEAM}: smaller CNN sets",
}


def _defaulted(tree: ast.Module, module: str):
    """``(key, call name, positional names, parameter)`` per defaulted parameter."""

    def visit(body, cls: ast.ClassDef | None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                decorators = {getattr(d, "id", None) for d in node.decorator_list}
                if cls is not None and "staticmethod" not in decorators:
                    positional = positional[1:]  # self / cls
                qual = node.name if cls is None else f"{cls.name}.{node.name}"
                name = cls.name if cls is not None and node.name == "__init__" else node.name
                defaulted = positional[len(positional) - len(args.defaults) :]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                for param in defaulted:
                    yield f"{module}:{qual}({param})", name, positional, param

    yield from visit(tree.body, None)


def _call_sites(root: Path) -> dict[str, list[tuple[int, set[str] | None]]]:
    """Per callee name: ``(positional count, keywords)``, keywords None
    (and the count unbounded) for a call through ``*`` or ``**``."""
    sites: dict[str, list[tuple[int, set[str] | None]]] = defaultdict(list)
    for sub in CALLERS:
        for path in (root / sub).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                if starred or any(k.arg is None for k in node.keywords):
                    sites[name].append((len(node.args), None))
                else:
                    sites[name].append((len(node.args), {k.arg for k in node.keywords}))
    return sites


def unset_parameters(root: Path = ROOT) -> list[str]:
    """Every defaulted parameter of ``root/src/repro`` no call sets."""
    sites = _call_sites(root)
    unset = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for key, name, positional, param in _defaulted(tree, module):
            index = positional.index(param) if param in positional else len(positional)
            if not any(
                keywords is None or param in keywords or index < count
                for count, keywords in sites.get(name, ())
            ):
                unset.append(key)
    return unset


def test_every_unset_parameter_is_allowed_with_its_reason():
    unset = set(unset_parameters())
    unlisted = sorted(unset - set(ALLOWED))
    assert not unlisted, (
        "defaulted parameters no caller sets (make each the constant it is, "
        "or allow it with its reason):\n" + "\n".join(unlisted)
    )
    stale = sorted(set(ALLOWED) - unset)
    assert not stale, "allowed parameters that are set or gone:\n" + "\n".join(stale)


def test_every_reason_names_its_kind():
    for key, reason in ALLOWED.items():
        assert reason.split(":")[0] in (DEPLOYMENT, TEST_SEAM), key


def test_scan_sees_keyword_position_and_splat(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "m.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def __init__(self, x=0, y=0):\n        pass\n"
        "def g(e=4):\n    pass\n"
        "f(0, 5)\nf(0, d=6)\nK(**{})\n",
        encoding="utf-8",
    )
    assert unset_parameters(tmp_path) == ["repro.m:f(c)", "repro.m:g(e)"]

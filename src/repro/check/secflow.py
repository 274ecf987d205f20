"""Static information-flow verification for the serve stack.

The fourth pillar of the verifier: an AST-level taint analysis proving
that secret key material cannot reach a wire frame, a log line, an
exception message, a ``repr``, a metrics counter, or a JSON artifact.
The other three pillars prove kernel bounds, noise budgets, and
schedule equivalence; this one proves the multi-tenant service's
central *security* claim — tenant secrets are sampled client-side and
never serialized — instead of leaving it to convention.

Lattice
-------
Three labels, ordered ``SECRET > TENANT > PUBLIC``:

* ``SECRET`` — secret-key polynomials (:class:`SecretKey` and every
  cached RNS image of it), sampling seeds and RNG state, fresh noise
  and ephemeral randomness (knowing the mask *is* knowing the secret).
* ``TENANT`` — decrypted values and pre-encryption plaintext slots:
  one tenant's data, fine to hand back to that tenant, never fine in a
  frame, artifact, or metrics counter.
* ``PUBLIC`` — everything else, including ciphertexts, public keys,
  and switch keys (public-key encryptions of key material).

Analysis
--------
Summary-based and interprocedural: every function in the analyzed
universe (:data:`DEFAULT_MODULES`) gets a return-taint summary that is
*parametric* in its arguments — ``encode_ciphertext`` returns whatever
its argument carries — plus a ``sink_params`` set recording which
parameters flow into which sink category.  Summaries are iterated to a
fixpoint, then a final pass emits diagnostics, so a helper that
launders a secret into a frame is caught at the call site that feeds
it the secret.  Attribute reads are field-sensitive via an inferred
field-taint table plus a small set of name hints (``secret``, ``rng``,
``seed``); containers join their elements.

Declassification
----------------
The only label-lowering points are the RLWE encryption and evk
constructors, marked ``@declassified`` in source.  The marker is not
trusted: each one must appear in :data:`ALLOWED_DECLASSIFIERS`, and
the ``masking``-kind entries are re-checked against a syntactic
discipline — every returned secret-derived term must be additively
combined with a fresh-noise or uniform-mask term.  A decorator on an
unlisted function, a listed function that lost its decorator, and a
refactor that drops the mask all raise ``SEC-DECLASSIFY-UNSOUND``.

Diagnostics: ``SEC-LEAK`` (wire/metrics/artifact), ``SEC-LOG``
(logging and exception messages), ``SEC-REPR`` (string conversion),
``SEC-DECLASSIFY-UNSOUND``.

Not checked (out of scope, by design): timing and memory-access side
channels, implicit flows through branch conditions, and the
cryptographic soundness of the allow-listed masking constructions
themselves — the allow-list documents the RLWE argument, the checker
enforces its *shape*.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.check.diagnostics import CheckReport

__all__ = [
    "PUBLIC",
    "TENANT",
    "SECRET",
    "DEFAULT_MODULES",
    "ALLOWED_DECLASSIFIERS",
    "Taint",
    "check_default",
    "check_source",
    "check_sources",
    "load_default_sources",
]

PUBLIC, TENANT, SECRET = 0, 1, 2
_LEVEL_NAMES = {PUBLIC: "PUBLIC", TENANT: "TENANT", SECRET: "SECRET"}

# The analyzed universe: the whole serve stack, the key-material side
# of repro.ckks, and the preset catalogue that builds service contexts.
DEFAULT_MODULES: tuple[str, ...] = (
    "repro.serve.wire",
    "repro.serve.session",
    "repro.serve.program",
    "repro.serve.batching",
    "repro.serve.offline",
    "repro.serve.client",
    "repro.serve.server",
    "repro.serve.__main__",
    "repro.ckks.context",
    "repro.ckks.cipher",
    "repro.ckks.keyswitch",
    "repro.params.presets",
)

# -- label sources -----------------------------------------------------------

# Attribute names that denote key material or sampling state wherever
# they appear.  Reading `.secret`, `.rng`, or `.seed` off anything in
# the universe yields SECRET.
SECRET_ATTRS = frozenset({"secret", "secret_coeffs", "_secret_cache", "rng", "seed"})

# (class, field) pairs whose names are too generic for the hint set.
SECRET_FIELDS = frozenset({("SecretKey", "coeffs")})

# Classes whose constructor *is* a secret source.
SOURCE_CLASSES = frozenset({"SecretKey"})

# Method names with a declared (trusted) return label, overriding the
# inferred summary: decryption consumes SECRET key material but hands
# the *tenant* its own data.
DECLARED_RETURNS: Mapping[str, int] = {"decrypt": TENANT}

# (class, function, parameter) -> label: pre-encryption plaintext
# enters the stack at the client submission boundary.
SOURCE_PARAMS: Mapping[tuple[str, str, str], int] = {
    ("FheClient", "submit", "values"): TENANT,
}

# -- declassifiers -----------------------------------------------------------

# qualname -> kind.  "masking" entries are re-checked against the
# additive-mask discipline; "axiom" entries are sound by construction
# (a uniform sample or a truncated hash has no masking *structure* to
# verify) and carry their argument in the reason string instead.
ALLOWED_DECLASSIFIERS: Mapping[str, str] = {
    "repro.ckks.context.KeySet.uniform_poly": "axiom",
    "repro.ckks.context.KeySet.public_key": "masking",
    "repro.ckks.context.KeySet.pk_encrypt_poly": "masking",
    "repro.ckks.context.KeySet._make_evk": "masking",
    "repro.ckks.context.CkksContext.encrypt": "masking",
}

# Free functions treated as axiom declassifiers by name (defined in
# repro.secrecy, outside the parsed universe).
_DECLASSIFIER_NAMES = frozenset({"redacted_digest"})

# Calls that produce fresh masking material (uniform pads, Gaussian
# noise, ephemeral ternary randomness).  In the general analysis these
# return SECRET via their RNG reads; in the masking-discipline check
# they are what makes a secret-derived term safe to return.
_MASK_CALLS = frozenset(
    {"uniform_poly", "error_poly", "_sample_error", "ephemeral_poly"}
)
_SECRET_CALLS = frozenset({"secret_poly", "_sample_secret"})

# Handle classes: the object is an opaque PUBLIC handle even when its
# constructor consumes SECRET material (a seed, an RNG); field reads
# go through the field table and the hint set instead.
HANDLE_CLASSES = frozenset(
    {
        "CkksContext",
        "KeySet",
        "KeySwitcher",
        "ServePreset",
        "ServeOffline",
        "TenantKeys",
        "FheServer",
        "FheClient",
        "ServerMetrics",
    }
)

# -- sinks -------------------------------------------------------------------

WIRE, LOG, EXC, REPR, METRICS, ARTIFACT = (
    "wire",
    "log",
    "exception",
    "repr",
    "metrics",
    "artifact",
)

# Serialization entry points of repro.serve.wire: primitively sinks on
# every parameter.  Their callees inside the wire module inherit the
# property through sink_params propagation.
_WIRE_SINK_FUNCS = frozenset(
    {
        "encode_frame",
        "write_frame",
        "encode_blobs",
        "encode_json",
        "encode_poly",
        "encode_ciphertext",
        "encode_public_key",
        "encode_switch_key",
        "encode_params",
        "encode_program",
    }
)
_WIRE_MODULE = "repro.serve.wire"

_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
_LOGGER_NAMES = frozenset({"_log", "log", "logger", "logging"})
_CONTAINER_GROW = frozenset({"append", "extend", "add", "insert", "appendleft"})

_SINK_CODES: Mapping[str, str] = {
    WIRE: "SEC-LEAK",
    METRICS: "SEC-LEAK",
    ARTIFACT: "SEC-LEAK",
    LOG: "SEC-LOG",
    EXC: "SEC-LOG",
    REPR: "SEC-REPR",
}
# TENANT data may be shown to the tenant (logs, errors, repr) but must
# never be serialized, aggregated, or archived.
_TENANT_SINKS = frozenset({WIRE, METRICS, ARTIFACT})


def _violation(level: int, category: str) -> str | None:
    if level >= SECRET:
        return _SINK_CODES[category]
    if level == TENANT and category in _TENANT_SINKS:
        return _SINK_CODES[category]
    return None


# -- taint values ------------------------------------------------------------


@dataclass(frozen=True)
class Taint:
    """A label plus the parameter indices whose taint joins into it."""

    level: int = PUBLIC
    params: frozenset[int] = frozenset()

    def join(self, other: "Taint") -> "Taint":
        if other.level <= self.level and other.params <= self.params:
            return self
        return Taint(max(self.level, other.level), self.params | other.params)


_PUBLIC_TAINT = Taint()


def _join_all(taints: Iterable[Taint]) -> Taint:
    out = _PUBLIC_TAINT
    for t in taints:
        out = out.join(t)
    return out


# -- the function/class index ------------------------------------------------


@dataclass
class _FnInfo:
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: str
    cls: str | None
    params: list[str]
    decorated: bool  # carries @declassified in source
    ret: Taint = _PUBLIC_TAINT
    sink_params: dict[str, set[int]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualname(self) -> str:
        if self.cls is None:
            return f"{self.module}.{self.name}"
        return f"{self.module}.{self.cls}.{self.name}"

    @property
    def declass_kind(self) -> str | None:
        """Allow-list kind if this function is an effective declassifier."""
        return ALLOWED_DECLASSIFIERS.get(self.qualname)


@dataclass
class _ClassInfo:
    node: ast.ClassDef
    module: str
    is_dataclass: bool
    field_order: list[str]
    no_repr_fields: set[str]  # dataclass fields with repr=False
    has_custom_repr: bool


class _Index:
    """Parsed universe: functions by name, classes, inferred field taints."""

    def __init__(self, sources: Mapping[str, str]):
        self.fns: list[_FnInfo] = []
        self.fns_by_name: dict[str, list[_FnInfo]] = {}
        self.classes: dict[str, _ClassInfo] = {}
        self.field_levels: dict[str, int] = {}
        self.field_classes: dict[str, str] = {}
        self.parse_errors: list[tuple[str, str]] = []
        for module, source in sources.items():
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                self.parse_errors.append(
                    (module, f"line {exc.lineno}: {exc.msg}")
                )
                continue
            self._index_module(module, tree)

    def _index_module(self, module: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_fn(node, module, None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(node, module)

    def _index_class(self, node: ast.ClassDef, module: str) -> None:
        is_dc = any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
        field_order: list[str] = []
        no_repr: set[str] = set()
        has_repr = False
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                field_order.append(item.target.id)
                if _field_call_disables_repr(item.value):
                    no_repr.add(item.target.id)
                ann_cls = _annotation_class(item.annotation)
                if ann_cls is not None:
                    self.field_classes.setdefault(item.target.id, ann_cls)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__repr__":
                    has_repr = True
                self._add_fn(item, module, node.name)
            elif isinstance(item, ast.Assign):
                # `__str__ = __repr__` style aliases: ignore.
                continue
        self.classes[node.name] = _ClassInfo(
            node=node,
            module=module,
            is_dataclass=is_dc,
            field_order=field_order,
            no_repr_fields=no_repr,
            has_custom_repr=has_repr,
        )

    def _add_fn(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        module: str,
        cls: str | None,
    ) -> None:
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        decorated = any(
            _decorator_name(d) == "declassified" for d in node.decorator_list
        )
        info = _FnInfo(node=node, module=module, cls=cls, params=params,
                       decorated=decorated)
        self.fns.append(info)
        self.fns_by_name.setdefault(node.name, []).append(info)

    # -- field taints --------------------------------------------------------

    def field_level(self, cls: str | None, attr: str) -> int:
        if attr in SECRET_ATTRS:
            return SECRET
        if cls is not None and (cls, attr) in SECRET_FIELDS:
            return SECRET
        if any((c, attr) in SECRET_FIELDS for c in self.classes):
            # Field-name table is class-joined; explicit pairs apply to
            # reads through unknown receivers too.
            return SECRET
        return self.field_levels.get(attr, PUBLIC)

    def record_field(self, attr: str, level: int) -> bool:
        old = self.field_levels.get(attr, PUBLIC)
        if level > old:
            self.field_levels[attr] = level
            return True
        return False


def _decorator_name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return ""


def _annotation_class(node: ast.expr) -> str | None:
    """Class name named by a simple annotation (incl. string forwards)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value.isidentifier() else None
    return None


def _field_call_disables_repr(value: ast.expr | None) -> bool:
    """True for ``field(..., repr=False)`` dataclass defaults."""
    if not isinstance(value, ast.Call) or _decorator_name(value) != "field":
        return False
    for kw in value.keywords:
        if kw.arg == "repr" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


def _name_chain(node: ast.expr) -> list[str]:
    """``self.metrics.queue_wait`` -> ["self", "metrics", "queue_wait"]."""
    out: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        out.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        out.append(cur.id)
    return list(reversed(out))


# -- the per-function analyzer ----------------------------------------------


class _Finding:
    """A deduplicated diagnostic emitted by the final pass."""

    __slots__ = ("code", "message", "value")

    def __init__(self, code: str, message: str, value: str):
        self.code = code
        self.message = message
        self.value = value

    def key(self) -> tuple[str, str]:
        return (self.code, self.message)


class _FunctionAnalyzer:
    """One pass over one function body: summary + (optionally) findings."""

    def __init__(
        self,
        fn: _FnInfo,
        index: _Index,
        findings: list[_Finding] | None,
    ):
        self.fn = fn
        self.index = index
        self.findings = findings
        self.env: dict[str, Taint] = {}
        self.env_class: dict[str, str] = {}
        self.ret = _PUBLIC_TAINT
        self.changed = False
        # Declassifiers and declared-return trust boundaries are vouched
        # for by the allow-list / the mask checker; their internals must
        # not pollute the global field table (e.g. `Ciphertext.c0` would
        # otherwise read as SECRET everywhere because `encrypt` builds it
        # from a secret-derived term).
        self.trusted_body = (
            fn.declass_kind is not None or fn.name in DECLARED_RETURNS
        )
        for i, name in enumerate(fn.params):
            level = PUBLIC
            if fn.cls is not None:
                level = SOURCE_PARAMS.get((fn.cls, fn.name, name), PUBLIC)
            self.env[name] = Taint(level, frozenset({i}))

    # -- driving -------------------------------------------------------------

    def run(self) -> None:
        body = list(self.fn.node.body)
        self._exec_block(body)
        self._exec_block(body)  # second pass settles loop-carried taints
        name = self.fn.name
        if self.fn.declass_kind is not None:
            summary = _PUBLIC_TAINT
        elif name in DECLARED_RETURNS:
            summary = Taint(DECLARED_RETURNS[name])
        else:
            summary = self.ret
        if summary != self.fn.ret:
            self.fn.ret = summary
            self.changed = True

    def _exec_block(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value)
                self._record_class(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value))
                self._record_class(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value)
            existing = self._eval(stmt.target)
            self._assign(stmt.target, existing.join(value))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.ret = self.ret.join(self._eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Raise):
            self._exec_raise(stmt)
        elif isinstance(stmt, (ast.If,)):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign(stmt.target, self._eval(stmt.iter))
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are opaque; calls to them join args
        # pass/break/continue/import/assert/delete/global: no flow

    def _exec_raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is None:
            return
        exc = stmt.exc
        if isinstance(exc, ast.Call):
            for arg in exc.args:
                self._sink(EXC, self._eval(arg), arg, "exception message")
            for kw in exc.keywords:
                self._sink(EXC, self._eval(kw.value), kw.value, "exception message")
        else:
            self._sink(EXC, self._eval(exc), exc, "exception message")

    def _assign(self, target: ast.expr, value: Taint) -> None:
        if isinstance(target, ast.Name):
            old = self.env.get(target.id, _PUBLIC_TAINT)
            self.env[target.id] = old.join(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, value)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value)
        elif isinstance(target, ast.Attribute):
            self._store_field(target, value)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                old = self.env.get(base.id, _PUBLIC_TAINT)
                self.env[base.id] = old.join(value)
            elif isinstance(base, ast.Attribute):
                self._store_field(base, value)

    def _store_field(self, target: ast.Attribute, value: Taint) -> None:
        chain = _name_chain(target)
        if "metrics" in chain[:-1] or (chain and chain[-1] == "metrics"):
            self._sink(METRICS, value, target, "metrics counter")
        if self.trusted_body:
            return
        if self.index.record_field(target.attr, value.level):
            self.changed = True

    # -- lightweight class inference ----------------------------------------

    def _record_class(self, target: ast.expr, value: ast.expr) -> None:
        cls = self._class_of(value)
        if cls is None:
            return
        if isinstance(target, ast.Name):
            self.env_class[target.id] = cls
        elif isinstance(target, ast.Attribute):
            self.index.field_classes.setdefault(target.attr, cls)

    def _class_of(self, node: ast.expr) -> str | None:
        """Best-effort receiver class, used to narrow method candidates."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and self.fn.cls is not None:
                return self.fn.cls
            if node.id in self.index.classes:
                return node.id
            return self.env_class.get(node.id)
        if isinstance(node, ast.Attribute):
            cls = self.index.field_classes.get(node.attr)
            return cls if cls in self.index.classes else None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in self.index.classes:
                return node.func.id
        if isinstance(node, ast.Await):
            return self._class_of(node.value)
        return None

    # -- expressions ---------------------------------------------------------

    def _eval(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Constant):
            return _PUBLIC_TAINT
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _PUBLIC_TAINT)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left).join(self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return _join_all(self._eval(v) for v in node.values)
        if isinstance(node, ast.Compare):
            # Branch conditions are not tracked (no implicit flows).
            return _PUBLIC_TAINT
        if isinstance(node, ast.IfExp):
            return self._eval(node.body).join(self._eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _join_all(self._eval(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            keys = [k for k in node.keys if k is not None]
            return _join_all(self._eval(e) for e in list(keys) + node.values)
        if isinstance(node, ast.Subscript):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            out = _PUBLIC_TAINT
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    t = self._eval(part.value)
                    self._sink(REPR, t, part.value, "string interpolation")
                    out = out.join(t)
            return out
        if isinstance(node, ast.FormattedValue):
            t = self._eval(node.value)
            self._sink(REPR, t, node.value, "string interpolation")
            return t
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(node)
        if isinstance(node, ast.Lambda):
            return _PUBLIC_TAINT
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                value = self._eval(node.value)
                self.ret = self.ret.join(value)
                return value
            return _PUBLIC_TAINT
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value)
            self._assign(node.target, value)
            return value
        if isinstance(node, ast.Slice):
            return _PUBLIC_TAINT
        # Conservative fallback: join every child expression.
        return _join_all(
            self._eval(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        )

    def _eval_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
    ) -> Taint:
        out = _PUBLIC_TAINT
        for gen in node.generators:
            it = self._eval(gen.iter)
            self._assign(gen.target, it)
            out = out.join(it)
        if isinstance(node, ast.DictComp):
            out = out.join(self._eval(node.key)).join(self._eval(node.value))
        else:
            out = out.join(self._eval(node.elt))
        return out

    def _eval_attribute(self, node: ast.Attribute) -> Taint:
        base = self._eval(node.value)
        level = self.index.field_level(self.fn.cls, node.attr)
        return base.join(Taint(level))

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> Taint:
        func = node.func
        arg_taints = [self._eval(a) for a in node.args]
        kw_taints = {kw.arg: self._eval(kw.value) for kw in node.keywords}
        joined_args = _join_all(list(arg_taints) + list(kw_taints.values()))

        if isinstance(func, ast.Name):
            fname = func.id
            receiver: Taint | None = None
        elif isinstance(func, ast.Attribute):
            fname = func.attr
            receiver = self._eval(func.value)
        else:
            return joined_args.join(self._eval(func))

        # Syntactic sinks first.
        if isinstance(func, ast.Name) and fname == "print":
            for a, t in zip(node.args, arg_taints):
                self._sink(LOG, t, a, "print")
            return _PUBLIC_TAINT
        if isinstance(func, ast.Name) and fname in {"repr", "str", "format"}:
            if arg_taints:
                self._sink(REPR, arg_taints[0], node.args[0], f"{fname}()")
            return joined_args
        if isinstance(func, ast.Attribute):
            chain = _name_chain(func)
            root = chain[0] if chain else ""
            if fname in _LOG_METHODS and root in _LOGGER_NAMES:
                for a, t in zip(node.args, arg_taints):
                    self._sink(LOG, t, a, "log record")
                return _PUBLIC_TAINT
            if fname == "warn" and root == "warnings":
                for a, t in zip(node.args, arg_taints):
                    self._sink(LOG, t, a, "warning message")
                return _PUBLIC_TAINT
            if fname in {"dump", "dumps"} and root == "json":
                if arg_taints:
                    self._sink(ARTIFACT, arg_taints[0], node.args[0], "JSON artifact")
                return joined_args
            if fname in _CONTAINER_GROW:
                if "metrics" in chain[:-1]:
                    for a, t in zip(node.args, arg_taints):
                        self._sink(METRICS, t, a, "metrics counter")
                    return _PUBLIC_TAINT
                if isinstance(func.value, ast.Name):
                    # Container tracking: v.append(x) joins x into v.
                    name = func.value.id
                    old = self.env.get(name, _PUBLIC_TAINT)
                    self.env[name] = old.join(joined_args)
                    return _PUBLIC_TAINT

        if fname in _DECLASSIFIER_NAMES:
            return _PUBLIC_TAINT

        # Universe class constructors.
        cls_info = self.index.classes.get(fname)
        if cls_info is not None and isinstance(func, ast.Name):
            return self._eval_constructor(
                fname, cls_info, node, arg_taints, kw_taints
            )

        # Resolved universe functions: parametric summaries + sink params.
        # Candidates sharing a bare method name are narrowed by inferred
        # receiver class where possible (so `SecretKey.digest()` does not
        # inherit `Program.digest()`'s artifact-sink summary).
        candidates: Iterable[_FnInfo] = self.index.fns_by_name.get(fname, ())
        if candidates and isinstance(func, ast.Attribute):
            rcls = self._class_of(func.value)
            if rcls is not None:
                narrowed = [c for c in candidates if c.cls == rcls]
                if narrowed:
                    candidates = narrowed
        elif candidates and isinstance(func, ast.Name):
            module_level = [c for c in candidates if c.cls is None]
            if module_level:
                candidates = module_level
        if candidates:
            results = []
            for cand in candidates:
                results.append(
                    self._apply_summary(cand, node, receiver, arg_taints, kw_taints)
                )
            return _join_all(results)

        # Unknown call: result carries everything that went in.
        out = joined_args
        if receiver is not None:
            out = out.join(receiver)
        return out

    def _eval_constructor(
        self,
        cls_name: str,
        cls_info: _ClassInfo,
        node: ast.Call,
        arg_taints: list[Taint],
        kw_taints: dict[str | None, Taint],
    ) -> Taint:
        if cls_name in SOURCE_CLASSES:
            return Taint(SECRET)
        # Record constructor-argument taints into the field table so
        # attribute reads stay field-sensitive.
        if not self.trusted_body:
            for kw, taint in kw_taints.items():
                if kw is not None and self.index.record_field(kw, taint.level):
                    self.changed = True
            if cls_info.is_dataclass:
                for name, taint in zip(cls_info.field_order, arg_taints):
                    if self.index.record_field(name, taint.level):
                        self.changed = True
        if cls_name in HANDLE_CLASSES:
            return _PUBLIC_TAINT
        return _join_all(list(arg_taints) + list(kw_taints.values()))

    def _apply_summary(
        self,
        cand: _FnInfo,
        node: ast.Call,
        receiver: Taint | None,
        arg_taints: list[Taint],
        kw_taints: dict[str | None, Taint],
    ) -> Taint:
        # Map call arguments onto the callee's parameter list.
        call_args: list[Taint] = []
        arg_nodes: list[ast.expr | None] = []
        if cand.cls is not None and receiver is not None:
            call_args.append(receiver)
            arg_nodes.append(node.func)
        for a, t in zip(node.args, arg_taints):
            call_args.append(t)
            arg_nodes.append(a)
        by_index: dict[int, Taint] = dict(enumerate(call_args))
        by_node: dict[int, ast.expr | None] = dict(enumerate(arg_nodes))
        for kw in node.keywords:
            if kw.arg is None:
                continue
            if kw.arg in cand.params:
                i = cand.params.index(kw.arg)
                by_index[i] = kw_taints[kw.arg]
                by_node[i] = kw.value

        # Primitive wire sinks plus propagated sink parameters.
        sink_map: dict[str, set[int]] = {
            cat: set(idxs) for cat, idxs in cand.sink_params.items()
        }
        if cand.module == _WIRE_MODULE and cand.name in _WIRE_SINK_FUNCS:
            sink_map.setdefault(WIRE, set()).update(by_index)
        for cat, idxs in sink_map.items():
            for i in idxs:
                t = by_index.get(i)
                if t is None:
                    continue
                where = by_node.get(i) or node
                self._sink(cat, t, where, f"argument to {cand.name}()")

        if cand.declass_kind is not None:
            return _PUBLIC_TAINT
        if cand.name in DECLARED_RETURNS:
            return Taint(DECLARED_RETURNS[cand.name])
        if cand.name in _SECRET_CALLS:
            return Taint(SECRET)
        out = Taint(cand.ret.level)
        for i in cand.ret.params:
            t = by_index.get(i)
            if t is not None:
                out = out.join(t)
        return out

    # -- diagnostics ---------------------------------------------------------

    def _sink(
        self, category: str, taint: Taint, node: ast.expr, desc: str
    ) -> None:
        # Symbolic propagation: a parameter reaching a sink makes the
        # *caller* responsible for what it passes in.
        if taint.params:
            bucket = self.fn.sink_params.setdefault(category, set())
            before = len(bucket)
            bucket.update(taint.params)
            if len(bucket) != before:
                self.changed = True
        code = _violation(taint.level, category)
        if code is None or self.findings is None:
            return
        lineno = getattr(node, "lineno", self.fn.node.lineno)
        self.findings.append(
            _Finding(
                code,
                f"{self.fn.module}:{lineno}: {_LEVEL_NAMES[taint.level]} value "
                f"reaches {category} sink in {self.fn.qualname} ({desc})",
                self.fn.qualname,
            )
        )


# -- masking-discipline check for declassifiers ------------------------------

_S, _M, _MASKED = "secret", "mask", "masked"

_SCALAR_TYPES = frozenset({"int", "float", "bool", "str", "bytes", "None"})


def _is_scalar_annotation(node: ast.expr | None) -> bool:
    """True when an annotation names only scalar types (``int | None``)."""
    if node is None:
        return False
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant):
            if sub.value is None:
                names.add("None")
            elif isinstance(sub.value, str):
                names.add(sub.value)
    return bool(names) and names <= _SCALAR_TYPES


class _MaskChecker:
    """Re-checks a ``masking``-kind declassifier's additive structure."""

    def __init__(self, fn: _FnInfo, index: _Index):
        self.fn = fn
        self.index = index
        self.env: dict[str, frozenset[str]] = {}
        self.bad: list[str] = []
        args = fn.node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        for i, arg in enumerate(params):
            # Every non-self parameter is assumed SECRET: a declassifier
            # must mask whatever it is given.  Scalar-annotated params
            # (levels, scales) are config, not polynomial key material —
            # the general taint pass still tracks them symbolically.
            if (i == 0 and fn.cls) or _is_scalar_annotation(arg.annotation):
                self.env[arg.arg] = frozenset()
            else:
                self.env[arg.arg] = frozenset({_S})

    def run(self) -> list[str]:
        body = list(self.fn.node.body)
        self._exec_block(body)
        self._exec_block(body)
        return self.bad

    def _exec_block(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            flags = self._flags(stmt.value)
            for target in stmt.targets:
                self._bind(target, flags)
        elif isinstance(stmt, ast.AugAssign):
            flags = self._flags(stmt.value) | self._flags(stmt.target)
            self._bind(stmt.target, flags)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_value(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._flags(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._flags(stmt.iter))
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)

    def _bind(self, target: ast.expr, flags: frozenset[str]) -> None:
        key = self._key(target)
        if key is not None:
            self.env[key] = self.env.get(key, frozenset()) | flags
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, flags)

    def _key(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}"
        return None

    def _flags(self, node: ast.expr) -> frozenset[str]:
        key = self._key(node)
        if key is not None and key in self.env:
            return self.env[key]
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Attribute):
            flags = self._flags(node.value)
            if node.attr in SECRET_ATTRS or any(
                (c, node.attr) in SECRET_FIELDS for c in self.index.classes
            ):
                flags |= frozenset({_S})
            return flags
        if isinstance(node, ast.Call):
            return self._call_flags(node)
        if isinstance(node, ast.BinOp):
            left = self._flags(node.left)
            right = self._flags(node.right)
            out = left | right
            if isinstance(node.op, (ast.Add, ast.Sub)) and (
                _M in out or _MASKED in out
            ):
                out |= frozenset({_MASKED})
            return out
        if isinstance(node, ast.UnaryOp):
            return self._flags(node.operand)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out: frozenset[str] = frozenset()
            for elt in node.elts:
                out |= self._flags(elt)
            return out
        if isinstance(node, ast.Subscript):
            return self._flags(node.value)
        if isinstance(node, (ast.Compare, ast.Lambda, ast.Slice)):
            return frozenset()
        out = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self._flags(child)
        return out

    def _call_flags(self, node: ast.Call) -> frozenset[str]:
        func = node.func
        fname = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else ""
        )
        if fname in _CONTAINER_GROW and isinstance(func, ast.Attribute):
            key = self._key(func.value)
            joined: frozenset[str] = frozenset()
            for arg in node.args:
                self._check_value(arg)
                joined |= self._flags(arg)
            if key is not None:
                self.env[key] = self.env.get(key, frozenset()) | joined
            return frozenset()
        if fname in _MASK_CALLS:
            return frozenset({_M})
        if fname in _SECRET_CALLS:
            return frozenset({_S})
        if fname in _DECLASSIFIER_NAMES:
            return frozenset()
        for cand in self.index.fns_by_name.get(fname, ()):
            if cand.declass_kind is not None:
                return frozenset()
        out: frozenset[str] = frozenset()
        if isinstance(func, ast.Attribute):
            out |= self._flags(func.value)
        for arg in node.args:
            out |= self._flags(arg)
        for kw in node.keywords:
            out |= self._flags(kw.value)
        return out

    def _check_value(self, node: ast.expr) -> None:
        """Every returned component deriving from SECRET must be masked."""
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._check_value(elt)
            return
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name)
            and node.func.id in _DECLASSIFIER_NAMES
        ):
            fname = _decorator_name(node)
            if fname in _MASK_CALLS or fname in _SECRET_CALLS:
                pass  # fall through to flag check below
            else:
                for arg in node.args:
                    self._check_value(arg)
                for kw in node.keywords:
                    self._check_value(kw.value)
                return
        flags = self._flags(node)
        if _S in flags and _MASKED not in flags:
            lineno = getattr(node, "lineno", self.fn.node.lineno)
            self.bad.append(
                f"line {lineno}: secret-derived term returned without an "
                f"additive uniform/noise mask"
            )


# -- dataclass repr rule -----------------------------------------------------


def _check_dataclass_reprs(index: _Index, findings: list[_Finding]) -> None:
    for name, info in index.classes.items():
        if not info.is_dataclass or info.has_custom_repr:
            continue
        for fld in info.field_order:
            if fld in info.no_repr_fields:
                continue
            secret = fld in SECRET_ATTRS or (name, fld) in SECRET_FIELDS
            if secret:
                findings.append(
                    _Finding(
                        "SEC-REPR",
                        f"{info.module}: dataclass {name} exposes SECRET "
                        f"field {fld!r} through its generated repr "
                        f"(use field(repr=False) or a redacted __repr__)",
                        f"{name}.{fld}",
                    )
                )


# -- declassifier audit ------------------------------------------------------


def _check_declassifiers(index: _Index, findings: list[_Finding]) -> None:
    listed = dict(ALLOWED_DECLASSIFIERS)
    for fn in index.fns:
        kind = listed.pop(fn.qualname, None)
        if fn.decorated and kind is None:
            findings.append(
                _Finding(
                    "SEC-DECLASSIFY-UNSOUND",
                    f"{fn.module}:{fn.node.lineno}: {fn.qualname} carries "
                    f"@declassified but is not in the checker's allow-list",
                    fn.qualname,
                )
            )
        elif kind is not None and not fn.decorated:
            findings.append(
                _Finding(
                    "SEC-DECLASSIFY-UNSOUND",
                    f"{fn.module}:{fn.node.lineno}: allow-listed declassifier "
                    f"{fn.qualname} lost its @declassified annotation",
                    fn.qualname,
                )
            )
        if kind == "masking":
            for detail in _MaskChecker(fn, index).run():
                findings.append(
                    _Finding(
                        "SEC-DECLASSIFY-UNSOUND",
                        f"{fn.module}:{fn.node.lineno}: masking discipline "
                        f"broken in {fn.qualname}: {detail}",
                        fn.qualname,
                    )
                )


# -- top-level driver --------------------------------------------------------

_MAX_FIXPOINT_ROUNDS = 12


def _analyze(index: _Index) -> list[_Finding]:
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for fn in index.fns:
            analyzer = _FunctionAnalyzer(fn, index, findings=None)
            analyzer.run()
            changed = changed or analyzer.changed
        if not changed:
            break
    findings: list[_Finding] = []
    for fn in index.fns:
        _FunctionAnalyzer(fn, index, findings=findings).run()
    _check_declassifiers(index, findings)
    _check_dataclass_reprs(index, findings)
    return findings


def check_sources(sources: Mapping[str, str]) -> CheckReport:
    """Run the information-flow pass over ``module name -> source``."""
    index = _Index(sources)
    report = CheckReport(pass_name="secflow", subject="+".join(sorted(sources)))
    for module, detail in index.parse_errors:
        report.error("SEC-LEAK", f"{module}: unparseable source ({detail})")
    seen: set[tuple[str, str]] = set()
    for finding in _analyze(index):
        if finding.key() in seen:
            continue
        seen.add(finding.key())
        report.error(finding.code, finding.message, value=finding.value)
    return report


def load_default_sources() -> dict[str, str]:
    """Source text of every module in :data:`DEFAULT_MODULES`."""
    out: dict[str, str] = {}
    for module in DEFAULT_MODULES:
        spec = importlib.util.find_spec(module)
        if spec is None or spec.origin is None:
            raise ModuleNotFoundError(f"cannot locate source for {module}")
        out[module] = Path(spec.origin).read_text(encoding="utf-8")
    return out


def check_default() -> CheckReport:
    """Verify the shipped serve/ckks/presets stack."""
    return check_sources(load_default_sources())


def check_source(
    source: str, module_name: str = "repro.serve.server"
) -> CheckReport:
    """Verify the default universe with one module's source replaced.

    The mutation corpus uses this to inject leak mutants: the analysis
    sees the whole stack, so interprocedural leaks (a helper in one
    module laundering a secret into a sink in another) still surface.
    """
    sources = load_default_sources()
    sources[module_name] = source
    report = check_sources(sources)
    report.subject = module_name
    return report

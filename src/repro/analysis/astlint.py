"""AST-based invariant linter for the repo's own code.

Machine-checks the contracts the test suite can only spot-check:

* ``LIN101`` — every mutator in the XML tree model propagates revision
  stamps (the ``perf.cache`` safety contract: a cached digest must
  never validate a tampered subtree).
* ``LIN102`` — HMAC verdicts are never memoized (secret-keyed results
  must not reach cache tables or ``lru_cache``).
* ``LIN103`` — digest/signature comparisons in crypto paths use the
  constant-time helper, not ``==``.
* ``LIN104`` — resilience code uses the injected clock, never the wall
  clock, so fault schedules stay deterministic.
* ``LIN105`` — raw crypto primitives are reached only through
  ``primitives.provider`` (so provider swaps cover every call site).
* ``LIN106`` — untrusted-input modules never parse XML without an
  explicit ``guard=`` resource quota (the DoS hardening contract:
  hostile documents must hit a :class:`ResourceGuard`, and the call
  site must say *which* one).
* ``LIN107`` — untrusted-input modules only let *typed* errors from
  :mod:`repro.errors` escape; a builtin exception raised at a trust
  boundary leaks implementation detail and dodges the containment
  contract callers rely on.
* ``LIN108`` — persistence modules never write files with a bare
  ``open(..., "w"/"wb")``: a power cut mid-write leaves a torn file.
  Durable bytes go through the durable layer's ``atomic_write`` (or a
  :class:`DurableStore`), which the rule exempts.

Rules are heuristic by design: they pattern-match the shapes this
codebase actually uses, and anything legitimately outside a rule goes
in the committed baseline file rather than weakening the rule.

Every rule looks at one module only: the analysis pipeline runs
:func:`lint_module` on the tree it lowers to the call-graph IR, and
caches the findings next to that IR.  All rules share one traversal.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.analysis.callgraph import BUILTIN_EXCEPTIONS, dotted_name
from repro.analysis.engine import register
from repro.analysis.findings import Severity

#: Bump when a rule changes what it reports; the analysis cache keys
#: its per-module LIN findings on this.
LINT_VERSION = 1

LIN100 = register(
    "LIN100", "module does not parse", Severity.ERROR, "code",
    "A module is not valid UTF-8 or not valid Python, so no rule and "
    "no engine can look at it; the rest of the tree is still analyzed.",
)
LIN101 = register(
    "LIN101", "tree mutator must bump revision stamps", Severity.ERROR,
    "code",
    "A method that mutates tree state (children/attrs/ns_decls/text "
    "payload) never calls mark_mutated(); revision-keyed caches would "
    "serve stale digests for the mutated subtree.",
)
LIN102 = register(
    "LIN102", "HMAC verdict memoized", Severity.ERROR, "code",
    "A function computing or checking an HMAC stores results in a "
    "cache/memo structure or is wrapped in lru_cache; secret-keyed "
    "verdicts must always be recomputed.",
)
LIN103 = register(
    "LIN103", "non-constant-time digest comparison", Severity.ERROR,
    "code",
    "A digest/signature/MAC value is compared with ==/!= in a crypto "
    "path; use primitives.hmac.constant_time_equal.",
)
LIN104 = register(
    "LIN104", "wall clock in resilience code", Severity.ERROR, "code",
    "Resilience code calls time.time/monotonic/sleep or datetime.now "
    "directly instead of the injected clock object.",
)
LIN105 = register(
    "LIN105", "raw primitive reached outside provider", Severity.ERROR,
    "code",
    "A module outside repro.primitives imports a raw primitive "
    "(aes/des/rsa/sha/modes/keywrap/prime) instead of going through "
    "primitives.provider.",
)

LIN108 = register(
    "LIN108", "torn-write hazard in a persistence module",
    Severity.ERROR, "code",
    "A module that persists security state opens a file for writing "
    "directly; a crash mid-write leaves a torn file that recovery "
    "cannot distinguish from tampering.  Route the bytes through "
    "repro.resilience.durable.atomic_write or a DurableStore.",
)

LIN106 = register(
    "LIN106", "unguarded parse of untrusted input", Severity.WARNING,
    "code",
    "A module on an untrusted-input path (network, xkms, xmlenc, "
    "player, package/pipeline/disc-image/batch entry points) calls "
    "parse_document/parse_element without an explicit guard= keyword; "
    "pass the session's ResourceGuard, or ResourceGuard.default() to "
    "document that the CE-device default quota is intended.",
)
LIN107 = register(
    "LIN107", "builtin exception escapes an untrusted-input module",
    Severity.ERROR, "code",
    "A module that receives bytes from the other side of a trust "
    "boundary raises a builtin exception that is not caught in the "
    "same module; failures on untrusted paths must be typed errors "
    "from repro.errors so callers catch the contract, not the "
    "implementation (raises converted inside an enclosing try are "
    "fine).",
)

# LIN101: attributes whose direct mutation must be stamped.
_TREE_STATE = ("children", "attrs", "ns_decls", "_data")
_MUTATING_METHODS = ("append", "insert", "remove", "pop", "clear",
                     "extend", "update", "setdefault")

# LIN103: identifier-token heuristics.
_SECRET_TOKENS = {"digest", "mac", "hmac", "signature", "sig", "tag"}
_BENIGN_TOKENS = {"method", "methods", "name", "names", "algorithm",
                  "algorithms", "uri", "id", "el", "size", "kind",
                  "path", "local", "len"}

# LIN104: forbidden wall-clock calls.
_WALL_CLOCK = {("time", "time"), ("time", "monotonic"),
               ("time", "perf_counter"), ("time", "sleep"),
               ("datetime", "now"), ("datetime", "utcnow")}

# LIN105: primitive modules only the provider may touch.  keys,
# encoding, random, padding and the constant-time helper in hmac are
# data-model/utility surfaces, not raw algorithms.
_RAW_PRIMITIVES = {"aes", "des", "rsa", "sha", "modes", "keywrap",
                   "prime"}

# LIN106: where XML arrives from the other side of a trust boundary.
_UNTRUSTED_DIRS = ("/network/", "/xkms/", "/xmlenc/", "/player/")
_UNTRUSTED_FILES = ("core/package.py", "core/playback_pipeline.py",
                    "disc/image.py", "perf/batch.py",
                    # flash contents are attacker-reachable input
                    "resilience/durable.py")
_PARSE_ENTRY_POINTS = ("parse_document", "parse_element")

# LIN108: modules that put security state on disk.  The durable layer
# itself is the sanctioned implementation (its Filesystem abstraction
# and atomic_write are *how* everyone else avoids torn writes), so it
# is exempt by construction.
_PERSISTENCE_FILES = ("player/localstorage.py", "certs/store.py",
                      "xkms/server.py")
_DURABLE_LAYER_FILES = ("resilience/durable.py", "resilience/crashfs.py")
_WRITE_MODE_CHARS = ("w", "a", "x", "+")


def _name_hint(node: ast.expr) -> str:
    """The identifier a comparison operand 'is about'."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _name_hint(node.func)
    return ""


def _tokens(identifier: str) -> set[str]:
    return {t for t in identifier.lower().split("_") if t}


def _is_secret_hint(node: ast.expr) -> bool:
    hint = _name_hint(node)
    if hint.isupper():
        return False  # ALL_CAPS module constants (algorithm URIs etc.)
    tokens = _tokens(hint)
    return bool(tokens & _SECRET_TOKENS) and not (tokens & _BENIGN_TOKENS)


def _is_self_state(node: ast.expr) -> bool:
    """``self.children`` / ``self.attrs[i]`` / ``self._data`` ..."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in _TREE_STATE)


@dataclass
class _Method:
    """LIN101 state of one class-body method."""

    qualname: str
    first_mutation: int = 0  # line; 0 = no tree-state mutation
    calls_mark: bool = False


@dataclass
class _Function:
    """LIN102 state of one ``def``."""

    node: ast.FunctionDef
    mentions_hmac: bool = False
    stores: list = field(default_factory=list)  # (line, cache/memo name)


def lint_module(tree: ast.Module, path: str) -> list:
    """Every LIN rule over one parsed module, in one traversal."""
    return _ModuleLint(path).run(tree)


class _ModuleLint:
    """One traversal of one module; each node type goes to its rules."""

    def __init__(self, path: str):
        self.path = path
        self.findings: list = []
        normalized = path.replace(os.sep, "/")
        self.in_primitives = "/primitives/" in normalized
        self.in_resilience = ("/resilience/" in normalized
                              and not normalized.endswith("clock.py"))
        self.in_crypto_path = any(
            part in normalized for part in
            ("/dsig/", "/xmlenc/", "/primitives/", "/omadcf/")
        )
        self.in_untrusted_input = (
            any(part in normalized for part in _UNTRUSTED_DIRS)
            or normalized.endswith(_UNTRUSTED_FILES)
        )
        # LIN107 also covers markup handling: its input is parsed
        # content that originated on a disc or the network.
        self.in_typed_raise_scope = (self.in_untrusted_input
                                     or "/markup/" in normalized)
        # LIN108 applies to modules that persist security state, plus
        # all of /resilience/ except the durable layer itself.
        self.in_persistence = (
            normalized.endswith(_PERSISTENCE_FILES)
            or ("/resilience/" in normalized
                and not normalized.endswith(_DURABLE_LAYER_FILES))
        )
        # LIN101 applies to modules that define the revision protocol
        # (the tree model and anything shaped like it); that is only
        # known once the whole module has been seen.
        self.defines_mark_mutated = False
        self.methods: list[_Method] = []        # finished (LIN101)
        self._open_methods: list[_Method] = []
        self._open_functions: list[_Function] = []
        self._protected = 0  # depth of try bodies that have handlers
        self._visitors = {
            ast.ClassDef: self._class, ast.FunctionDef: self._function,
            ast.Try: self._try, ast.Name: self._name,
            ast.Attribute: self._attribute, ast.Call: self._call,
            ast.Assign: self._assign, ast.AugAssign: self._assign,
            ast.Compare: self._compare, ast.Raise: self._raise,
            ast.Import: self._import, ast.ImportFrom: self._import,
        }

    def run(self, tree: ast.Module) -> list:
        self._children(tree)
        if self.defines_mark_mutated:
            for method in self.methods:
                if method.first_mutation and not method.calls_mark:
                    self.findings.append(LIN101.finding(
                        self.path,
                        f"{method.qualname} mutates tree state without "
                        "calling mark_mutated()",
                        line=method.first_mutation,
                    ))
        return self.findings

    # -- traversal -------------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        visitor = self._visitors.get(type(node))
        if visitor is None:
            self._children(node)
        else:
            visitor(node)

    def _children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_all(self, nodes: list) -> None:
        for node in nodes:
            self._visit(node)

    # -- scopes (LIN101, LIN102, LIN107) ---------------------------------------

    def _class(self, node: ast.ClassDef) -> None:
        self._visit_all(node.decorator_list + node.bases + node.keywords)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and \
                    item.name not in ("__init__", "mark_mutated"):
                method = _Method(f"{node.name}.{item.name}")
                self._open_methods.append(method)
                self._function(item)
                self._open_methods.pop()
                self.methods.append(method)
            else:
                self._visit(item)

    def _function(self, node: ast.FunctionDef) -> None:
        if node.name == "mark_mutated":
            self.defines_mark_mutated = True
        function = _Function(node)
        self._open_functions.append(function)
        self._mention(node.name)
        self._children(node)
        self._open_functions.pop()
        if function.mentions_hmac:
            self._lint_hmac_memo(function)

    def _try(self, node: ast.Try) -> None:
        # Raises lexically inside a try that has except handlers are
        # treated as converted-on-the-spot (the timing-parser idiom:
        # raise ValueError in a helper, catch and re-raise typed).
        converts = bool(node.handlers)
        self._protected += converts
        self._visit_all(node.body + node.orelse)
        self._protected -= converts
        self._visit_all(node.handlers + node.finalbody)

    def _mention(self, identifier: str) -> None:
        if self._open_functions and "hmac" in identifier.lower():
            for function in self._open_functions:
                function.mentions_hmac = True

    def _mutation(self, line: int) -> None:
        for method in self._open_methods:
            if not method.first_mutation:
                method.first_mutation = line

    # -- node visitors ---------------------------------------------------------

    def _name(self, node: ast.Name) -> None:
        self._mention(node.id)

    def _attribute(self, node: ast.Attribute) -> None:
        self._mention(node.attr)
        self._visit(node.value)

    def _assign(self, node: ast.Assign | ast.AugAssign) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        if self._open_methods and any(map(_is_self_state, targets)):
            self._mutation(node.lineno)
        if self._open_functions and isinstance(node, ast.Assign):
            for target in targets:
                if isinstance(target, ast.Subscript):
                    store = dotted_name(target.value)
                    if "cache" in store.lower() or "memo" in store.lower():
                        for function in self._open_functions:
                            function.stores.append((node.lineno, store))
        self._children(node)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        if self._open_methods and isinstance(func, ast.Attribute):
            if func.attr == "mark_mutated":
                for method in self._open_methods:
                    method.calls_mark = True
            elif func.attr in _MUTATING_METHODS and \
                    _is_self_state(func.value):
                self._mutation(node.lineno)
        if self.in_resilience:
            self._lint_wall_clock(node)
        if self.in_untrusted_input:
            self._lint_unguarded_parse(node)
        if self.in_persistence:
            self._lint_torn_write(node)
        self._children(node)

    def _compare(self, node: ast.Compare) -> None:
        if self.in_crypto_path:
            self._lint_compare(node)
        self._children(node)

    def _raise(self, node: ast.Raise) -> None:
        if self.in_typed_raise_scope and not self._protected:
            self._lint_typed_raise(node)
        self._children(node)

    # -- LIN102 ----------------------------------------------------------------

    def _lint_hmac_memo(self, function: _Function) -> None:
        func = function.node
        for decorator in func.decorator_list:
            name = dotted_name(decorator.func
                               if isinstance(decorator, ast.Call)
                               else decorator)
            if name.rsplit(".", 1)[-1] in ("lru_cache", "cache"):
                self.findings.append(LIN102.finding(
                    self.path,
                    f"{func.name} touches HMAC material and is wrapped "
                    f"in {name}",
                    line=func.lineno,
                ))
        for line, store in function.stores:
            self.findings.append(LIN102.finding(
                self.path,
                f"{func.name} stores an HMAC-derived value into {store}",
                line=line,
            ))

    # -- LIN103 ----------------------------------------------------------------

    def _lint_compare(self, node: ast.Compare) -> None:
        if len(node.ops) != 1 or \
                not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            return
        left, right = node.left, node.comparators[0]
        # Comparisons against literals/None are never secret-vs-secret.
        if isinstance(left, ast.Constant) or \
                isinstance(right, ast.Constant):
            return
        if _is_secret_hint(left) or _is_secret_hint(right):
            self.findings.append(LIN103.finding(
                self.path,
                f"comparison of "
                f"{_name_hint(left) or '<expr>'} and "
                f"{_name_hint(right) or '<expr>'} with ==/!=; use "
                "constant_time_equal",
                line=node.lineno,
            ))

    # -- LIN104 ----------------------------------------------------------------

    def _lint_wall_clock(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if "." not in dotted:
            return
        base, _, attr = dotted.rpartition(".")
        if (base.rsplit(".", 1)[-1], attr) in _WALL_CLOCK:
            self.findings.append(LIN104.finding(
                self.path,
                f"wall-clock call {dotted}(); use the injected clock",
                line=node.lineno,
            ))

    # -- LIN105 ----------------------------------------------------------------

    def _import(self, node: ast.Import | ast.ImportFrom) -> None:
        if self.in_primitives:
            return
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.module == "repro.primitives":
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = [node.module or ""]
        for module in modules:
            parts = module.split(".")
            if parts[:2] == ["repro", "primitives"] and len(parts) > 2 \
                    and parts[2] in _RAW_PRIMITIVES:
                self.findings.append(LIN105.finding(
                    self.path,
                    f"imports raw primitive {module}; route through "
                    "primitives.provider",
                    line=node.lineno,
                ))

    # -- LIN106 ----------------------------------------------------------------

    def _lint_unguarded_parse(self, node: ast.Call) -> None:
        name = _name_hint(node.func)
        if name not in _PARSE_ENTRY_POINTS:
            return
        if any(kw.arg == "guard" for kw in node.keywords):
            return
        self.findings.append(LIN106.finding(
            self.path,
            f"{name}() on an untrusted-input path without an explicit "
            "guard= resource quota",
            line=node.lineno,
        ))

    # -- LIN107 ----------------------------------------------------------------

    def _lint_typed_raise(self, node: ast.Raise) -> None:
        if node.exc is None:
            return  # bare re-raise keeps the active (typed) error
        name = _name_hint(node.exc)
        # NotImplementedError is the protocol-stub idiom.
        if name in BUILTIN_EXCEPTIONS and name != "NotImplementedError":
            self.findings.append(LIN107.finding(
                self.path,
                f"raises builtin {name} on an untrusted-input "
                "path; raise a typed error from repro.errors",
                line=node.lineno,
            ))

    # -- LIN108 ----------------------------------------------------------------

    def _lint_torn_write(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            return
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if not (isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)):
            return  # default mode "r" / dynamic mode: not a write
        if any(ch in mode.value for ch in _WRITE_MODE_CHARS):
            self.findings.append(LIN108.finding(
                self.path,
                f"open(..., {mode.value!r}) in a persistence module; "
                "a crash here leaves a torn file — use "
                "repro.resilience.durable.atomic_write",
                line=node.lineno,
            ))

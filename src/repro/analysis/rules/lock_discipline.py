"""Rule ``lock-discipline``: a race checker for the concurrent modules.

The :class:`~repro.core.caches.PlannerCaches` stores are thread-safe,
so one instance may be shared by planners on several threads; their
safety argument is a simple discipline: *in a class that creates a
``threading.Lock``, every write to ``self._*`` shared state happens
inside a ``with self.<lock>:`` block*.  This rule enforces that
discipline statically:

* A class is *locked* when any of its methods assigns
  ``self.<attr> = threading.Lock()`` (or ``RLock``/bare ``Lock``).
* In every method of a locked class except ``__init__`` (construction
  happens before the object is shared), the rule flags — unless the
  statement is lexically inside a ``with self.<lock>:`` block —

  - assignments and augmented assignments targeting ``self._x`` or
    ``self._x[...]``,
  - ``del self._x[...]``,
  - calls to known mutating methods (``append``, ``pop``, ``update``,
    ``move_to_end``, ...) on a ``self._x`` receiver.

Reads are deliberately not flagged: the repo's documented concurrency
model allows GIL-atomic lock-free reads of pure-function-of-key entries
(see :mod:`repro.core.lru`).  The one *mutation* on that sanctioned
read path — the LRU recency refresh — carries an inline
``# repro: allow[lock-discipline]`` with its rationale.

Public (non-underscore) counters like ``LruStore.hits`` are outside the
rule: they are monotonic telemetry whose losses under races are benign
and which double as the stores' documented lock-free surface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, register_rule

#: mutating methods of the built-in containers (plus OrderedDict's)
MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "sort",
    "reverse",
})

LOCK_CTORS = frozenset({"Lock", "RLock"})


def _is_lock_ctor(value: ast.expr) -> bool:
    """``threading.Lock()`` / ``Lock()`` / ``threading.RLock()`` ..."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in LOCK_CTORS
    return isinstance(func, ast.Name) and func.id in LOCK_CTORS


def _self_attr(node: ast.expr) -> str | None:
    """``self.x`` -> ``"x"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _shared_target(node: ast.expr) -> str | None:
    """The ``self._x`` attribute a store target writes to, seeing
    through subscripts (``self._x[k] = v`` mutates ``self._x``)."""
    if isinstance(node, ast.Subscript):
        return _shared_target(node.value)
    attr = _self_attr(node)
    if attr is not None and attr.startswith("_"):
        return attr
    return None


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes of ``cls`` assigned a lock constructor anywhere."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    locks.add(attr)
    return locks


class _MethodWalker(ast.NodeVisitor):
    """Walks one method body tracking ``with self.<lock>:`` nesting."""

    def __init__(self, rule: "LockDisciplineRule", src: ModuleSource,
                 cls: str, method: str, locks: set[str]):
        self.rule = rule
        self.src = src
        self.where = f"{cls}.{method}"
        self.locks = locks
        self.depth = 0
        self.findings: list[Finding] = []

    # -- lock tracking -------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        held = any(
            _self_attr(item.context_expr) in self.locks
            for item in node.items
        )
        if held:
            self.depth += 1
        self.generic_visit(node)
        if held:
            self.depth -= 1

    # -- mutations -----------------------------------------------------------

    def _flag(self, node: ast.AST, attr: str, what: str) -> None:
        lock = ", ".join(sorted(self.locks))
        self.findings.append(self.src.finding(
            node, self.rule.name,
            f"{self.where}: {what} self.{attr} outside `with self.{lock}:`",
        ))

    def _check_target(self, node: ast.AST, target: ast.expr,
                      what: str) -> None:
        attr = _shared_target(target)
        if attr is not None and attr not in self.locks:
            self._flag(node, attr, what)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.depth == 0:
            for target in node.targets:
                self._check_target(node, target, "writes")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self.depth == 0 and node.value is not None:
            self._check_target(node, node.target, "writes")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.depth == 0:
            self._check_target(node, node.target, "updates")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if self.depth == 0:
            for target in node.targets:
                self._check_target(node, target, "deletes from")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.depth == 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            attr = _self_attr(node.func.value)
            if attr is not None and attr.startswith("_") \
                    and attr not in self.locks:
                self._flag(node, attr, f"calls .{node.func.attr}() on")
        self.generic_visit(node)


@register_rule("lock-discipline")
class LockDisciplineRule:
    name = "lock-discipline"
    description = (
        "in lock-owning classes, writes to self._* shared state happen "
        "inside `with self.<lock>:` (GIL-atomic read paths annotated)"
    )
    scope = ("core/caches.py", "core/lru.py")
    exclude = ()

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for cls in ast.walk(src.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            locks = _lock_attrs(cls)
            if not locks:
                continue
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name == "__init__":
                    continue  # construction precedes sharing
                walker = _MethodWalker(self, src, cls.name, method.name,
                                       locks)
                for stmt in method.body:
                    walker.visit(stmt)
                yield from walker.findings

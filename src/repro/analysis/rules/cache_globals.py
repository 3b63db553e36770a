"""Rule ``cache-globals``: no module-level cache stores in ``repro.core``.

The cache-ownership refactor moved every planner memo (the partition
DP tables, ``_PREFIX_CACHE``, ``_TIMELINE_CACHE`` and their like) into
:class:`~repro.core.caches.PlannerCaches` fields.  This rule fails on any module-level assignment in ``core/``
that smells like a cache store, so a future change cannot quietly
reintroduce process-global warm state outside the sanctioned
:func:`~repro.core.caches.default_caches` singleton.

Formerly the ad-hoc walker in ``tests/test_no_cache_globals.py``; the
test is now a thin wrapper over this rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..engine import Finding, ModuleSource, register_rule

#: module-level names that must not exist: the historical globals were
#: all-caps with a CACHE component (``_TIMELINE_CACHE`` etc.); capacity
#: constants like ``HET_CACHE_MAX_TABLES`` are public and fine.
FORBIDDEN_NAME = re.compile(r"^_[A-Z0-9_]*CACHE[A-Z0-9_]*$")

#: module-level calls that would build a mutable store at import time.
FORBIDDEN_CTORS = frozenset({"WeakKeyDictionary", "OrderedDict", "defaultdict"})

#: the one sanctioned module-level store: the lazily-built default
#: PlannerCaches singleton (starts as None, built under a lock).
ALLOWED = frozenset({("core/caches.py", "_default_caches")})


def _assigned_names(node: ast.stmt) -> Iterator[str]:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        yield node.target.id


def _ctor_name(node: ast.stmt) -> str | None:
    value = getattr(node, "value", None)
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@register_rule("cache-globals")
class CacheGlobalsRule:
    name = "cache-globals"
    description = (
        "module-level cache stores are retired; own warm state in "
        "PlannerCaches fields"
    )
    scope = ("core/*.py",)
    exclude = ()

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in src.tree.body:  # module level only, by construction
            names = list(_assigned_names(node))
            for name in names:
                if (src.rel, name) in ALLOWED:
                    continue
                if FORBIDDEN_NAME.match(name):
                    yield src.finding(
                        node, self.name,
                        f"module-level name {name!r} smells like a retired "
                        "cache global; own it in PlannerCaches",
                    )
            ctor = _ctor_name(node)
            if ctor in FORBIDDEN_CTORS and not any(
                (src.rel, n) in ALLOWED for n in names
            ):
                yield src.finding(
                    node, self.name,
                    f"module-level {ctor}() builds a mutable store at "
                    f"import time (assigned to {names or '?'}); own it in "
                    "PlannerCaches",
                )

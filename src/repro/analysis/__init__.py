"""Static analysis for the planner's correctness invariants.

``repro analyze`` (and the thin AST gate tests) run the rule engine in
:mod:`repro.analysis.engine` with the built-in rules of
:mod:`repro.analysis.rules`:

``cache-globals``
    no module-level cache stores in ``core/`` (PlannerCaches owns warm
    state).
``registry-bypass``
    schedule builders are reached through ``get_family`` only.
``lock-discipline``
    in lock-owning cache classes, ``self._*`` writes happen
    under ``with self.<lock>:``.
``determinism``
    no wall-clock values, unseeded random, ``id()`` keys or
    set-iteration-ordered output in ``core/``, ``schedule/``,
    ``harness/``.
``float-equality``
    no bare ``==``/``!=`` between float expressions outside the
    equivalence oracle.

See :mod:`repro.analysis.engine` for the suppression syntax
(``# repro: allow[rule-id] rationale``) and the unused-suppression
check.
"""

from .engine import (
    RULES,
    UNUSED_SUPPRESSION,
    Finding,
    ModuleSource,
    Rule,
    analyze,
    get_rule,
    in_scope,
    iter_sources,
    package_root,
    register_rule,
    rule_names,
)
from . import rules  # noqa: F401  (import-for-effect: registry population)

__all__ = [
    "RULES",
    "UNUSED_SUPPRESSION",
    "Finding",
    "ModuleSource",
    "Rule",
    "analyze",
    "get_rule",
    "in_scope",
    "iter_sources",
    "package_root",
    "register_rule",
    "rule_names",
]

"""Rule ``registry-bypass``: schedule builders are registry-only.

The :class:`~repro.schedule.families.ScheduleFamily` registry routes
every consumer (planner, baselines, harness) through
:func:`repro.schedule.get_family`; the builder module
(``repro.schedule.onef1b``) and its ``build_*`` function are an
implementation detail of the ``schedule`` package.  This rule fails on
any import of a builder module or builder function outside
``repro/schedule/``, so a future change cannot quietly bypass the
registry (and with it the planner's ``--schedule`` plumbing, cache
identity and memory-window dispatch).

Formerly the ad-hoc walker in ``tests/test_no_direct_builder_imports.py``;
the test is now a thin wrapper over this rule, and its companion test
checks these hardcoded lists against the modules and ``build_*``
functions ``repro.schedule`` actually has.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, register_rule

#: builder submodules of repro.schedule — private to the package
BUILDER_MODULES = frozenset({"onef1b"})
#: the builder entry points those modules define
BUILDER_NAMES = frozenset({"build_1f1b"})


def _is_builder_module(module: str | None) -> bool:
    """True for ``repro.schedule.<builder>`` in any spelling (absolute
    or relative: ``..schedule.onef1b`` parses as module ``schedule.onef1b``).
    Requires the ``schedule`` parent so a module elsewhere that happens
    to share a builder module's name passes."""
    if not module:
        return False
    parts = module.split(".")
    return (
        len(parts) >= 2
        and parts[-2] == "schedule"
        and parts[-1] in BUILDER_MODULES
    )


@register_rule("registry-bypass")
class RegistryBypassRule:
    name = "registry-bypass"
    description = (
        "schedule builders are reached via repro.schedule.get_family "
        "only; no direct builder imports outside schedule/"
    )
    scope = ("*",)
    exclude = ("schedule/*",)

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom):
                # ``from ..schedule.onef1b import ...`` / absolute spelling
                if _is_builder_module(node.module):
                    yield src.finding(
                        node, self.name,
                        f"imports builder module {node.module!r}; go "
                        "through repro.schedule.get_family",
                    )
                # ``from ..schedule import build_1f1b``
                for alias in node.names:
                    if alias.name in BUILDER_NAMES:
                        yield src.finding(
                            node, self.name,
                            f"imports builder {alias.name!r}; go through "
                            "repro.schedule.get_family",
                        )
            elif isinstance(node, ast.Import):
                # ``import repro.schedule.onef1b``
                for alias in node.names:
                    if _is_builder_module(alias.name):
                        yield src.finding(
                            node, self.name,
                            f"imports builder module {alias.name!r}; go "
                            "through repro.schedule.get_family",
                        )

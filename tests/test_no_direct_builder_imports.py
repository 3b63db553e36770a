"""Gate: schedule builders are reached through the registry only.

The ScheduleFamily registry routes every consumer (planner, baselines,
harness) through :func:`repro.schedule.get_family`; the builder module
(``repro.schedule.onef1b``) and its ``build_*`` function are an
implementation detail of the ``schedule`` package.  The AST walk that
used to live here is now the ``registry-bypass`` rule of the shared
:mod:`repro.analysis` engine; this test is a thin wrapper so the gate
and ``repro analyze`` can never drift apart.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro.schedule
from repro.analysis import analyze
from repro.analysis.rules.registry_bypass import BUILDER_MODULES, BUILDER_NAMES


def test_no_builder_imports_outside_schedule_package():
    findings = analyze(rule_names_=["registry-bypass"])
    assert not findings, (
        "schedule builders must be reached via the registry "
        "(repro.schedule.get_family); direct imports found:\n  "
        + "\n  ".join(f.format() for f in findings)
    )


def test_gate_runs_through_the_shared_engine():
    """No duplicated AST walker: this module delegates to
    :mod:`repro.analysis` instead of importing :mod:`ast` itself."""
    assert "ast" not in globals()


def test_gate_matches_the_registry():
    """The rule's hardcoded lists name exactly the ``build_*`` functions
    the ``repro.schedule`` package defines and the submodules defining
    them, so a builder cannot be added, renamed or deleted without the
    gate following."""
    modules, names = set(), set()
    for info in pkgutil.iter_modules(repro.schedule.__path__):
        module = importlib.import_module(f"repro.schedule.{info.name}")
        builders = {
            name
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if name.startswith("build_") and fn.__module__ == module.__name__
        }
        if builders:
            modules.add(info.name)
            names |= builders
    assert BUILDER_MODULES == modules
    assert BUILDER_NAMES == names

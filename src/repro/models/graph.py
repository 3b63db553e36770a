"""Whole-model description: components wired into a DAG.

A :class:`ModelSpec` is what the DiffusionPipe front-end takes as input
(Fig. 7): one or more trainable backbones, a set of frozen components
with dependencies among them, and training-procedure flags
(self-conditioning probability).
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from .component import ComponentSpec


@dataclass(frozen=True)
class ModelSpec:
    """A diffusion model: trainable backbones + frozen component DAG.

    Parameters
    ----------
    name:
        Model name ("stable-diffusion-v2.1", ...).
    components:
        All components, keyed by name.
    backbone_names:
        Ordered names of the trainable backbones (cascaded models list
        several; the order is the cascade order).
    self_conditioning:
        Whether training uses self-conditioning (extra forward pass).
    self_conditioning_prob:
        Probability that a training step activates self-conditioning
        (0.5 in Chen et al. 2022).
    """

    name: str
    components: Mapping[str, ComponentSpec]
    backbone_names: tuple[str, ...]
    self_conditioning: bool = False
    self_conditioning_prob: float = 0.5

    def __init__(
        self,
        name: str,
        components: Sequence[ComponentSpec],
        backbone_names: Sequence[str],
        self_conditioning: bool = False,
        self_conditioning_prob: float = 0.5,
    ):
        comp_map = {c.name: c for c in components}
        if len(comp_map) != len(components):
            raise ConfigurationError(f"model {name}: duplicate component names")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "components", comp_map)
        object.__setattr__(self, "backbone_names", tuple(backbone_names))
        object.__setattr__(self, "self_conditioning", bool(self_conditioning))
        object.__setattr__(self, "self_conditioning_prob", float(self_conditioning_prob))
        self._validate()

    def _validate(self) -> None:
        if not self.backbone_names:
            raise ConfigurationError(f"model {self.name} has no backbone")
        for bb in self.backbone_names:
            if bb not in self.components:
                raise ConfigurationError(f"unknown backbone component {bb!r}")
            if not self.components[bb].trainable:
                raise ConfigurationError(f"backbone {bb!r} must be trainable")
        for comp in self.components.values():
            for dep in comp.depends_on:
                if dep not in self.components:
                    raise ConfigurationError(
                        f"component {comp.name} depends on unknown {dep!r}"
                    )
        if not (0.0 <= self.self_conditioning_prob <= 1.0):
            raise ConfigurationError("self_conditioning_prob must be in [0, 1]")
        # A cycle anywhere in the component DAG is a configuration error.
        self.topological_order()

    # -- views ---------------------------------------------------------------

    @property
    def backbones(self) -> list[ComponentSpec]:
        """The trainable backbones, in cascade order."""
        return [self.components[n] for n in self.backbone_names]

    @property
    def backbone(self) -> ComponentSpec:
        """The unique backbone (raises if the model is cascaded)."""
        if len(self.backbone_names) != 1:
            raise ConfigurationError(
                f"model {self.name} has {len(self.backbone_names)} backbones; "
                "use .backbones"
            )
        return self.components[self.backbone_names[0]]

    @property
    def non_trainable(self) -> list[ComponentSpec]:
        """Frozen components in topological (dependency-respecting) order."""
        order = self.topological_order()
        return [
            self.components[n]
            for n in order
            if not self.components[n].trainable
        ]

    def topological_order(self) -> list[str]:
        """Component names in a dependency-respecting order.

        Frozen-component dependencies on backbones are allowed (a frozen
        decoder fed by a backbone) but unusual; trainable backbones are
        sorted like any other node.
        """
        graph = {
            name: set(comp.depends_on) for name, comp in self.components.items()
        }
        try:
            return list(TopologicalSorter(graph).static_order())
        except CycleError as exc:
            raise ConfigurationError(
                f"model {self.name} has a dependency cycle: {exc}"
            ) from exc

    def ready_after(self, done: set[str]) -> list[ComponentSpec]:
        """Frozen components whose dependencies are all in ``done``.

        This is the "ready set" notion used by the bubble-filling
        scheduler (§5): a component becomes ready once every component it
        depends on has fully executed.
        """
        out = []
        for comp in self.non_trainable:
            if comp.name in done:
                continue
            if all(d in done for d in comp.depends_on):
                out.append(comp)
        return out

    # -- aggregates ------------------------------------------------------------

    @property
    def trainable_param_bytes(self) -> float:
        """Total parameter bytes across backbones."""
        return sum(b.param_bytes for b in self.backbones)

    @property
    def frozen_param_bytes(self) -> float:
        """Total parameter bytes across frozen components."""
        return sum(c.param_bytes for c in self.non_trainable)

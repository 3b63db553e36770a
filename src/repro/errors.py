"""Exception hierarchy for the DiffusionPipe reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """An invalid configuration was supplied (bad S/M/D combination, ...)."""


class ProfileError(ReproError):
    """A profile lookup failed (missing layer, unprofiled batch size, ...)."""


class PartitionError(ReproError):
    """No feasible partition exists for the requested stage count."""


class ScheduleError(ReproError):
    """A pipeline schedule is malformed (dependency cycle, bad device id)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class FillingError(ReproError):
    """Bubble filling failed (negative bubble time, unknown component)."""


class MemoryError_(ReproError):
    """A plan exceeds device memory. Named with a trailing underscore to
    avoid shadowing the builtin :class:`MemoryError`."""


class OutOfMemory(MemoryError_):
    """Raised (or recorded) when a configuration does not fit in device HBM."""

    def __init__(self, required_bytes: float, capacity_bytes: float, detail: str = ""):
        self.required_bytes = float(required_bytes)
        self.capacity_bytes = float(capacity_bytes)
        msg = (
            f"requires {required_bytes / 2**30:.2f} GiB "
            f"but device has {capacity_bytes / 2**30:.2f} GiB"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class EngineError(ReproError):
    """The numeric execution engine hit an invalid instruction stream."""


class SnapshotError(ReproError):
    """A planner-cache snapshot could not be written or restored
    (unknown format version, corrupt payload, wrong magic)."""

"""Cluster topology: machines, devices and the links between them.

The paper's testbed is 8 Amazon EC2 p4de.24xlarge machines, each with
8 NVIDIA A100-80GB GPUs.  Intra-node traffic travels over NVSwitch
(600 GB/s); inter-node traffic over EFA (400 Gb/s).  The topology object
answers one question for the rest of the system: *what bandwidth and
latency connect two device ranks?*
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

from .. import units
from ..errors import ConfigurationError
from .device import Device, DeviceSpec, a100_80gb


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link abstraction.

    ``bandwidth`` is in bytes/ms, ``latency`` in ms.
    """

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if self.latency < 0:
            raise ConfigurationError("link latency must be non-negative")

    def transfer_time_ms(self, nbytes: float) -> float:
        """Time to move ``nbytes`` over this link."""
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        return self.latency + nbytes / self.bandwidth


#: NVSwitch, 600 GB/s, ~5 microseconds latency.
NVSWITCH = LinkSpec(bandwidth=units.gBps_to_bytes_per_ms(600.0), latency=0.005)

#: EFA, 400 Gb/s, ~15 microseconds latency.
EFA_400G = LinkSpec(bandwidth=units.gbps_to_bytes_per_ms(400.0), latency=0.015)


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster of ``num_machines`` x ``devices_per_machine`` devices.

    Devices are ranked machine-major: rank = machine * devices_per_machine
    + local_rank, matching the paper's device chain ordering (Fig. 8).

    The cluster is homogeneous by default — every device is
    ``device_spec`` at nominal speed, every intra-/inter-node link is
    ``intra_link``/``inter_link``.  Three sparse override maps make it
    heterogeneous:

    * ``speed_factors``: rank -> relative compute speed (1.0 nominal);
    * ``device_specs``: rank -> :class:`DeviceSpec` replacing the base;
    * ``link_overrides``: (machine, machine) -> :class:`LinkSpec` for a
      specific machine pair (a ``(m, m)`` pair overrides that machine's
      intra-node link).

    The maps are canonicalised in ``__post_init__`` — sorted into tuples
    with identity entries (factor 1.0, the base spec, the default link)
    dropped — so dataclass equality/hash, and therefore every planner
    cache key this spec joins, compare by *semantic* cluster identity: a
    no-op override neither splits a warm cache nor aliases a real one.
    """

    num_machines: int = 1
    devices_per_machine: int = 8
    device_spec: DeviceSpec = field(default_factory=a100_80gb)
    intra_link: LinkSpec = NVSWITCH
    inter_link: LinkSpec = EFA_400G
    #: canonicalised ((rank, factor), ...); accepts a mapping at init
    speed_factors: tuple = ()
    #: canonicalised ((rank, DeviceSpec), ...); accepts a mapping at init
    device_specs: tuple = ()
    #: canonicalised (((m0, m1), LinkSpec), ...); accepts a mapping at init
    link_overrides: tuple = ()

    def __post_init__(self) -> None:
        for name in ("num_machines", "devices_per_machine"):
            value = getattr(self, name)
            if not units.positive_int(value):
                raise ConfigurationError(
                    f"cluster {name} must be an integer >= 1, got {value!r}"
                )
        object.__setattr__(
            self, "speed_factors", self._canon_speed(self.speed_factors)
        )
        object.__setattr__(
            self, "device_specs", self._canon_specs(self.device_specs)
        )
        object.__setattr__(
            self, "link_overrides", self._canon_links(self.link_overrides)
        )

    # -- hashing ---------------------------------------------------------------

    def __hash__(self) -> int:
        """The dataclass hash of the fields, computed once per instance.

        Every partition, floor, gate, comm and evals key holds the
        cluster, so a warm replan hashes it hundreds of times.  The
        cached value lives in the instance dict, outside the fields, so
        ``__eq__``, ``repr`` and ``dataclasses.fields`` never see it,
        and :meth:`__getstate__` leaves it out of the pickled state: the
        hash of a :class:`DeviceSpec` name differs under another
        ``PYTHONHASHSEED``."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # -- override canonicalisation -------------------------------------------

    @staticmethod
    def _pairs(overrides) -> Iterable[tuple]:
        if isinstance(overrides, Mapping):
            return overrides.items()
        return tuple(overrides)

    def _canon_speed(self, overrides) -> tuple:
        out = {}
        for rank, factor in self._pairs(overrides):
            rank = int(rank)
            self._check_rank(rank)
            factor = float(factor)
            if not factor > 0:
                raise ConfigurationError(
                    f"speed factor for rank {rank} must be positive, "
                    f"got {factor}"
                )
            # Exact-identity gate: factor 1.0 IS the homogeneous default,
            # and dropping it keeps cache keys canonical.
            if factor != 1.0:  # repro: allow[float-equality] identity gate
                out[rank] = factor
        return tuple(sorted(out.items()))

    def _canon_specs(self, overrides) -> tuple:
        out = {}
        for rank, spec in self._pairs(overrides):
            rank = int(rank)
            self._check_rank(rank)
            if not isinstance(spec, DeviceSpec):
                raise ConfigurationError(
                    f"device_specs[{rank}] must be a DeviceSpec, "
                    f"got {type(spec).__name__}"
                )
            if spec != self.device_spec:
                out[rank] = spec
        return tuple(sorted(out.items()))

    def _canon_links(self, overrides) -> tuple:
        out = {}
        for pair, link in self._pairs(overrides):
            m0, m1 = (int(m) for m in pair)
            for m in (m0, m1):
                if not (0 <= m < self.num_machines):
                    raise ConfigurationError(
                        f"link override machine {m} out of range for "
                        f"{self.num_machines} machines"
                    )
            if not isinstance(link, LinkSpec):
                raise ConfigurationError(
                    f"link_overrides[{pair}] must be a LinkSpec, "
                    f"got {type(link).__name__}"
                )
            key = (min(m0, m1), max(m0, m1))
            default = self.intra_link if key[0] == key[1] else self.inter_link
            if link != default:
                out[key] = link
        return tuple(sorted(out.items()))

    # -- heterogeneity accessors ---------------------------------------------

    @property
    def homogeneous(self) -> bool:
        """True when no per-device or per-link override is active."""
        return not (
            self.speed_factors or self.device_specs or self.link_overrides
        )

    def speed_factor(self, rank: int) -> float:
        """Relative compute speed of a rank (1.0 unless overridden)."""
        self._check_rank(rank)
        for r, factor in self.speed_factors:
            if r == rank:
                return factor
        return 1.0

    def device_spec_of(self, rank: int) -> DeviceSpec:
        """The :class:`DeviceSpec` of a rank (base unless overridden)."""
        self._check_rank(rank)
        for r, spec in self.device_specs:
            if r == rank:
                return spec
        return self.device_spec

    def group_speed_factor(self, ranks: Iterable[int]) -> float:
        """Bottleneck (minimum) speed factor across a device group."""
        factors = [self.speed_factor(r) for r in ranks]
        if not factors:
            raise ConfigurationError("empty device group")
        return min(factors)

    def min_memory_bytes(self) -> float:
        """Smallest HBM capacity across all devices (OOM bound)."""
        capacity = self.device_spec.memory_bytes
        for _, spec in self.device_specs:
            capacity = min(capacity, spec.memory_bytes)
        return capacity

    def machine_pair_link(self, machine_a: int, machine_b: int) -> LinkSpec:
        """The link between two machines (or within one, if equal)."""
        key = (min(machine_a, machine_b), max(machine_a, machine_b))
        for pair, link in self.link_overrides:
            if pair == key:
                return link
        return self.intra_link if machine_a == machine_b else self.inter_link

    # -- structure ----------------------------------------------------------

    @property
    def world_size(self) -> int:
        """Total number of devices."""
        return self.num_machines * self.devices_per_machine

    def device(self, rank: int) -> Device:
        """The :class:`Device` at a global rank."""
        self._check_rank(rank)
        return Device(
            rank=rank,
            machine=rank // self.devices_per_machine,
            local_rank=rank % self.devices_per_machine,
            spec=self.device_spec_of(rank),
            speed_factor=self.speed_factor(rank),
        )

    def devices(self) -> list[Device]:
        """All devices in rank order."""
        return [self.device(r) for r in range(self.world_size)]

    def machine_of(self, rank: int) -> int:
        """Host machine index of a global rank."""
        self._check_rank(rank)
        return rank // self.devices_per_machine

    def same_machine(self, rank_a: int, rank_b: int) -> bool:
        """Whether two ranks share a machine (and hence NVSwitch)."""
        return self.machine_of(rank_a) == self.machine_of(rank_b)

    # -- links --------------------------------------------------------------

    def link(self, rank_a: int, rank_b: int) -> LinkSpec:
        """The link connecting two device ranks."""
        if rank_a == rank_b:
            # A self-link is infinitely fast for our purposes; model it as
            # the local intra-node link with zero latency so that
            # degenerate schedules (stage i and i+1 on the same device)
            # cost ~nothing.
            self._check_rank(rank_a)
            machine = self.machine_of(rank_a)
            intra = self.machine_pair_link(machine, machine)
            return LinkSpec(bandwidth=intra.bandwidth, latency=0.0)
        if not self.link_overrides:
            if self.same_machine(rank_a, rank_b):
                return self.intra_link
            return self.inter_link
        return self.machine_pair_link(
            self.machine_of(rank_a), self.machine_of(rank_b)
        )

    def p2p_time_ms(self, rank_a: int, rank_b: int, nbytes: float) -> float:
        """Point-to-point transfer time between two ranks."""
        return self.link(rank_a, rank_b).transfer_time_ms(nbytes)

    def group_link(self, ranks: Sequence[int]) -> LinkSpec:
        """The narrowest link within a group (bottleneck for collectives)."""
        ranks = list(ranks)
        if not ranks:
            raise ConfigurationError("empty device group")
        for r in ranks:
            self._check_rank(r)
        machines = sorted({self.machine_of(r) for r in ranks})
        if not self.link_overrides:
            return self.intra_link if len(machines) <= 1 else self.inter_link
        if len(machines) <= 1:
            return self.machine_pair_link(machines[0], machines[0])
        # A ring collective crosses every machine pair's narrowest path;
        # the bottleneck is the slowest pairwise link (ties broken toward
        # higher latency, the conservative choice).
        candidates = [
            self.machine_pair_link(machines[i], machines[j])
            for i in range(len(machines))
            for j in range(i + 1, len(machines))
        ]
        return min(candidates, key=lambda l: (l.bandwidth, -l.latency))

    def spans_machines(self, ranks: Iterable[int]) -> bool:
        """Whether a group of ranks crosses a machine boundary."""
        return len({self.machine_of(r) for r in ranks}) > 1

    # -- helpers -------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.world_size):
            raise ConfigurationError(
                f"rank {rank} out of range for world size {self.world_size}"
            )


def p4de_cluster(
    num_machines: int = 1,
    speed_factors: Mapping[int, float] | None = None,
) -> ClusterSpec:
    """The paper's testbed: p4de.24xlarge machines (8x A100-80GB each)."""
    return ClusterSpec(
        num_machines=num_machines,
        devices_per_machine=8,
        speed_factors=speed_factors or (),
    )


def single_node(
    num_devices: int = 8,
    device_spec: DeviceSpec | None = None,
    speed_factors: Mapping[int, float] | None = None,
) -> ClusterSpec:
    """A single machine with ``num_devices`` accelerators."""
    return ClusterSpec(
        num_machines=1,
        devices_per_machine=num_devices,
        device_spec=device_spec or a100_80gb(),
        speed_factors=speed_factors or (),
    )

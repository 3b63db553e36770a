"""Ownership of all planner memoisation: :class:`PlannerCaches`.

Every warm table the planner builds — the partition DP Pareto
histories (single-backbone and bidirectional CDM, each with uniform
and heterogeneous replication), the filling prefix-time arrays, the
lookahead fill shape cache, the simulated-timeline memo, the
partition/evaluation memos and the communication constants — lives in
fields of one :class:`PlannerCaches` instance.  Nothing in
:mod:`repro.core` reaches for a module-level cache global; functions
that historically did now take a ``caches`` handle and fall back to the
process-wide :func:`default_caches` instance, which preserves the old
cross-planner warm sharing for callers that never pass one.

On top of ownership this module provides:

* :meth:`PlannerCaches.stats` — hit/miss/eviction counters per store,
  as a :class:`CacheStats` report;
* :meth:`PlannerCaches.snapshot` / :meth:`PlannerCaches.load` — a
  versioned on-disk format for the M-independent DP tables, the
  prefix/fill-shape entries and the timeline memo.  Weak profile
  references (both the weak outer keys of the per-profile stores and
  the ``weakref.ref`` values embedded in fill-shape keys) are re-keyed
  by :meth:`~repro.profiling.records.ProfileDB.fingerprint` — a
  content hash of the structural model signature plus every measured
  value — so snapshots survive re-profiling and cross process
  boundaries.  Unknown format versions are rejected with a clear
  :class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations

import pickle
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..errors import SnapshotError
from .lru import LruStore, ProfileKeyedStore, StoreStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..profiling.records import ProfileDB


#: store capacities
PARTITION_CACHE_MAX = 16384
EVAL_CACHE_MAX = 4096
TIMELINE_CACHE_MAX = 8192
#: 1F1B tables of both flavours: the 1024 pinned plus 256 free tables
#: the two stores they merged from held
HET_CACHE_MAX_TABLES = 1280
#: CDM tables of both flavours (256 pinned + 256 free, likewise)
CDM_CACHE_MAX_TABLES = 512
PREFIX_CACHE_MAX = 8192
KERNEL_PLAN_CACHE_MAX = 256

SNAPSHOT_MAGIC = "repro-planner-caches"
#: bumped whenever a stored key's layout changes (entries are pickled
#: with their keys as-is, so an old file would load but never hit) or
#: the file's layout does (version 6 pickles each entry on its own)
SNAPSHOT_VERSION = 6


class FillShapeCache:
    """Cross-evaluation memo for the lookahead fill, keyed by *shape*.

    The lookahead search depends on the bubbles only through their
    chronological (duration, weight) sequence — absolute start times
    never enter the DP — plus the filler's context (profile, model,
    batch, partial-batch knobs, beam settings, initial component
    states).  A planner sweeping (S, M, D) combinations therefore
    re-runs the same search whenever two timelines share that shape;
    this cache lets every evaluation after the first reuse

    * the per-bubble *expansion tables* (FFC candidates and the
      partial-batch menus, keyed by ready-state signature + bubble
      duration + weight),
    * *beam prefixes* — the surviving state set after each bubble
      position, so a shape sharing only a prefix resumes mid-search, and
    * the *final plan* (items, per-bubble utilizations, telemetry and
      terminal component states), replayed without any search at all.

    Everything stored is immutable and profile-content-free (keys hold
    a ``weakref`` to the :class:`ProfileDB`), and the three stores are
    bounded :class:`~repro.core.lru.LruStore` LRUs, so a shared
    instance inside :class:`PlannerCaches` neither pins retired
    profiles nor grows without bound.
    """

    def __init__(
        self,
        *,
        max_expansions: int = 8192,
        max_prefixes: int = 2048,
        max_finals: int = 1024,
    ):
        self.expansions = LruStore(max_expansions, name="fills.expansions")
        self.prefixes = LruStore(max_prefixes, name="fills.prefixes")
        self.finals = LruStore(max_finals, name="fills.finals")
        #: telemetry: warm final-plan hits / cold searches stored
        self.final_hits = 0
        self.final_misses = 0

    def clear(self) -> None:
        """Drop every memoised expansion table, beam prefix and plan."""
        self.expansions.clear()
        self.prefixes.clear()
        self.finals.clear()
        self.final_hits = 0
        self.final_misses = 0

    def stats(self) -> list[StoreStats]:
        return [
            self.expansions.stats(),
            self.prefixes.stats(),
            self.finals.stats(),
        ]


@dataclass(frozen=True)
class CacheStats:
    """Per-store hit/miss/eviction counters of one :class:`PlannerCaches`.

    ``fill_plan_hits`` / ``fill_plan_misses`` count warm final-plan
    replays versus cold lookahead searches (the
    :class:`FillShapeCache` telemetry).
    """

    stores: tuple[StoreStats, ...]
    fill_plan_hits: int
    fill_plan_misses: int

    def store(self, name: str) -> StoreStats:
        for s in self.stores:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class _ProfileKey:
    """Serialized stand-in for a ``weakref.ref(ProfileDB)`` inside a
    snapshotted cache key: the profile's content fingerprint."""

    fingerprint: str


def _freeze(obj, fp_of):
    """Replace live profile weakrefs with fingerprints, recursively
    through tuples.  Raises :class:`_DeadRef` when a referent died."""
    if isinstance(obj, weakref.ref):
        profile = obj()
        if profile is None:
            raise _DeadRef
        return _ProfileKey(fp_of(profile))
    if type(obj) is tuple:
        return tuple(_freeze(x, fp_of) for x in obj)
    return obj


def _thaw(obj, profile_by_fp: Mapping[str, "ProfileDB"]):
    """Inverse of :func:`_freeze`: swap fingerprints back to weakrefs
    of live profiles.  Raises :class:`_DeadRef` for unknown ones."""
    if isinstance(obj, _ProfileKey):
        profile = profile_by_fp.get(obj.fingerprint)
        if profile is None:
            raise _DeadRef
        return weakref.ref(profile)
    if type(obj) is tuple:
        return tuple(_thaw(x, profile_by_fp) for x in obj)
    return obj


class _DeadRef(Exception):
    """A profile referenced by a cache entry is gone; drop the entry."""


def _dump(entry: tuple) -> bytes:
    """One snapshot entry pickled on its own, with a memo of its own."""
    return pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)


def _load_entries(blobs, path) -> list[tuple]:
    """The entries of one store's pickled blobs (see :func:`_dump`)."""
    try:
        return [pickle.loads(blob) for blob in blobs]
    except (pickle.UnpicklingError, EOFError, AttributeError, TypeError) as e:
        raise SnapshotError(f"corrupt entry in cache snapshot {path}: {e}") from e


class PlannerCaches:
    """Single owner of all planner memoisation.

    One instance may be shared by several planners (e.g. DiffusionPipe +
    SPP in a throughput sweep, or the Fig. 15 ablation variants) and by
    several threads: every store takes a coarse per-store lock on
    mutation, and entries are pure functions of their keys, so
    concurrent use can at worst recompute a value it then stores twice.
    Cache keys include the full :class:`ClusterSpec` (a frozen value
    type) and weak references to the :class:`ProfileDB`, so planners on
    different topologies or re-profiled models never alias each other's
    entries (and retired profiles are not pinned by the cache).

    Stores
    ------
    ``partition``
        under the partition key (profile, cluster, batch_per_group, D,
        S, M, ...) tagged ``"floor"`` and extended by the schedule
        family, the bound ladder's pre-partition makespan floor of a
        configuration (or the PartitionError it raised); and under it
        tagged ``"gate"`` and extended by schedule, model name and
        ``check_memory``, the configuration's finalists: each
        memory-checked partition with its report and the closed-form
        floor of its pipeline, which the ladder's closed-form rung
        reads.  No entry holds a partition on its own: the gate keeps
        every finalist, and ``het`` / ``cdm`` the DP tables the
        partitions are read from (a heterogeneous planner's pinned
        finalist reads the uniform planner's table).
    ``comm``
        per-(D, r) communication constants; unbounded — its keys are
        (cluster, small ints) and its values two floats, bounded by the
        topologies actually used.
    ``evals``
        simulate-and-fill outcomes, with the filling-relevant
        :class:`PlannerOptions` knobs in the key so planners with
        different filling ablations never alias each other's entries;
        and, under ``("simulate", ...)`` keys without those knobs, the
        unfilled timeline of each partition, which the simulated rung
        and the fill of the bound-ladder ``plan()`` both read.
    ``het`` / ``cdm``
        the per-profile M-independent DP Pareto tables of
        :mod:`repro.core.partition` (single backbone) and
        :mod:`repro.core.partition_cdm` (bidirectional), each holding
        both replication flavours: tables pinned to a uniform replica
        count and free heterogeneous ones, told apart by their keys.
    ``prefixes``
        the per-profile filling prefix-time arrays of
        :mod:`repro.core.filling`.
    ``timelines``
        simulated pipeline timelines keyed by every input of the
        task-graph build (stage execs, micro-batch count,
        self-conditioning flag, feedback time, device weights), so
        identical configurations reached from different planners or
        batches share one simulation.
    ``fills``
        the lookahead :class:`FillShapeCache`.
    ``kernel_plans``
        geometry-only transition plans of the array kernels and the
        pre-partition floors (:mod:`repro.core.partition_kernels`): per
        chain position, the transitions' parent indices and flat slab
        offsets, keyed by lattice geometry alone, so the table builds
        and floor folds of adjacent stage-local batches in a sweep
        gather through one shared plan instead of re-enumerating the
        cut grid.  Each CDM floor lattice adds one more entry, tagged
        ``"cdm-chains"``: both chains' own (cut, device) lattices,
        which the floor's path folds walk.  A single-backbone lattice
        is one entry, tagged ``"1f1b-chain"``, which its table and its
        floor both walk.  Floors store free lattices uncapped, so every
        replica cap shares them (a free table's sample cap, where it
        binds, keys a plan of its own), and a pinned lattice's plans
        carry no replica count, so every ``r = D/S`` shares them (a
        cold 16-GPU SD v2.1 plan builds two, one per stage count).
        Profile-independent (plain :class:`LruStore`) and deliberately
        not snapshotted: a plan rebuilds in tens of
        milliseconds at most.

    ``partition``, ``evals`` and ``timelines`` are bounded LRUs:
    re-profiling strands their weak-keyed entries, and their values pin
    :class:`Timeline` objects, so an unbounded store would grow forever
    in a long sweep or an elastic session replanning in one process.
    """

    def __init__(self) -> None:
        self.partition = LruStore(PARTITION_CACHE_MAX, name="partition")
        self.comm = LruStore(None, name="comm")
        self.evals = LruStore(EVAL_CACHE_MAX, name="evals")
        self.het = ProfileKeyedStore(HET_CACHE_MAX_TABLES, name="het")
        self.cdm = ProfileKeyedStore(CDM_CACHE_MAX_TABLES, name="cdm")
        self.prefixes = ProfileKeyedStore(PREFIX_CACHE_MAX, name="prefixes")
        self.kernel_plans = LruStore(KERNEL_PLAN_CACHE_MAX, name="kernel_plans")
        self.timelines = LruStore(TIMELINE_CACHE_MAX, name="timelines")
        self.fills = FillShapeCache()

    # -- maintenance ---------------------------------------------------------

    def clear(self, profiles: Sequence["ProfileDB"] = ()) -> None:
        """Epoch reset for long-lived planners.

        Empties every store this instance owns and — for each profile
        passed — wholesale-clears the float-keyed interpolation caches
        that have no per-hit LRU bookkeeping (``ProfileDB._stage_cache``
        and each ``LayerProfile``'s forward/backward memos).
        Everything is recomputed identically on the next query, so a
        periodic ``clear`` bounds a long sweep over unbounded distinct
        batch values without slowing the hot interpolation path."""
        self.partition.clear()
        self.comm.clear()
        self.evals.clear()
        self.het.clear()
        self.cdm.clear()
        self.prefixes.clear()
        self.kernel_plans.clear()
        self.timelines.clear()
        self.fills.clear()
        for profile in profiles:
            profile.reset_caches()

    @classmethod
    def cold(cls, profiles: Sequence["ProfileDB"] = ()) -> "PlannerCaches":
        """A fresh instance after :meth:`clear` of ``profiles``: empty
        stores over profiles whose interpolation memos were just reset,
        so a plan on it is as cold as the first one in the process."""
        caches = cls()
        caches.clear(profiles)
        return caches

    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters per store."""
        stores = [
            self.partition.stats(),
            self.comm.stats(),
            self.evals.stats(),
            self.het.stats(),
            self.cdm.stats(),
            self.prefixes.stats(),
            self.kernel_plans.stats(),
            self.timelines.stats(),
            *self.fills.stats(),
        ]
        return CacheStats(
            stores=tuple(stores),
            fill_plan_hits=self.fills.final_hits,
            fill_plan_misses=self.fills.final_misses,
        )

    # -- persistence ---------------------------------------------------------

    _PROFILE_STORES = ("het", "cdm", "prefixes")
    _FILL_STORES = ("expansions", "prefixes", "finals")

    def snapshot(self, path) -> dict:
        """Write the warm M-independent DP tables, the prefix/fill-shape
        entries and the timeline memo to ``path``.

        Entries are re-keyed by profile content fingerprint (see
        :meth:`ProfileDB.fingerprint`), so the snapshot can be restored
        in another process onto freshly re-profiled models.  The
        ``partition``/``evals``/``comm`` memos are deliberately *not*
        persisted: they rebuild in milliseconds from the warm tables,
        and their values pin report/timeline objects better re-derived.

        Each ``(key, value)`` entry is pickled on its own, so the file's
        bytes depend only on the entries, not on which key objects the
        live stores happen to share across entries.

        The profiles whose tables should be captured must still be
        alive: the per-profile stores are weak-keyed, so tables of an
        already-collected :class:`ProfileDB` are silently gone.

        Returns a per-store count of the entries written.
        """
        fingerprints: dict[int, str] = {}

        def fp_of(profile) -> str:
            # repro: allow[determinism] per-call identity memo only
            fp = fingerprints.get(id(profile))
            if fp is None:
                # repro: allow[determinism] snapshot stores fingerprints
                fp = fingerprints[id(profile)] = profile.fingerprint()
            return fp

        stores: dict[str, object] = {}
        counts: dict[str, int] = {}
        for name in self._PROFILE_STORES:
            store: ProfileKeyedStore = getattr(self, name)
            by_fp: dict[str, list] = {}
            for profile, key, value in store.items():
                by_fp.setdefault(fp_of(profile), []).append(_dump((key, value)))
            stores[name] = by_fp
            counts[name] = sum(len(v) for v in by_fp.values())
        entries = [_dump(entry) for entry in self.timelines.items()]
        stores["timelines"] = entries
        counts["timelines"] = len(entries)
        fills: dict[str, list] = {}
        for name in self._FILL_STORES:
            store = getattr(self.fills, name)
            kept = []
            for key, value in store.items():
                try:
                    kept.append(
                        _dump((_freeze(key, fp_of), _freeze(value, fp_of)))
                    )
                except _DeadRef:
                    continue
            fills[name] = kept
            counts[f"fills.{name}"] = len(kept)
        stores["fills"] = fills

        payload = {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "stores": stores,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return counts

    def load(self, path, profiles: Sequence["ProfileDB"]) -> dict:
        """Merge a snapshot written by :meth:`snapshot` into this
        instance, re-keying entries onto the given live ``profiles``.

        Entries whose fingerprint matches none of the given profiles
        are skipped (counted under ``"skipped"``), so a snapshot taken
        for several models restores cleanly for any subset.  Raises
        :class:`SnapshotError` for unknown format versions or corrupt
        payloads.

        Returns a per-store count of the entries restored.
        """
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as e:
            raise SnapshotError(f"cannot read cache snapshot {path}: {e}") from e
        if (
            not isinstance(payload, dict)
            or payload.get("magic") != SNAPSHOT_MAGIC
        ):
            raise SnapshotError(
                f"{path} is not a planner-cache snapshot (bad magic)"
            )
        version = payload.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported cache snapshot version {version!r} in {path}; "
                f"this build reads version {SNAPSHOT_VERSION}"
            )
        profile_by_fp = {p.fingerprint(): p for p in profiles}
        stores = payload["stores"]
        counts: dict[str, int] = {"skipped": 0}
        for name in self._PROFILE_STORES:
            store: ProfileKeyedStore = getattr(self, name)
            restored = 0
            for fp, blobs in stores.get(name, {}).items():
                profile = profile_by_fp.get(fp)
                if profile is None:
                    counts["skipped"] += len(blobs)
                    continue
                for key, value in _load_entries(blobs, path):
                    store.put(profile, key, value)
                    restored += 1
            counts[name] = restored
        timelines = _load_entries(stores.get("timelines", ()), path)
        for key, value in timelines:
            self.timelines.put(key, value)
        counts["timelines"] = len(timelines)
        for name in self._FILL_STORES:
            store = getattr(self.fills, name)
            restored = 0
            blobs = stores.get("fills", {}).get(name, ())
            for key, value in _load_entries(blobs, path):
                try:
                    store.put(
                        _thaw(key, profile_by_fp), _thaw(value, profile_by_fp)
                    )
                    restored += 1
                except _DeadRef:
                    counts["skipped"] += 1
            counts[f"fills.{name}"] = restored
        return counts


_default_caches: PlannerCaches | None = None
_default_lock = threading.Lock()


def default_caches() -> PlannerCaches:
    """The process-wide default :class:`PlannerCaches`.

    Library functions called without an explicit ``caches`` handle
    (including planners constructed with ``caches=None``) share this
    instance, preserving the cross-planner warm sharing the retired
    module-level globals provided.  Code that needs isolation — tests,
    ``repro snapshot``, workers seeded from a snapshot — passes its own
    instance instead and never touches this one.
    """
    global _default_caches
    if _default_caches is None:
        with _default_lock:
            if _default_caches is None:
                _default_caches = PlannerCaches()
    return _default_caches

"""DiffusionPipe's core: partitioning, bubble filling, planning."""

from .bubbles import (
    DEFAULT_MIN_BUBBLE_MS,
    Bubble,
    extract_bubbles,
    longest_bubble,
    total_bubble_device_time,
)
from .caches import (
    CacheStats,
    PlannerCaches,
    default_caches,
)
from .cross_iteration import (
    IterationEstimate,
    compose_iteration,
    packed_fill_strict_credit,
    strict_idle_in_bubbles,
)
from .elastic import (
    ElasticEvent,
    ElasticSession,
    apply_event,
)
from .fill_strategies import (
    FILL_STRATEGIES,
    FillStrategy,
    fill_strategy_names,
    get_fill_strategy,
    register_fill_strategy,
)
from .filling import (
    VALID_LOCAL_BATCHES,
    BubbleFiller,
    ComponentState,
    FillShapeCache,
    component_prefix_times,
    fill_one_bubble,
    full_batch_candidates,
    valid_partial_samples,
)
from .lru import LruStore, ProfileKeyedStore, StoreStats
from .instructions import Instruction, Op, format_streams, lower_timeline
from .partition import (
    PartitionContext,
    StageCosts,
    partition_backbone,
    pareto_insert,
)
from .partition_cdm import (
    CDM_COMM_SCALE,
    CDMPartitionContext,
    group_backbones,
    partition_cdm,
)
from .plan import (
    BubbleUtilization,
    ExecutionPlan,
    FillItem,
    FillReport,
    MemoryReport,
    PartitionPlan,
    StageAssignment,
)
from .planner import (
    DiffusionPipePlanner,
    EvaluatedConfig,
    PlannerOptions,
)

__all__ = [
    "DEFAULT_MIN_BUBBLE_MS",
    "Bubble",
    "extract_bubbles",
    "longest_bubble",
    "total_bubble_device_time",
    "IterationEstimate",
    "compose_iteration",
    "packed_fill_strict_credit",
    "strict_idle_in_bubbles",
    "FILL_STRATEGIES",
    "FillStrategy",
    "fill_strategy_names",
    "get_fill_strategy",
    "register_fill_strategy",
    "VALID_LOCAL_BATCHES",
    "BubbleFiller",
    "BubbleUtilization",
    "CacheStats",
    "ComponentState",
    "FillShapeCache",
    "LruStore",
    "ProfileKeyedStore",
    "StoreStats",
    "component_prefix_times",
    "default_caches",
    "fill_one_bubble",
    "full_batch_candidates",
    "valid_partial_samples",
    "Instruction",
    "Op",
    "format_streams",
    "lower_timeline",
    "PartitionContext",
    "StageCosts",
    "partition_backbone",
    "pareto_insert",
    "CDM_COMM_SCALE",
    "CDMPartitionContext",
    "group_backbones",
    "partition_cdm",
    "ExecutionPlan",
    "FillItem",
    "FillReport",
    "MemoryReport",
    "PartitionPlan",
    "StageAssignment",
    "DiffusionPipePlanner",
    "ElasticEvent",
    "ElasticSession",
    "EvaluatedConfig",
    "PlannerCaches",
    "PlannerOptions",
    "apply_event",
]

"""archscope: block-level profiling, reduction and evolutionary search over
mobile network design spaces."""

__version__ = "0.3.0"

from .errors import (
    ArchscopeError,
    ConfigError,
    CoverageError,
    EvaluationError,
    ValidationError,
)
from .spaces import (
    Architecture,
    BlockSpec,
    DesignSpace,
    Placement,
    UnitSpec,
    count_architectures,
    count_placements,
    deserialize,
    enumerate_architectures,
    iter_placements,
    list_spaces,
    load_space,
    save_space,
    serialize,
    validate_architecture,
)
from .sampling import sample_fixed, sample_uniform, spawn_rng
from .costs import (
    AccuracyModel,
    MetricEvaluator,
    accuracy_evaluator,
    macs,
    macs_evaluator,
    param_count,
    params_evaluator,
    synthetic_accuracy,
)
from .devices import (
    DeviceProfile,
    identity_profile,
    latency_evaluator,
    load_profile,
    profile_latency,
    save_profile,
)
from .tables import MetricTable, load_table, save_table, table_evaluate, table_evaluator
from .evaluators import parse_objectives, resolve_evaluator
from .profiler import (
    SampleSet,
    block_heatmap,
    draw_samples,
    estimate_block_mean,
    estimate_placement_stats,
    percentile,
    placement_sweep,
)
from .reduction import (
    ReductionRule,
    RuleSet,
    apply,
    load_ruleset,
    preset,
    save_ruleset,
)
from .search import (
    ParetoFront,
    SearchConfig,
    compare_frontiers,
    evolve,
    mutate,
    pareto_filter,
)

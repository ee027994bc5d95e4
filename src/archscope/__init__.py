"""archscope: block-level profiling, reduction and evolutionary search over
mobile network design spaces.

The public names below are imported from their modules on first use
(PEP 562), so importing one module, such as archscope.cli, does not import
every other."""

__version__ = "0.5.0"

# module -> the public names it defines
_EXPORTS = {
    "errors": "ArchscopeError ConfigError CoverageError EvaluationError ValidationError",
    "spaces": "Architecture BlockSpec DesignSpace Placement UnitSpec count_architectures "
              "count_placements deserialize enumerate_architectures iter_placements "
              "list_spaces load_space save_space serialize validate_architecture",
    "sampling": "sample_fixed sample_uniform stream",
    "costs": "AccuracyModel MetricEvaluator accuracy_evaluator macs_evaluator params_evaluator",
    "devices": "DeviceProfile identity_profile latency_evaluator load_profile save_profile",
    "tables": "MetricTable exact_table_from_pairs load_table save_table table_evaluator",
    "evaluators": "parse_objectives resolve_evaluator",
    "profiler": "SampleSet block_heatmap draw_samples estimate_block_mean "
                "estimate_placement_stats percentile placement_sweep",
    "reduction": "ReductionRule RuleSet apply load_ruleset preset save_ruleset",
    "search": "ParetoFront SearchConfig compare_frontiers evolve mutate pareto_filter",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})

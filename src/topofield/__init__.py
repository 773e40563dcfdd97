"""Topology-aware gridded-field toolkit.

Structural-channel extraction, sublevel cubical persistence with bottleneck
distance, dual-trend temporal samples, spatially adaptive fusion, training
loss kernels, and forecast-verification metrics, with a GFS binary format
and a batch CLI tying them together.

``import topofield`` loads no submodule. Each public name below is imported
from its defining module on first use (PEP 562), so a CLI command or a
script pays only for the modules it reaches.
"""

from importlib import import_module as _import_module

# Defining module -> the public names it exports here.
_EXPORTS = {
    "errors": ("TopofieldError",),
    "field": ("FieldStack", "NormStats", "ScalarField", "SplitSpec", "compute_norm_stats", "denormalize",
              "denormalize_stack", "normalize_stack"),
    "fusion": ("LambdaMap", "RegWeights", "apply_residual", "entropy_term", "fuse", "l_reg", "lead_map",
               "mean_balance", "positional_encoding", "tv"),
    "gfs": ("read_stack", "stack_from_bytes", "stack_to_bytes", "write_stack"),
    "losses": ("GateSchedule", "LossWeights", "composite_loss", "content_loss", "hinge_d", "hinge_g",
               "loss_report", "mae", "ssim", "topo_loss"),
    "metrics": ("BinSpec", "EvalRecord", "StratRow", "acc", "evaluate_stack", "kde_overlap", "lambda_bin_analysis",
                "lead_time_curves", "make_eval_record", "psnr", "rmse", "season_of", "seasonal_summary",
                "tail_overlap"),
    "order": (),
    "persistence": ("FILTRATION_CONFIG", "PersistenceDiagram", "bottleneck_distance", "diagrams_to_csv",
                    "filter_by_persistence", "read_diagram_csv", "sublevel_persistence",
                    "sublevel_persistence_reduction", "write_diagram_csv"),
    "structural": ("CriticalKind", "CriticalPoint", "MultiChannelField", "build_structural_channels",
                   "build_structural_stack", "classify_critical_points", "extract_saddle_contours"),
    "synthetic": ("BumpSpec", "ClimateSpec", "gaussian_mixture_field", "generate_climate", "oracle_lambda"),
    "temporal": ("Climatology", "DualSample", "LeadTime", "build_climatology", "build_sample",
                 "climatology_forecast", "interannual_dates", "intra_dates", "read_manifest", "sample_lead_times",
                 "validate_split", "write_manifest"),
}
# Public name -> defining module; a submodule's own name maps to itself.
_MODULE_OF = {**{name: module for module, names in _EXPORTS.items() for name in names},
              **{module: module for module in _EXPORTS}}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = module if name in _EXPORTS else getattr(module, name)  # later uses skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

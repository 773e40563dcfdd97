"""Topology-aware gridded-field toolkit.

Structural-channel extraction, sublevel cubical persistence with bottleneck
distance, dual-trend temporal samples, spatially adaptive fusion, training
loss kernels, and forecast-verification metrics, with a GFS binary format
and a batch CLI tying them together.
"""

from .errors import TopofieldError
from .field import (
    FieldStack,
    NormStats,
    ScalarField,
    SplitSpec,
    compute_norm_stats,
    denormalize,
    denormalize_stack,
    normalize_stack,
)
from .fusion import (
    LambdaMap,
    RegWeights,
    apply_residual,
    entropy_term,
    fuse,
    l_reg,
    lead_map,
    mean_balance,
    positional_encoding,
    tv,
)
from .gfs import read_stack, stack_from_bytes, stack_to_bytes, write_stack
from .losses import (
    GateSchedule,
    LossWeights,
    composite_loss,
    content_loss,
    hinge_d,
    hinge_g,
    loss_report,
    mae,
    ssim,
    topo_loss,
)
from .metrics import (
    BinSpec,
    EvalRecord,
    StratRow,
    acc,
    evaluate_stack,
    kde_overlap,
    lambda_bin_analysis,
    lead_time_curves,
    make_eval_record,
    psnr,
    rmse,
    season_of,
    seasonal_summary,
    tail_overlap,
)
from .persistence import (
    FILTRATION_CONFIG,
    PersistenceDiagram,
    bottleneck_distance,
    diagrams_to_csv,
    filter_by_persistence,
    read_diagram_csv,
    sublevel_persistence,
    sublevel_persistence_reduction,
    write_diagram_csv,
)
from .structural import (
    CriticalKind,
    CriticalPoint,
    MultiChannelField,
    build_structural_channels,
    build_structural_stack,
    classify_critical_points,
    extract_saddle_contours,
)
from .synthetic import BumpSpec, ClimateSpec, gaussian_mixture_field, generate_climate, oracle_lambda
from .temporal import (
    Climatology,
    DualSample,
    LeadTime,
    build_climatology,
    build_sample,
    climatology_forecast,
    interannual_dates,
    intra_dates,
    read_manifest,
    sample_lead_times,
    validate_split,
    write_manifest,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

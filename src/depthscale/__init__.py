"""Region-aware rescaling of relative depth maps to metric depth.

Depth foundation models predict geometry up to an unknown per-region
transform. This package fits those transforms from a handful of sparse
metric measurements, one segmentation region at a time, and merges the
results into a metric depth map. It also ships the global baselines,
the standard evaluation metrics, and a synthetic-scene generator whose
known distortions make exact recovery checkable to numerical precision.
"""

from . import io
from .errors import DegeneracyError, DepthScaleError, InputError
from .fitting import (
    FitParams,
    PairedObservations,
    apply_fit,
    fit_affine,
    fit_median_ratio,
    fit_planar,
    pair_observations,
    planar_terms,
)
from .grids import (
    DepthGrid,
    LabelGrid,
    SparseSamples,
    canonicalize_labels,
    grid_to_samples,
    samples_to_grid,
)
from .metrics import MetricReport, evaluate
from .normalize import NormalizationStats, affine_invariant_normalize, invert_depth, lower_median
from .pipeline import NYU_CLAMP, VOID_CLAMP, PipelineConfig, RegionReport, RegionReports, rescale
from .regions import (
    Expansion,
    RegionGraph,
    build_region_graph,
    expand_until,
    split_into_components,
)
from .synth import (
    Distortion,
    Plane,
    SceneSpec,
    generate_scene,
    random_scene,
    sample_beams,
    sample_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "io",
    "DegeneracyError",
    "DepthScaleError",
    "DepthGrid",
    "Distortion",
    "Expansion",
    "FitParams",
    "InputError",
    "LabelGrid",
    "MetricReport",
    "NormalizationStats",
    "NYU_CLAMP",
    "PairedObservations",
    "PipelineConfig",
    "Plane",
    "RegionGraph",
    "RegionReport",
    "RegionReports",
    "SceneSpec",
    "SparseSamples",
    "VOID_CLAMP",
    "affine_invariant_normalize",
    "apply_fit",
    "build_region_graph",
    "canonicalize_labels",
    "evaluate",
    "expand_until",
    "fit_affine",
    "fit_median_ratio",
    "fit_planar",
    "generate_scene",
    "grid_to_samples",
    "invert_depth",
    "lower_median",
    "pair_observations",
    "planar_terms",
    "random_scene",
    "rescale",
    "sample_beams",
    "sample_uniform",
    "samples_to_grid",
    "split_into_components",
]

"""Situation-conditioned active object localization.

Learns joint probabilistic models of object location, size, and shape from
annotated scenes, then searches new images by sampling object proposals from
distributions that are re-conditioned on every detection as it happens. A
benchmark harness compares the conditioned search against context-free
baselines by the median number of proposals needed to find every object.
"""

from .datagen import (
    GeneratorConfig,
    SituationAnnotation,
    default_generator_config,
    generate_synthetic,
    load_annotation,
    load_dataset,
    load_generator_config,
    render_annotation_image,
    save_annotation,
    save_generator_config,
    split_folds,
)
from .errors import (
    DatasetError,
    GenerationError,
    InsufficientDataError,
    InvalidInputError,
    NoOverlapError,
    ParseError,
    SituSearchError,
)
from .evaluation import (
    ExperimentReport,
    MethodResult,
    RunRecord,
    cumulative_curve,
    detection_interval_stats,
    emit_report,
    expand_method_spec,
    median_iterations,
    method_label,
    run_experiment,
)
from .gaussian import (
    LocationMap,
    MultivariateGaussian,
    condition,
    fit,
    rasterize_2d,
    uniform_map,
)
from .geometry import (
    BoundingBox,
    ImageFrame,
    crop_to_frame,
    iou,
    normalize_frame,
    to_normalized,
    to_original,
)
from .salience import combine, compute_salience, save_salience
from .search import (
    MethodConfig,
    ObjectProposal,
    RunResult,
    Workspace,
    evaluate_proposal_set,
    run_image,
    sample_proposal,
    score_proposal,
)
from .situation_model import (
    CategorySearchDist,
    SituationModel,
    learn,
    load_model,
    save_model,
)

__version__ = "0.1.0"

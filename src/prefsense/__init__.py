"""Sensitivity analysis of preference models.

Implements the logistic (Bradley-Terry) and K-tuple ranking
(Plackett-Luce) preference models, closed-form derivatives of one
preference probability with respect to others, the regions where those
derivatives exceed a threshold (with exact areas), independent numerical
oracles for every closed form, figure rasterization, controlled synthesis
of preference datasets, and maximum-likelihood score fitting from win
counts.
"""

from .errors import (
    DisconnectedDataError,
    DomainError,
    EnumerationSizeError,
    PrefsenseError,
    SaturationWarning,
    SingularityError,
    UnsupportedThresholdError,
    ValidationError,
    WitnessNotFoundError,
)
from .links import LOGISTIC, PROBIT, LinkFunction, LogisticLink, ProbitLink, get_link
from .models import (
    bt_compose,
    bt_prob,
    compose_pairwise,
    logit_normal_density,
    pl_prob,
    pl_prob_from_ratios,
    ratio_matrix,
)
from .oracles import (
    DEFAULT_SEED,
    MonteCarloEstimate,
    brute_force_pl,
    finite_diff,
    make_rng,
    mc_area_bt,
    mode_count,
    quad_area_pl,
)
from .sensitivity import (
    AreaComparison,
    BTRegionSlice,
    PLRegionBounds,
    Witness,
    bt_partial,
    bt_region_area,
    bt_region_slice,
    compare_bt_pl_areas,
    general_partial,
    pl_context,
    pl_partials,
    pl_region,
    pl_region_area,
    sensitivity_witness,
)
from .raster import RasterGrid, export, raster_bt, raster_pl, read_csv_grid
from .synth import (
    DatasetSpec,
    EmpiricalReport,
    PreferenceSample,
    empirical_check,
    generate,
    read_jsonl,
    sweep,
    write_jsonl,
    write_manifest,
)
from .fitting import (
    DivergenceWarning,
    FitResult,
    PairwiseCounts,
    counts_from_samples,
    fit_bt,
    load_counts,
    parse_counts_text,
    predict,
)

__version__ = "0.1.0"

"""Numerical laboratory for Besov regularity of stochastic-measure paths."""

__version__ = "0.1.0"

from .paths import (
    BesovParams,
    DyadicSet,
    Grid,
    SampledPath,
    StochasticMeasureSample,
    increments_of,
    measure_of,
    path_of,
    sample_from_path,
)
from .generators import GeneratorSpec, WeightFn
from .besov import BesovNormReport, ModulusCurve, besov_norm, lp_norm, modulus
from .criterion import (
    LevelSeriesReport,
    Verdict,
    kamont_series,
    level_term,
    reweight_identity_check,
)
from .lemma import (
    DisjointFamily,
    PZResult,
    WeightSequence,
    boundedness_probe,
    lemma_statistic,
    paley_zygmund_check,
    randomize_signs,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    run_alpha_sweep,
)

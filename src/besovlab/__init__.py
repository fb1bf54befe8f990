"""Numerical laboratory for Besov regularity of stochastic-measure paths."""

__version__ = "0.1.0"

from .paths import (
    BesovParams,
    Grid,
    SampledPath,
    StochasticMeasureSample,
    path_of,
)
from .generators import GeneratorSpec, WeightFn
from .besov import BesovNormReport, besov_norm, lp_norm
from .criterion import (
    LevelSeriesReport,
    Verdict,
    kamont_series,
)
from .lemma import (
    PZResult,
    WeightSequence,
    boundedness_probe,
    lemma_statistic,
    paley_zygmund_check,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    run_alpha_sweep,
)

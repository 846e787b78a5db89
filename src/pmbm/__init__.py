"""Multi-target tracking with Poisson multi-Bernoulli mixture filters under
arbitrary (non-Poisson, possibly structured) clutter.

The public surface: Gaussian building blocks (`densities`), measurement
models (`measmodel`), clutter families (`clutter`), hypothesis structures
and counting (`hypotheses`), the filtering recursion (`filtering`), the
Gibbs association sampler (`gibbs`), the GOSPA metric (`gospa`), the
simulation harness (`harness`), and brute-force self-checks (`oracle`).
"""

from .clutter import (
    ClutterCache,
    CompositeClutter,
    ClutterSource,
    IidClusterClutter,
    NegBinomialCardinality,
    PoissonCardinality,
    PoissonClutter,
    Region,
    nb_from_mean_dispersion,
    poisson_nb_kld,
)
from .densities import (
    GaussianDensity,
    GaussianMixture,
    LinearGaussianMotion,
    LinearGaussianSensor,
)
from .errors import ConfigurationError, NumericalError, PmbmError, SizeLimitError
from .filtering import (
    FilterConfig,
    PmbmDensity,
    estimate,
    initial_density,
    predict,
    project_to_pmb,
    reduce,
    update,
)
from .gibbs import AssociationProblem, enumerate_associations, run_gibbs
from .gospa import GospaConfig, GospaResult, gospa
from .harness import ScenarioConfig, experiment, load_scenario, save_scenario
from .hypotheses import (
    BernoulliTree,
    GlobalHypothesis,
    LocalHypothesis,
    MeasurementPair,
    bell,
    count_hypotheses,
    stirling2,
)
from .measmodel import ExtendedTargetModel, PointTargetModel

__all__ = [
    "AssociationProblem",
    "BernoulliTree",
    "ClutterCache",
    "CompositeClutter",
    "ClutterSource",
    "ConfigurationError",
    "ExtendedTargetModel",
    "FilterConfig",
    "GaussianDensity",
    "GaussianMixture",
    "GlobalHypothesis",
    "GospaConfig",
    "GospaResult",
    "IidClusterClutter",
    "LinearGaussianMotion",
    "LinearGaussianSensor",
    "LocalHypothesis",
    "MeasurementPair",
    "NegBinomialCardinality",
    "NumericalError",
    "PmbmDensity",
    "PmbmError",
    "PointTargetModel",
    "PoissonCardinality",
    "PoissonClutter",
    "Region",
    "ScenarioConfig",
    "SizeLimitError",
    "bell",
    "count_hypotheses",
    "enumerate_associations",
    "estimate",
    "experiment",
    "gospa",
    "initial_density",
    "load_scenario",
    "nb_from_mean_dispersion",
    "poisson_nb_kld",
    "predict",
    "project_to_pmb",
    "reduce",
    "run_gibbs",
    "save_scenario",
    "stirling2",
    "update",
]

__version__ = "0.1.0"

"""Capacity allocation analysis for neural-network layers.

The package answers one question at several levels of the stack: given a
trained readout with a limited parameter budget, where in the input space
do those parameters end up constraining the model?

- :mod:`capnet.core`: capacity bases, subspace selectors, spatial profiles.
- :mod:`capnet.augment`: the augmented input space that linearizes one
  non-linear layer, and the decoupling coefficient of an activation.
- :mod:`capnet.propagate`: column-stochastic backward propagation of
  capacity through a chain of layers.
- :mod:`capnet.deeplimit`: the drift-diffusion limit of deep residual
  chains and its Gaussian closed form.
- :mod:`capnet.analyze`: effective receptive fields and path-weight
  shattering.
- :mod:`capnet.oracle`: seeded Monte Carlo measurements that validate the
  closed forms.
- :mod:`capnet.cli`: the ``capnet`` command.
"""

from capnet.analyze import (
    ErfReport,
    ShatterReport,
    enumerate_path_weights,
    erf_profile,
    max_path_weight,
    shatter_analysis,
    uniform_path_weight,
)
from capnet.augment import (
    Activation,
    DecouplingReport,
    augmented_capacity_basis,
    augmented_spatial_profile,
    build_augmented_covariance,
    build_augmented_projection,
    decoupling_nu,
    estimate_nu_monte_carlo,
)
from capnet.core import (
    CapacityBasis,
    CovarianceMatrix,
    ParamMap,
    ProjectionMatrix,
    SpatialCapacity,
    SubspaceSelector,
    capacity_of_subspace,
    gram_capacity_basis,
    orthonormal_basis,
    spatial_profile,
)
from capnet.deeplimit import (
    ConvergenceReport,
    DeepLimitConfig,
    PdeField,
    ResidualGenerator,
    StabilityError,
    compare_markov_pde,
    evolve_markov,
    gaussian_solution,
)
from capnet.oracle import (
    EmpiricalReport,
    ExperimentConfig,
    PseudoRandomSign,
    empirical_sigma_tilde,
    empirical_spatial_capacity,
    fit_optimal_last_layer,
    pseudo_random_eta,
    stationarity_noise_floor,
    verify_stationarity,
)
from capnet.propagate import (
    Layer,
    LayerChain,
    PropagationOperator,
    differential_propagation_matrix,
    propagate_chain,
    propagate_single,
    propagation_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "CapacityBasis",
    "ConvergenceReport",
    "CovarianceMatrix",
    "DecouplingReport",
    "DeepLimitConfig",
    "EmpiricalReport",
    "ErfReport",
    "ExperimentConfig",
    "Layer",
    "LayerChain",
    "ParamMap",
    "PdeField",
    "ProjectionMatrix",
    "PropagationOperator",
    "PseudoRandomSign",
    "ResidualGenerator",
    "ShatterReport",
    "SpatialCapacity",
    "StabilityError",
    "SubspaceSelector",
    "augmented_capacity_basis",
    "augmented_spatial_profile",
    "build_augmented_covariance",
    "build_augmented_projection",
    "capacity_of_subspace",
    "compare_markov_pde",
    "decoupling_nu",
    "differential_propagation_matrix",
    "empirical_sigma_tilde",
    "empirical_spatial_capacity",
    "enumerate_path_weights",
    "erf_profile",
    "estimate_nu_monte_carlo",
    "evolve_markov",
    "fit_optimal_last_layer",
    "gaussian_solution",
    "gram_capacity_basis",
    "max_path_weight",
    "orthonormal_basis",
    "propagate_chain",
    "propagate_single",
    "propagation_matrix",
    "pseudo_random_eta",
    "shatter_analysis",
    "spatial_profile",
    "stationarity_noise_floor",
    "uniform_path_weight",
    "verify_stationarity",
]

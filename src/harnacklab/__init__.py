"""Numerical laboratory for Harnack-type inequalities of OU semigroups
driven by Gaussian and compound-Poisson noise."""

from .analytic import GaussianMeasure, invariant_measure
from .control import GammaNorm, NullControl, gamma_norm, gamma_operator_norm, h_bound, min_energy_control, weighted_control
from .linops import PsdFactorization, SemigroupSnapshot, matrix_exponential, psd_sqrt_pinv
from .model import (
    CompoundPoissonSpec,
    HFunction,
    OuLevyModel,
    SemilinearSpec,
    build_adjoint,
    verify_h_condition,
)
from .sampler import (
    GirsanovWeight,
    McEstimate,
    RngStream,
    estimate_semigroup,
    girsanov_weight,
    sample_coupled_pair,
    semilinear_estimate,
)
from .verify import (
    CheckReport,
    check_entropy_cost,
    check_gradient_estimate,
    check_harnack,
    check_hwi,
    check_log_harnack,
    check_rho_moments,
    check_semilinear_harnack,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Variance hyperparameter estimation for semiparametric GP regression.

The error variance and noise variance of a Gaussian-process regression
model with additive noise are estimated by maximizing the marginal
likelihood, reduced to univariate root-finding in the noise-to-error
variance ratio.  A direct Nelder-Mead optimizer over the raw variances is
kept as a comparison baseline.
"""

from .analysis import (AsymptoteCoefficients, SpectrumSummary,
                       asymptote_coefficients, asymptote_d_ell,
                       asymptote_roots, derivative_bounds, ell_gap_bound,
                       search_interval, spectrum_bounds)
from .datagen import Dataset, generate_synthetic, load_dataset, save_dataset
from .design import BasisSpec, DesignMatrix, build_design, n_basis
from .errors import (BracketError, ConvergenceError, InputError, ModelError,
                     NumericError, SolverError)
from .estimation import (EstimateConfig, EstimationReport, Prior, PriorSpec,
                         chandrupatla_root, direct_optimize, direct_variances,
                         estimate_variances, inverse_square_priors,
                         nelder_mead, profile_optimize, uniform_priors)
from .kernels import (CorrelationKernel, CorrelationMatrix,
                      correlation_matrix, kernel_value)
from .likelihood import (LikelihoodEval, d2_ell_deta2, d_ell_deta,
                         ell_derivative_generic, log_marginal_likelihood,
                         profile_ell, sigma2_hat, trace_provider)
from .model import GpModel, HyperParams, Solver
from .traces import (TraceInterpolant, eval_tau, fit_tau_interpolant,
                     trace_inv_hutchinson)

__version__ = "0.1.0"

__all__ = [
    "AsymptoteCoefficients", "BasisSpec", "BracketError", "ConvergenceError",
    "CorrelationKernel", "CorrelationMatrix", "Dataset", "DesignMatrix",
    "EstimateConfig", "EstimationReport", "GpModel", "HyperParams",
    "InputError", "LikelihoodEval", "ModelError", "NumericError", "Prior",
    "PriorSpec", "Solver", "SolverError", "SpectrumSummary",
    "TraceInterpolant",
    "asymptote_coefficients", "asymptote_d_ell", "asymptote_roots",
    "build_design", "chandrupatla_root", "correlation_matrix",
    "d2_ell_deta2", "d_ell_deta", "derivative_bounds", "direct_optimize",
    "direct_variances", "ell_derivative_generic", "ell_gap_bound",
    "estimate_variances", "eval_tau", "fit_tau_interpolant",
    "generate_synthetic", "inverse_square_priors", "kernel_value",
    "load_dataset", "log_marginal_likelihood", "n_basis", "nelder_mead",
    "profile_ell", "profile_optimize", "save_dataset", "search_interval",
    "sigma2_hat", "spectrum_bounds", "trace_inv_hutchinson",
    "trace_provider", "uniform_priors",
]

"""Particle filtering with singular importance weights.

A sequential Monte Carlo engine over abstract state-space models and
importance proposals, weight-moment diagnostics for proposals whose
weights are pointwise unbounded, an exact dense-grid reference filter,
and a convergence-rate experiment harness with a CLI.  The Kalman
reference that validates the engine is test code, in `tests/lineargauss.py`.
"""

from .convergence import ConvergenceReport, ExperimentConfig, RateFit, \
    fit_loglog_slope, run_convergence_study
from .cox import CoxParams, GammaProposal, ObservationSeries, \
    cox_likelihood_logdensity, cox_transition_logdensity, gamma_logdensity, \
    gamma_propose, make_cox_model, make_gamma_proposal, simulate
from .engine import run_filter, run_filters
from .errors import PfconvError
from .gridfilter import grid_predict, run_cox_grid_filter
from .model import Proposal, StateSpaceModel, TestFunction, make_test_function
from .moments import MomentCondition, check_cox_moment_condition, quadrature_weight_moment
from .particles import FilterRun
from .resampling import ResampleScheme, get_scheme
from .rng import RngStream

__version__ = "0.1.0"

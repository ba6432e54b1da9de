"""Transient diffusion inversion built on shared-pole rational approximants.

Forward responses, Jacobian actions and adjoint actions all reduce to one
set of complex shifted solves per model, independent of the number of time
channels, which makes the Gauss-Newton inversion embarrassingly parallel
over poles.
"""

from .forward import forward_response, response_from_pole_solutions
from .inversion import (InversionConfig, InversionState, IterationRecord,
                        LineSearchResult, LsqrConfig, chi_squared,
                        default_lambda0, gn_step, line_search, run_inversion)
from .mesh import (AnomalySpec, Grid, Model, Problem, ProblemSpec, SourceSpec,
                   assemble_M, build_problem, build_source, dM_contract,
                   parse_problem_file, spectral_bound)
from .pool import PoleWorkerPool, default_worker_count
from .rba import (FitConfig, FitReport, PoleCollisionError, RationalApproximant,
                  TimeChannels, fit_common_pole, load_approximant, refit_residues,
                  save_approximant, validate_fit)
from .regularization import RegOperator, build_reg, reg_value_grad
from .reporting import (TimingModel, consolidate_report, fit_timing_model,
                        write_run_artifacts)
from .sensitivity import JacobianOperator, TaylorReport, adjoint_test, taylor_test
from .shifted import (CacheMissError, ShiftedFactorCache, SolveError,
                      factorize_all_poles, solve_all_poles)
from .synthetic import DataSet, NoiseSpec, load_dataset, make_dataset, save_dataset

__version__ = "0.1.0"

"""Count-based event-history models for mass action with a shared
latent lead time: likelihoods, profiled fitting, simulation, and
ensemble diagnostics."""

from .analysis import (DynamicsReport, Spectrum, cross_section,
                       dynamics_report, mean_curve, pca_cumvar,
                       trajectory_covariance, write_report)
from .core import (CountDataset, FitResult, ModelKind, ReParams, SsbParams,
                   Trajectory, fit_result_from_dict, fit_result_to_dict,
                   format_count_csv, params_from_dict, params_to_dict,
                   parse_count_csv, read_count_csv, validate_params,
                   write_count_csv)
from .errors import (CsvFormatError, DomainError, GridMismatch,
                     InsufficientTimes, MassHistError, MissingBaseline,
                     NoFiniteMle, NotSymmetric, RejectionBudgetExceeded,
                     SingularInformation, SizeMismatch)
from .estimation import (FitConfig, GridAxis, GridRefineResult, GridSpec,
                         bic_delta, current_status_loglik,
                         default_logistic_grid, fit_model, fit_models,
                         grid_refine_max, grid_search_logistic,
                         initial_weibull_estimate, observed_information,
                         profile_iterate, std_errors_from_information)
from .likelihood import (CountPmf, McCountPmf, delta_factor,
                         frozen_dataset_loglik, lrm_count_logpmf, lrm_loglik,
                         marginal_count_pmf, mc_count_pmf, re_loglik,
                         ssb_count_loglik, ssb_dataset_loglik)
from .quadrature import (QuadConfig, QuadResult, integrate_weibull,
                         weibull_cdf, weibull_logpdf, weibull_logsf,
                         weibull_ppf)
from .simulation import (SCHEDULE_PRESETS, ProtocolResult, SimConfig,
                         action_time_from_uniform, lead_time_from_uniform,
                         run_protocol, sacrifice_sample, simulate_design,
                         simulate_re_trajectory, simulate_trajectory,
                         substream)

__version__ = "0.1.0"

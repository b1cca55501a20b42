"""Recovery under ReLU generative priors and the geometry that makes it work."""

from .conditions import (CONDITION_KINDS, ConditionReport, LipschitzResult,
                         PatternCount, activation_gram_mc,
                         convexity_direction_check, lambda_concentration,
                         lipschitz_check, log_piece_count_bounds,
                         masked_gram_deviation, noise_coupling,
                         norm_angle_report, omega, pattern_count_exact,
                         r2wdc_deviation, r2wdc_tuple_value, reports_csv_text,
                         rric_deviation, wdc_deviation, write_reports_csv)
from .errors import DivergenceError, InfeasibleError, ValidationError
from .geometry import (AngleProfile, DistortionMatrix, angle_between, angle_profile,
                       g_theta, q_lipschitz_gap, q_matrix, spectral_norm)
from .harness import (ExperimentSpec, experiment_csv_text, parse_experiment_config,
                      run_condition_suite, run_experiment, summary_csv_text,
                      write_experiment_csvs)
from .net import (DimsRecipe, GenerativeNet, LinearPath, apply_masked_t,
                  contractive_example_dims, forward, linear_path, load_net,
                  preactivations, sample_gaussian_net, save_net)
from .solvers import (KINDS, Instance, SolverConfig, SolveTrace, load_instance,
                      loss, make_instance, save_instance, solve, subgradient)

__version__ = "0.1.0"

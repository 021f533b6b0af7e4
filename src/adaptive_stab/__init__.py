"""Certainty-equivalence adaptive control simulation and numeric stability
certification for discrete-time nonlinear stochastic systems with linearly
parameterised uncertainty.
"""

from .bounds import (BoundInputs, BoundSchedule, ComparisonFunctionSet,
                     StabilityEnvelope, check_condition, compute_schedule,
                     contained_time, dense_times, error_envelope,
                     gramian_upper, noise_bound, regressor_bound,
                     stability_envelope, state_bound)
from .certify import (ExcitationCertificate, LyapunovCertificate,
                      RpiCertificate, check_lyapunov, estimate_policy_lipschitz,
                      excitation_from_moments, lyapunov_drift, moment_scan,
                      rpi_check)
from .errors import (CertificationError, ConfigError, ContractViolation,
                     MissingPrerequisite)
from .harness import (EnsembleStats, ExperimentConfig, coverage,
                      quantile_series, run_ensemble, run_trial, wilson_interval)
from .kfuncs import MonotoneFn, exp_minus_one, identity, numeric_inverse, scaled_identity
from .linalg import pinv, reachability_matrix, sat, spectral_norm
from .noise import NoiseModel
from .plants import (LinearExampleParams, PlantBundle, PwaExampleParams,
                     build_linear, build_pwa, compute_h)
from .regions import RegionDescriptor
from .system import (PolicyFamily, SystemModel, Trajectory, make_ce_sat_policy,
                     policy_ce_sat, split_theta, step, subsample_linear,
                     verify_replay)

__version__ = "0.1.0"

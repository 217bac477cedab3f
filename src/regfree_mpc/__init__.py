"""Regulator-equation-free output regulation MPC.

Library plus CLI for constrained nonlinear output regulation by receding
horizon control: output-only, input-regularized, look-ahead and incremental
stage costs, the periodic input-memory augmentation, linear-system
certificates and horizon bounds, and observer-based noisy error feedback.
"""

from .augmentation import augment_linear, cyclic_matrices, step_memory, wrap_memory
from .errors import (ConfigError, DegenerateSystemError, DetectabilityError,
                     DomainError, NumericalError, ObservabilityError,
                     RegfreeMpcError, ResonanceError, ShapeError, StabilityError)
from .estimation import ObserverConfig, ObserverState, ekf_jacobians, observer_step
from .linear_analysis import (AnalysisReport, BoundsReport, NonresonanceReport,
                              QuadraticCertificate, RegulatorSolution,
                              analyze_linear, augmented_pair,
                              classical_regulator_feedback, dare,
                              epsilon_o_generalized_eig, horizon_bounds,
                              linear_ioss_certificate, lqr_gain, nonresonance,
                              observability_constant, pbh_detectable,
                              pbh_stabilizable, relative_degree_and_zeros,
                              sigma_metric_dare, smallest_observability_window,
                              solve_regulator)
from .models import (LinearSystem, SimNoiseSpec, SystemModel, academic_example,
                     cement_mill, cement_mill_regulator, load_lti, rk4_discretize)
from .mpc import (MpcConfig, MpcController, OcpSolution, SolverSettings,
                  assemble, solve)
from .simulation import (MetricsReport, ScenarioSpec, SimTrace, decrease_check,
                         metrics, run, value_series)

__version__ = "0.1.0"

"""Poisoning attacks and subset-selection defenses for linear regression."""

from .attack import (
    AttackConfig,
    AttackState,
    DegenerateCleanLossError,
    dispersion_objective,
    nopt_attack,
    objective_gradient,
    opt_attack,
    theta_jacobian,
)
from .data import (
    Dataset,
    NormalizationSpec,
    SplitTriple,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    merge,
    split_three,
)
from .defend import (
    ComplexityEstimate,
    DefenseResult,
    ProdaConfig,
    compute_beta,
    estimate_complexity,
    proda_defend,
    trim_defend,
)
from .harness import ExperimentSpec, aggregate, emit_plot, run_cell, run_sweep
from .regress import FitReport, Moments, RegressionModel, fit, loss, mse, select_lambda

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackState",
    "ComplexityEstimate",
    "Dataset",
    "DefenseResult",
    "DegenerateCleanLossError",
    "ExperimentSpec",
    "FitReport",
    "Moments",
    "NormalizationSpec",
    "ProdaConfig",
    "RegressionModel",
    "SplitTriple",
    "SyntheticSpec",
    "aggregate",
    "compute_beta",
    "dispersion_objective",
    "emit_plot",
    "estimate_complexity",
    "fit",
    "generate_synthetic",
    "load_csv",
    "loss",
    "merge",
    "mse",
    "nopt_attack",
    "objective_gradient",
    "opt_attack",
    "proda_defend",
    "run_cell",
    "run_sweep",
    "select_lambda",
    "split_three",
    "theta_jacobian",
    "trim_defend",
]

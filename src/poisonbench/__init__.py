"""Poisoning attacks and subset-selection defenses for linear regression.

The names in `__all__` load their module on first use (PEP 562), so
importing the package, or the CLI's `report`, imports no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module: the names the package exports from it
    "attack": ("AttackConfig", "AttackState", "DegenerateCleanLossError", "dispersion_objective",
               "nopt_attack", "objective_gradient", "opt_attack", "theta_jacobian"),
    "data": ("Dataset", "NormalizationSpec", "SplitTriple", "SyntheticSpec", "generate_synthetic",
             "load_csv", "merge", "split_three"),
    "defend": ("ComplexityEstimate", "DefenseResult", "ProdaConfig", "compute_beta",
               "estimate_complexity", "proda_defend", "trim_defend"),
    "harness": ("ExperimentSpec", "run_cell", "run_sweep"),
    "records": ("aggregate", "emit_plot"),
    "regress": ("FitReport", "Moments", "RegressionModel", "fit", "loss", "mse", "select_lambda"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:  # a submodule name falls through to the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})

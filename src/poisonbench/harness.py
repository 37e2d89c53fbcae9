"""Experiment orchestration: seeded sweeps over poisoning rates, group
sizes, model families, and repeats, one record per cell (`records` writes
them and builds the summary, charts and report).

Per-cell seeds are derived by hashing the master seed with the cell
coordinates, so any subset of a sweep reproduces bit-identically. Reported
MSEs are computed on the clean training fold (the poison is excluded from
evaluation); test-fold MSEs are recorded alongside.

The summary's time columns follow the iteration-count timing convention
(work units divided by a fixed 1e9 iterations per second), which is
deterministic; raw wall-clock measurements stay in the per-cell records.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .attack import AttackConfig, nopt_attack, opt_attack
from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    merge,
    poison_count,
    split_three,
)
from .defend import ProdaConfig, proda_defend, subset_size, trim_defend
from .records import ATTACKS, DEFAULT_ALPHA_GRID, DEFAULT_SEED, DEFENSES, trim_worst_case_text
# perfbench's tracer wraps these at harness.<name>, so harness keeps binding them
from .records import aggregate, emit_plot, read_records, summary_csv, write_records  # noqa: F401
from .regress import fit, mse, select_lambda

RATE_ITERS_PER_S = 1e9  # iteration-count timing conversion


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: dataset source, model families, attack/defense choices,
    and the grids to iterate."""

    dataset_name: str = "synthetic"
    csv_path: str | None = None
    target_column: str | None = None
    categorical: tuple[str, ...] = ()
    synthetic: SyntheticSpec | None = None
    families: tuple[str, ...] = ("ols",)
    lambda_policy: str | float = "select"  # "select" on the validation fold, or a fixed value
    rho: float = 0.5
    attack: str = "none"
    defense: str = "none"
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    gamma_grid: tuple[int, ...] = ()
    alpha_assumed: float | None = None  # None: defender knows the cell's real alpha
    repeats: int = 5
    master_seed: int = DEFAULT_SEED
    max_features: int | None = None
    train_subsample: int | None = None
    surrogate_fraction: float | None = None
    attack_max_outer: int = 30
    defense_epsilon: float = 1e-5
    defense_max_iters: int = 100

    def __post_init__(self):
        if (self.csv_path is None) == (self.synthetic is None):
            raise ValueError("exactly one of csv_path and synthetic must be given")
        if self.csv_path is not None and self.target_column is None:
            raise ValueError("target_column is required with csv_path")
        if self.attack not in ATTACKS:
            raise ValueError(f"attack must be one of {ATTACKS}")
        if self.defense not in DEFENSES:
            raise ValueError(f"defense must be one of {DEFENSES}")
        if not self.families:
            raise ValueError("families must be nonempty")
        if not self.alpha_grid:
            raise ValueError("alpha_grid must be nonempty")
        if self.defense == "proda" and not self.gamma_grid:
            raise ValueError("gamma_grid must be nonempty for the proda defense")
        if self.alpha_assumed is not None and not 0.0 <= self.alpha_assumed < 1.0:
            raise ValueError(f"alpha_assumed must be in [0, 1), got {self.alpha_assumed}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError(f"max_features must be >= 1, got {self.max_features}")
        if self.train_subsample is not None and self.train_subsample < 1:
            raise ValueError(f"train_subsample must be >= 1, got {self.train_subsample}")
        fraction = self.surrogate_fraction
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ValueError(f"surrogate_fraction must be in (0, 1], got {fraction}")
        lam = self.lambda_policy
        if lam != "select" and not (isinstance(lam, (int, float)) and 0.0 <= lam < math.inf):
            raise ValueError(f"lambda_policy must be 'select' or a finite float >= 0, got {lam!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        # the cells build these configs; building them here rejects a bad
        # grid value before any cell runs
        if self.attack != "none":
            for alpha in self.alpha_grid:
                AttackConfig(alpha, max_outer_iters=self.attack_max_outer)
        if self.defense == "proda":
            for gamma in self.gamma_grid:
                ProdaConfig(gamma, epsilon=self.defense_epsilon)
        if self.defense == "trim" and self.defense_max_iters < 1:
            raise ValueError(f"defense_max_iters must be >= 1, got {self.defense_max_iters}")


def cell_seed(master_seed: int, *coords) -> int:
    """Stable 63-bit seed from the master seed and cell coordinates."""
    key = "|".join([str(master_seed)] + [repr(c) for c in coords])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def load_base_dataset(spec: ExperimentSpec) -> Dataset:
    if spec.synthetic is not None:
        ds, _ = generate_synthetic(spec.synthetic)
    else:
        ds, _ = load_csv(spec.csv_path, spec.target_column, spec.categorical)
    if spec.max_features is not None and spec.max_features < ds.d:
        ds = Dataset(
            ds.features[:, : spec.max_features].copy(),
            ds.responses.copy(),
            ds.feature_names[: spec.max_features],
            ds.provenance,
        )
    return ds


def _resolve_lambda(spec, family, train, validation):
    if family == "ols":
        return 0.0
    if spec.lambda_policy == "select":
        return select_lambda(train, validation, family, rho=spec.rho)
    return float(spec.lambda_policy)


def run_cell(
    spec: ExperimentSpec,
    family: str,
    alpha: float,
    gamma: int | None,
    repeat: int,
    base: Dataset | None = None,
) -> dict:
    """One (dataset, family, attack, defense, alpha, gamma, repeat) cell.

    Returns the record dict; failures land in the record's error field."""
    seed = cell_seed(
        spec.master_seed, spec.dataset_name, family, spec.attack, spec.defense, alpha, gamma, repeat
    )
    alpha_assumed = spec.alpha_assumed
    if alpha_assumed is None:
        alpha_assumed = alpha if spec.attack != "none" else 0.0
    record = {
        "record_type": "cell",
        "dataset": spec.dataset_name,
        "family": family,
        "attack": spec.attack,
        "defense": spec.defense,
        "alpha": alpha,
        "alpha_assumed": alpha_assumed if spec.defense != "none" else None,
        "gamma": gamma,
        "repeat": repeat,
        "seed": seed,
    }
    try:
        ds = base if base is not None else load_base_dataset(spec)
        split = split_three(ds, seed)
        train, validation, test = split.train, split.validation, split.test
        sub_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        if spec.train_subsample is not None and train.n > spec.train_subsample:
            idx = sub_rng.choice(train.n, size=spec.train_subsample, replace=False)
            train = train.take(np.sort(idx))

        lam = _resolve_lambda(spec, family, train, validation)
        record["lambda"] = lam

        clean_model = fit(train, family, lam, rho=spec.rho).converged_model("clean fit")
        record["mse_clean"] = mse(train, clean_model)
        record["mse_clean_test"] = mse(test, clean_model)

        training_pool = train
        if spec.attack != "none":
            view = train
            n_poison = None
            if spec.surrogate_fraction is not None:
                k = max(train.d + 1, int(round(spec.surrogate_fraction * train.n)))
                view_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
                view = train.take(np.sort(view_rng.choice(train.n, size=min(k, train.n), replace=False)))
                n_poison = poison_count(train.n, alpha)
            cfg = AttackConfig(
                alpha=alpha,
                max_outer_iters=spec.attack_max_outer,
                seed=cell_seed(seed, "attack"),
                n_poison=n_poison,
            )
            attack_fn = nopt_attack if spec.attack == "nopt" else opt_attack
            t0 = time.perf_counter()
            state = attack_fn(view, cfg, family, lam, rho=spec.rho)
            record["wall_time_attack_s"] = time.perf_counter() - t0
            record["attack_iterations"] = state.iterations
            record["attack_converged"] = state.converged
            record["attack_refits"] = state.refit_count
            record["time_attack_s"] = state.refit_count * train.n / RATE_ITERS_PER_S
            poisoned, _ = merge(train, state.poison)
            poisoned_model = fit(poisoned, family, lam, rho=spec.rho).converged_model("poisoned fit")
            record["mse_poisoned"] = mse(train, poisoned_model)
            # the collective-training-set MSE is the attack figure of merit
            record["mse_poisoned_trainset"] = mse(poisoned, poisoned_model)
            record["mse_poisoned_test"] = mse(test, poisoned_model)
            training_pool = poisoned

        if spec.defense != "none":
            defense_seed = cell_seed(seed, "defense")
            t0 = time.perf_counter()
            if spec.defense == "proda":
                dcfg = ProdaConfig(int(gamma), spec.defense_epsilon, alpha_assumed, defense_seed)
                result = proda_defend(training_pool, dcfg, family, lam, rho=spec.rho)
            else:
                result = trim_defend(
                    training_pool, alpha_assumed, family, lam, rho=spec.rho,
                    max_iters=spec.defense_max_iters, seed=defense_seed,
                )
            record["wall_time_defense_s"] = time.perf_counter() - t0
            if spec.defense == "proda":
                record["beta_used"] = result.beta_used
            else:
                record["trim_worst_case_iterations"] = trim_worst_case_text(
                    training_pool.n, subset_size(training_pool.n, alpha_assumed)
                )
            record["defense_iterations"] = result.iterations
            # Proda's iterations are its beta trials, TRIM's its C-steps
            record["time_defense_s"] = result.iterations * training_pool.n / RATE_ITERS_PER_S
            record["mse_defended"] = mse(train, result.model)
            record["mse_defended_test"] = mse(test, result.model)
    except Exception as exc:  # noqa: BLE001 - a failed cell is recorded, not dropped
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _cells(spec: ExperimentSpec):
    gammas = spec.gamma_grid if spec.defense == "proda" else (None,)
    for family in spec.families:
        for alpha in spec.alpha_grid:
            for gamma in gammas:
                for repeat in range(spec.repeats):
                    yield family, alpha, gamma, repeat


def _run_task(task):
    return run_cell(*task)  # looked up at call time, so a wrapper patched onto run_cell runs


def run_sweep(spec: ExperimentSpec, jobs: int = 1):
    """Iterate the full Cartesian product of grids x repeats, yielding one
    record per cell in deterministic order. The base dataset is loaded once,
    here, so a load failure raises; `jobs` >= 2 runs the cells in at most
    min(jobs, cells) worker processes."""
    base = load_base_dataset(spec)
    tasks = [(spec, *cell, base) for cell in _cells(spec)]
    if jobs < 2 or len(tasks) < 2:
        yield from map(_run_task, tasks)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(_run_task, tasks, chunksize=1)

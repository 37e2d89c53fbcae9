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
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .attack import AttackConfig, nopt_attack, opt_attack
from .data import (
    Dataset,
    SyntheticSpec,
    _integer,
    _within,
    load_source,
    merge,
    poison_count,
    source_name,
    split_three,
)
from .defend import ProdaConfig, proda_defend, subset_size, trim_defend
from .records import ATTACKS, DEFAULT_ALPHA_GRID, DEFAULT_SEED, DEFENSES, FAMILIES, trim_worst_case_text
# perfbench's tracer wraps these at harness.<name>, so harness keeps binding them
from .records import aggregate, emit_plot, read_records, summary_csv, write_records  # noqa: F401
from .regress import fit, mse, select_lambda

RATE_ITERS_PER_S = 1e9  # iteration-count timing conversion


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: dataset source, model families, attack/defense choices,
    and the grids to iterate."""

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
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown families {unknown} (choose from {FAMILIES})")
        if not self.alpha_grid:
            raise ValueError("alpha_grid must be nonempty")
        if self.defense == "proda" and not self.gamma_grid:
            raise ValueError("gamma_grid must be nonempty for the proda defense")
        if self.alpha_assumed is not None:
            _within("alpha_assumed", self.alpha_assumed, 0, 1, "[)")
        _integer("repeats", self.repeats, 1)
        if self.max_features is not None:
            _integer("max_features", self.max_features, 1)
        if self.train_subsample is not None:
            _integer("train_subsample", self.train_subsample, 1)
        if self.surrogate_fraction is not None:
            _within("surrogate_fraction", self.surrogate_fraction, 0, 1, "(]")
        if self.lambda_policy != "select":
            _within("lambda_policy", self.lambda_policy, 0, math.inf, "[)")
        _within("rho", self.rho, 0, 1, "[]")
        # every grid value is a poisoning rate in poison_count's domain, with
        # or without an attack; AttackConfig narrows it when one runs
        for alpha in self.alpha_grid:
            _within("alpha", alpha, 0, 1, "()")
        for gamma in self.gamma_grid:
            _integer("gamma", gamma, 1)
        _integer("master_seed", self.master_seed, -math.inf)  # any integer: cell_seed hashes it
        # Python values: cell_seed hashes their repr and the records header writes them as JSON
        object.__setattr__(self, "families", tuple(map(str, self.families)))
        object.__setattr__(self, "alpha_grid", tuple(map(float, self.alpha_grid)))
        object.__setattr__(self, "gamma_grid", tuple(map(int, self.gamma_grid)))
        object.__setattr__(self, "repeats", int(self.repeats))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        for name in ("families", "alpha_grid", "gamma_grid"):
            grid = getattr(self, name)
            if len(set(grid)) < len(grid):
                raise ValueError(f"{name} repeats a value: {grid}")
        # the cells build these configs; building them here rejects a bad
        # grid value before any cell runs
        if self.attack != "none":
            for alpha in self.alpha_grid:
                AttackConfig(alpha, max_outer_iters=self.attack_max_outer)
        if self.defense == "proda":
            for alpha_assumed in dict.fromkeys(map(self.assumed_alpha, self.alpha_grid)):
                for gamma in self.gamma_grid:
                    ProdaConfig(gamma, self.defense_epsilon, alpha_assumed)
        if self.defense == "trim":
            _integer("defense_max_iters", self.defense_max_iters, 1)

    def assumed_alpha(self, alpha: float) -> float:
        """The defender's alpha in a cell of real rate alpha: the spec's
        alpha_assumed, else alpha under an attack, else 0."""
        known = alpha if self.attack != "none" else 0.0
        return known if self.alpha_assumed is None else self.alpha_assumed

    @property
    def dataset_name(self) -> str:
        """The name records carry and cell seeds hash, read from the source."""
        return source_name(self.csv_path)


def cell_seed(master_seed: int, *coords) -> int:
    """Stable 63-bit seed from the master seed and cell coordinates."""
    key = "|".join([str(master_seed)] + [repr(c) for c in coords])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def load_base_dataset(spec: ExperimentSpec) -> Dataset:
    ds, _ = load_source(spec.csv_path, spec.target_column, spec.categorical, spec.synthetic)
    if spec.max_features is not None and spec.max_features < ds.d:
        ds = Dataset(
            ds.features[:, : spec.max_features].copy(),
            ds.responses.copy(),
            ds.feature_names[: spec.max_features],
            ds.provenance,
        )
    return ds


def _clean_phase(spec, family, seed, base, record):
    """Split, subsample, set lambda and fit; returns the training and test folds and lambda."""
    split = split_three(base if base is not None else load_base_dataset(spec), seed)
    train = split.train
    if spec.train_subsample is not None and train.n > spec.train_subsample:
        sub_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        idx = sub_rng.choice(train.n, size=spec.train_subsample, replace=False)
        train = train.take(np.sort(idx))
    lam = spec.lambda_policy
    if lam == "select":
        lam = select_lambda(train, split.validation, family, rho=spec.rho)
    model = fit(train, family, float(lam), rho=spec.rho).converged_model("clean fit")
    record["lambda"] = model.lam  # fit gives OLS lambda 0
    record["mse_clean"] = mse(train, model)
    record["mse_clean_test"] = mse(split.test, model)
    return train, split.test, model.lam


def _attack_phase(spec, family, alpha, seed, train, test, lam, record):
    """Attack the attacker's view of the training fold and fit the poisoned set; returns it."""
    view, n_poison = train, None
    if spec.surrogate_fraction is not None:
        # d+2 rows at least: OLS interpolates d+1, leaving Nopt no clean loss to scale by
        k = max(train.d + 2, int(round(spec.surrogate_fraction * train.n)))
        view_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        view = train.take(np.sort(view_rng.choice(train.n, size=min(k, train.n), replace=False)))
        n_poison = poison_count(train.n, alpha)
    cfg = AttackConfig(alpha, max_outer_iters=spec.attack_max_outer,
                       seed=cell_seed(seed, "attack"), n_poison=n_poison)
    attack_fn = nopt_attack if spec.attack == "nopt" else opt_attack
    t0 = time.perf_counter()
    state = attack_fn(view, cfg, family, lam, rho=spec.rho)
    record["wall_time_attack_s"] = time.perf_counter() - t0
    record["attack_iterations"] = state.iterations
    record["attack_converged"] = state.converged
    record["attack_refits"] = state.refit_count
    record["time_attack_s"] = state.refit_count * train.n / RATE_ITERS_PER_S
    poisoned, _ = merge(train, state.poison)
    model = fit(poisoned, family, lam, rho=spec.rho).converged_model("poisoned fit")
    record["mse_poisoned"] = mse(train, model)
    # the collective-training-set MSE is the attack figure of merit
    record["mse_poisoned_trainset"] = mse(poisoned, model)
    record["mse_poisoned_test"] = mse(test, model)
    return poisoned


def _defense_phase(spec, family, alpha_assumed, gamma, seed, train, test, lam, pool, record):
    """Defend the training pool, poisoned under an attack; score the defense on the clean folds."""
    defense_seed = cell_seed(seed, "defense")
    t0 = time.perf_counter()
    if spec.defense == "proda":
        cfg = ProdaConfig(gamma, spec.defense_epsilon, alpha_assumed, defense_seed)
        result = proda_defend(pool, cfg, family, lam, rho=spec.rho)
        record["wall_time_defense_s"] = time.perf_counter() - t0
        record["beta_used"] = result.beta_used
    else:
        result = trim_defend(pool, alpha_assumed, family, lam, rho=spec.rho,
                             max_iters=spec.defense_max_iters, seed=defense_seed)
        record["wall_time_defense_s"] = time.perf_counter() - t0
        record["trim_worst_case_iterations"] = trim_worst_case_text(
            pool.n, subset_size(pool.n, alpha_assumed))
    record["defense_iterations"] = result.iterations
    record["defense_converged"] = result.converged
    # Proda's iterations are its beta trials, TRIM's its C-steps
    record["time_defense_s"] = result.iterations * pool.n / RATE_ITERS_PER_S
    record["mse_defended"] = mse(train, result.model)
    record["mse_defended_test"] = mse(test, result.model)


def run_cell(
    spec: ExperimentSpec,
    family: str,
    alpha: float,
    gamma: int | None,
    repeat: int,
    base: Dataset | None = None,
) -> dict:
    """One (dataset, family, attack, defense, alpha, gamma, repeat) cell, run
    as its clean, attack and defense phases, each writing its own record keys.
    Returns the record dict; failures land in the record's error field."""
    # Python values, as ExperimentSpec stores them: cell_seed hashes their repr
    family, alpha, repeat = str(family), float(alpha), int(repeat)
    gamma = None if gamma is None else int(gamma)
    seed = cell_seed(
        spec.master_seed, spec.dataset_name, family, spec.attack, spec.defense, alpha, gamma, repeat
    )
    alpha_assumed = spec.assumed_alpha(alpha)
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
        train, test, lam = _clean_phase(spec, family, seed, base, record)
        pool = train if spec.attack == "none" else _attack_phase(
            spec, family, alpha, seed, train, test, lam, record)
        if spec.defense != "none":
            _defense_phase(spec, family, alpha_assumed, gamma, seed, train, test, lam, pool, record)
    except Exception as exc:  # noqa: BLE001 - a failed cell is recorded, not dropped
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _cells(spec: ExperimentSpec):
    gammas = spec.gamma_grid if spec.defense == "proda" else (None,)
    return itertools.product(spec.families, spec.alpha_grid, gammas, range(spec.repeats))


def _run_task(task):
    return run_cell(*task)  # looked up at call time, so a wrapper patched onto run_cell runs


def run_sweep(spec: ExperimentSpec, jobs: int = 1):
    """Iterate the full Cartesian product of grids x repeats, yielding one
    record per cell in deterministic order; `jobs` >= 2 runs the cells in
    at most min(jobs, cells) worker processes. The base dataset is loaded
    once, before any cell. This is a generator, so nothing runs at the
    call: a `jobs` that is not a count >= 1 and a load failure raise when
    the first record is asked for (`cli` checks `--jobs` before it opens
    its outputs). It stays one because perfbench times its resumptions:
    the tracer's `harness.parallel_eff` reads their span, and the attack
    workloads time `next(run_sweep(spec))`, so an eager load would move
    work outside their timer."""
    _integer("jobs", jobs, 1)
    base = load_base_dataset(spec)
    tasks = [(spec, *cell, base) for cell in _cells(spec)]
    if jobs < 2 or len(tasks) < 2:
        yield from map(_run_task, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only here

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(_run_task, tasks, chunksize=1)

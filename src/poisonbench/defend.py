"""Subset-selection defenses: the probabilistic group-sampling defense
(Proda) and the iterative trimmed-fitting baseline (TRIM).

Proda draws beta random groups of gamma rows, sized so that with probability
at least 1 - epsilon some group is entirely clean:

    beta = ceil( log(epsilon) / log(1 - (1 - alpha)^gamma) )

Each group is fit, all rows are ranked by absolute residual to the group's
model, the n closest rows are refit, and the minimum-MSE subset wins.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .regress import RegressionModel, fit


@dataclass(frozen=True)
class ProdaConfig:
    gamma: int
    epsilon: float = 1e-5
    alpha_assumed: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 <= self.alpha_assumed < 1.0:
            raise ValueError("alpha_assumed must be in [0, 1)")


@dataclass(frozen=True)
class DefenseResult:
    subset_indices: tuple[int, ...]
    model: RegressionModel
    subset_mse: float
    group_mse_trace: tuple[float, ...]
    beta_used: int
    wall_time_s: float
    iterations: int
    winning_group_indices: tuple[int, ...] = ()
    converged: bool = True

    def to_json(self) -> str:
        return json.dumps(
            {
                "subset_indices": list(self.subset_indices),
                "model": json.loads(self.model.to_json()),
                "subset_mse": self.subset_mse,
                "beta_used": self.beta_used,
                "group_mses": list(self.group_mse_trace),
                "wall_time_s": self.wall_time_s,
                "iterations": self.iterations,
            },
            indent=2,
        )


@dataclass(frozen=True)
class ComplexityEstimate:
    beta: int
    iterations_bound: int
    p_u: float
    wallclock_estimate_s: float


def compute_beta(alpha: float, gamma: int, epsilon: float) -> int:
    """Smallest integer beta with (1 - (1-alpha)^gamma)^beta <= epsilon.

    Computed from the closed form then nudged by direct inequality checks so
    the result is exact at floating-point boundaries. alpha = 0 gives 1:
    every group is clean.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if alpha == 0.0:
        return 1
    p_dirty = 1.0 - (1.0 - alpha) ** gamma  # P(group touches poison)
    if p_dirty <= 0.0:
        return 1
    if p_dirty >= 1.0:
        raise ValueError("(1-alpha)^gamma underflowed to 0; no finite beta guarantees a clean group")
    beta = max(1, math.ceil(math.log(epsilon) / math.log(p_dirty)))
    while p_dirty**beta > epsilon:
        beta += 1
    while beta > 1 and p_dirty ** (beta - 1) <= epsilon:
        beta -= 1
    return beta


def subset_size(n_rows: int, alpha_assumed: float) -> int:
    """Estimated clean count: ceil((1 - alpha_assumed) * N)."""
    return math.ceil((1.0 - alpha_assumed) * n_rows)


def _closest_rows(ds: Dataset, model: RegressionModel, n: int) -> np.ndarray:
    """Indices of the n rows with smallest absolute residual; ties break by
    row index (stable sort)."""
    resid = np.abs(model.predict(ds.features) - ds.responses)
    order = np.argsort(resid, kind="stable")
    return np.sort(order[:n])


def proda_defend(
    ds: Dataset,
    cfg: ProdaConfig,
    family: str = "ols",
    lam: float = 0.0,
    rho: float = 0.5,
) -> DefenseResult:
    """Probabilistic defense: beta seeded group trials, each expanded to its
    n closest rows, keeping the minimum-MSE refit (ties to the lowest trial
    index)."""
    n_rows = ds.n
    if cfg.gamma < ds.d + 1:
        raise ValueError(f"gamma must be >= d+1 = {ds.d + 1}, got {cfg.gamma}")
    n = subset_size(n_rows, cfg.alpha_assumed)
    if n < cfg.gamma:
        raise ValueError(f"subset size n={n} smaller than gamma={cfg.gamma}; dataset too small")
    beta = compute_beta(cfg.alpha_assumed, cfg.gamma, cfg.epsilon)

    start = time.perf_counter()
    seeds = np.random.SeedSequence(cfg.seed).spawn(beta)
    best = None  # (mse, trial index, subset, model, group)
    group_mses = []
    for i in range(beta):
        rng = np.random.default_rng(seeds[i])
        group = np.sort(rng.choice(n_rows, size=cfg.gamma, replace=False))
        group_model = fit(ds.take(group), family, lam, rho=rho).model
        subset = _closest_rows(ds, group_model, n)
        refit = fit(ds.take(subset), family, lam, rho=rho)
        m = refit.train_mse
        group_mses.append(m)
        if best is None or m < best[0]:
            best = (m, i, subset, refit.model, group)
    elapsed = time.perf_counter() - start

    best_mse, _, subset, model, group = best
    return DefenseResult(
        subset_indices=tuple(int(i) for i in subset),
        model=model,
        subset_mse=best_mse,
        group_mse_trace=tuple(group_mses),
        beta_used=beta,
        wall_time_s=elapsed,
        iterations=beta,
        winning_group_indices=tuple(int(i) for i in group),
    )


def trim_defend(
    ds: Dataset,
    alpha_assumed: float,
    family: str = "ols",
    lam: float = 0.0,
    rho: float = 0.5,
    max_iters: int = 100,
    seed: int = 0,
) -> DefenseResult:
    """Alternating minimization: fit on the current subset, re-select the n
    smallest-residual rows, stop when the subset or its loss is stable.

    The trimmed loss is nonincreasing across iterations.
    """
    n_rows = ds.n
    n = subset_size(n_rows, alpha_assumed)
    if n < ds.d + 1:
        raise ValueError(f"subset size n={n} smaller than d+1 = {ds.d + 1}")

    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    subset = np.sort(rng.choice(n_rows, size=n, replace=False))
    report = fit(ds.take(subset), family, lam, rho=rho)
    model, last_loss = report.model, report.train_loss
    mse_trace = [report.train_mse]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        new_subset = _closest_rows(ds, model, n)
        report = fit(ds.take(new_subset), family, lam, rho=rho)
        same_subset = np.array_equal(new_subset, subset)
        subset, model = new_subset, report.model
        mse_trace.append(report.train_mse)
        if same_subset or abs(last_loss - report.train_loss) < 1e-12:
            converged = True
            break
        last_loss = report.train_loss
    elapsed = time.perf_counter() - start

    return DefenseResult(
        subset_indices=tuple(int(i) for i in subset),
        model=model,
        subset_mse=mse_trace[-1],
        group_mse_trace=tuple(mse_trace),
        beta_used=it,
        wall_time_s=elapsed,
        iterations=it,
        converged=converged,
    )


def trim_worst_case_iterations(n_rows: int, n_subset: int) -> int:
    """Worst-case subset traversals for TRIM: C(N, n), exponential in N."""
    return math.comb(n_rows, n_subset)


def estimate_complexity(
    alpha: float, gamma: int, epsilon: float, n: int, rate_iters_per_s: float
) -> ComplexityEstimate:
    """Iteration and wall-clock bounds for the probabilistic defense: beta
    group trials at O(n) work each, converted at a caller-supplied rate."""
    if rate_iters_per_s <= 0:
        raise ValueError("rate_iters_per_s must be > 0")
    beta = compute_beta(alpha, gamma, epsilon)
    bound = beta * n
    p_dirty = 1.0 - (1.0 - alpha) ** gamma
    p_u = 1.0 - p_dirty**beta
    return ComplexityEstimate(
        beta=beta,
        iterations_bound=bound,
        p_u=p_u,
        wallclock_estimate_s=bound / rate_iters_per_s,
    )

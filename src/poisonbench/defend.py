"""Subset-selection defenses: the probabilistic group-sampling defense
(Proda) and the iterative trimmed-fitting baseline (TRIM).

Proda draws beta random groups of gamma rows, sized so that with probability
at least 1 - epsilon some group is entirely clean:

    beta = ceil( log(epsilon) / log(1 - (1 - alpha)^gamma) )

Each group is fit, all rows are ranked by absolute residual to the group's
model, the n closest rows are refit, and the minimum-MSE subset wins.

The groups come from one generator, default_rng(seed): trial i reads
uniforms i*gamma to (i+1)*gamma - 1 of its stream and turns them into gamma
distinct rows by Floyd's algorithm (Bentley & Floyd, "A Sample of
Brilliance", CACM 1987), so a trial's group does not depend on how the
trials are blocked.

The trials run in blocks of max(1, BLOCK_FLOATS // N), so no (trials x rows)
array exceeds BLOCK_FLOATS floats. A block draws its groups in gamma vector
steps, each one lookup and one write in a (trials x rows) boolean table of
the rows taken so far; it gathers their rows once and builds their moments
in one batched product, takes every trial's residuals to its group model in
one (k x N) product, and builds the subset moments as mask @ outer, with
outer holding the N per-row outer products; only the two fits of each trial
run one at a time. A subset takes the n smallest absolute residuals, ties
at the n-th value going to the lowest row indices, which is the first n of
a stable sort. When no trial has more ties at its n-th value than room for
them (with continuous residuals the n-th value is its only tie), the rows
at or below that value are the subset, and the running count of ties is
skipped. TRIM selects its subsets the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .regress import Moments, RegressionModel, fit, loss, mse

BLOCK_FLOATS = 2**15  # bounds every (trials x rows) array of a Proda block


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
    iterations: int  # Proda's beta trials, TRIM's C-steps
    winning_group_indices: tuple[int, ...] = ()
    converged: bool = True

    @property
    def beta_used(self) -> int:
        return self.iterations

    def to_dict(self) -> dict:
        """The result as a JSON-ready dict, the model as its own `to_dict`."""
        return {
            "subset_indices": list(self.subset_indices),
            "model": self.model.to_dict(),
            "subset_mse": self.subset_mse,
            "beta_used": self.beta_used,
            "group_mses": list(self.group_mse_trace),
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class ComplexityEstimate:
    beta: int
    iterations_bound: int
    p_u: float


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


def _smallest(resid: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the n smallest entries along the last axis; ties at
    the n-th value go to the lowest indices, as in the first n of a stable
    sort. When every row has exactly n entries at or below its n-th value
    (with continuous residuals the n-th value is its only tie), those are
    the mask, and the running count of ties is skipped."""
    kth = np.partition(resid, n - 1, axis=-1)[..., n - 1 : n]
    chosen = resid <= kth
    if (chosen.sum(axis=-1) == n).all():
        return chosen
    below = resid < kth
    ties = chosen & ~below
    room = n - below.sum(axis=-1, keepdims=True)
    return below | (ties & (np.cumsum(ties, axis=-1) <= room))


def _floyd_groups(u: np.ndarray, n_rows: int) -> np.ndarray:
    """One sorted group of gamma distinct rows of range(n_rows) per row of
    the (k x gamma) uniforms u, by Floyd's algorithm: step j takes
    t = floor(u[:, j] (m + 1)), uniform on 0..m with m = n_rows - gamma + j,
    and keeps t, or m when t is already in the group. A (k x n_rows) table
    of the rows taken so far answers "already in the group" with one
    lookup a step, whatever j is."""
    k, gamma = u.shape
    groups = (u * np.arange(n_rows - gamma + 1, n_rows + 1)).astype(np.intp)
    taken = np.zeros(k * n_rows, dtype=bool)  # row r of group i at i*n_rows + r
    base = np.arange(0, k * n_rows, n_rows)
    for j, m in enumerate(range(n_rows - gamma, n_rows)):
        t = groups[:, j]
        t[taken[base + t]] = m
        taken[base + t] = True
    groups.sort(axis=1)
    return groups


def proda_defend(
    ds: Dataset,
    cfg: ProdaConfig,
    family: str = "ols",
    lam: float = 0.0,
    rho: float = 0.5,
) -> DefenseResult:
    """Probabilistic defense: beta seeded group trials, each expanded to its
    n closest rows, keeping the minimum-MSE refit (ties to the lowest trial
    index).

    Trial i draws its group from uniforms i*gamma to (i+1)*gamma - 1 of
    default_rng(cfg.seed) by Floyd's algorithm. The trials run in blocks
    (see the module docstring); each still makes one group fit and one
    subset refit on moments, and its subset MSE is summed over the subset's
    rows. `converged` is False when the winning
    trial's group fit or subset refit did not converge.
    """
    n_rows, d = ds.n, ds.d
    if cfg.gamma < d + 1:
        raise ValueError(f"gamma must be >= d+1 = {d + 1}, got {cfg.gamma}")
    n = subset_size(n_rows, cfg.alpha_assumed)
    if n < cfg.gamma:
        raise ValueError(f"subset size n={n} smaller than gamma={cfg.gamma}; dataset too small")
    beta = compute_beta(cfg.alpha_assumed, cfg.gamma, cfg.epsilon)

    rows = np.empty((n_rows, d + 2))  # [X 1 y]
    rows[:, :d], rows[:, d], rows[:, d + 1] = ds.features, 1.0, ds.responses
    outer = (rows[:, :, None] * rows[:, None, :]).reshape(n_rows, -1)
    rng = np.random.default_rng(cfg.seed)
    block = min(beta, max(1, BLOCK_FLOATS // n_rows))
    # rows (w, b, -1): coef @ rows.T are residuals. A product with one row
    # takes numpy's matrix-vector path, which rounds differently, so a block of
    # one trial runs its products on two rows and keeps the first: a trial's
    # numbers then do not depend on the size of its block.
    coef = np.zeros((max(block, 2), d + 2))
    coef[:, d + 1] = -1.0
    group_mses = np.empty(beta)
    best = None  # (trial index, subset mask, model, group, converged)
    for lo in range(0, beta, block):
        k = min(block, beta - lo)
        k2 = max(k, 2)
        groups = _floyd_groups(rng.random((k, cfg.gamma)), n_rows)
        picked = rows[groups]
        group_stats = picked.transpose(0, 2, 1) @ picked
        fits = [fit(Moments(s, cfg.gamma), family, lam, rho=rho) for s in group_stats]
        coef[:k, :d] = [f.model.weights for f in fits]
        coef[:k, d] = [f.model.bias for f in fits]
        mask = _smallest(np.abs(coef[:k2].dot(rows.T)), n)
        subset_stats = (mask @ outer)[:k].reshape(k, d + 2, d + 2)
        refits = [fit(Moments(s, n), family, lam, rho=rho) for s in subset_stats]
        coef[:k, :d] = [f.model.weights for f in refits]
        coef[:k, d] = [f.model.bias for f in refits]
        resid = coef[:k2].dot(rows.T)[:k]
        mses = np.einsum("ij,ij->i", resid * resid, mask[:k]) / n
        group_mses[lo : lo + k] = mses
        i = int(np.argmin(mses))
        if best is None or mses[i] < group_mses[best[0]]:
            ok = fits[i].converged and refits[i].converged
            best = (lo + i, mask[i], refits[i].model, groups[i], ok)

    trial, subset, model, group, converged = best
    return DefenseResult(
        subset_indices=tuple(int(i) for i in np.flatnonzero(subset)),
        model=model,
        subset_mse=float(group_mses[trial]),
        group_mse_trace=tuple(group_mses.tolist()),
        iterations=beta,
        winning_group_indices=tuple(int(i) for i in group),
        converged=converged,
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
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    n_rows = ds.n
    n = subset_size(n_rows, alpha_assumed)
    if n < ds.d + 1:
        raise ValueError(f"subset size n={n} smaller than d+1 = {ds.d + 1}")

    rng = np.random.default_rng(seed)
    subset = np.sort(rng.choice(n_rows, size=n, replace=False))
    rows = ds.take(subset)
    model = fit(rows, family, lam, rho=rho).model
    last_loss, mse_trace = loss(rows, model), [mse(rows, model)]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        resid = np.abs(model.predict(ds.features) - ds.responses)
        new_subset = np.flatnonzero(_smallest(resid, n))
        rows = ds.take(new_subset)
        report = fit(rows, family, lam, rho=rho)
        same_subset = np.array_equal(new_subset, subset)
        subset, model = new_subset, report.model
        mse_trace.append(mse(rows, model))
        new_loss = loss(rows, model)
        if same_subset or abs(last_loss - new_loss) < 1e-12:
            converged = True
            break
        last_loss = new_loss

    return DefenseResult(
        subset_indices=tuple(int(i) for i in subset),
        model=model,
        subset_mse=mse_trace[-1],
        group_mse_trace=tuple(mse_trace),
        iterations=it,
        converged=converged and report.converged,
    )


def estimate_complexity(alpha: float, gamma: int, epsilon: float, n: int) -> ComplexityEstimate:
    """Iteration bound for the probabilistic defense: beta group trials at
    O(n) work each, and the chance p_u that some group is clean."""
    beta = compute_beta(alpha, gamma, epsilon)
    p_dirty = 1.0 - (1.0 - alpha) ** gamma
    return ComplexityEstimate(beta=beta, iterations_bound=beta * n, p_u=1.0 - p_dirty**beta)

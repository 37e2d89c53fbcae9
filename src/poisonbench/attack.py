"""Gradient-based poisoning attacks on linear regression.

Nopt maximizes the dispersion objective

    E = | loss_off(clean u poison, theta) / L_o  -  N / n_o |

where L_o is the clean-fit residual loss on the clean set (frozen before the
attack by default) and theta re-solves the training problem after every point
update. The Opt baseline runs the same machinery but maximizes the residual
loss on the clean points only.

Gradients flow through the trained parameters via the implicit function
theorem applied to the training stationarity condition: with n training rows,
Sigma = (1/n) sum_i x_i x_i^T and mu = (1/n) sum_i x_i,

    d theta / d z_c (transposed) =
        -(1/n) [[M, w], [-x_c^T, -1]] @ [[Sigma + reg, mu], [mu^T, 1]]^-1

with M = w x_c^T + (f(x_c) - y_c) I. The reg block is the curvature of the
penalty scaled by lambda/n so the system is the exact Hessian of the
training objective (1/2 sum r^2 + lambda Omega); the l1 part contributes
zero curvature almost everywhere.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, poison_count
from .regress import Moments, RegressionModel, fit, loss, mse

logger = logging.getLogger(__name__)

KKT_JITTER = 1e-8
ARMIJO_C = 1e-4
# line search: first step, backtracking factor and backtracks per point; the
# poison points stay in the unit box [0, 1] that every dataset lives in
STEP0 = 0.1
SHRINK = 0.5
MAX_BACKTRACKS = 20
# training MSE at or below this is "zero" (noiseless data up to rounding)
DEGENERATE_MSE = 1e-18

REFERENCE_MODES = ("clean_fit", "current_theta")


class DegenerateCleanLossError(ValueError):
    """Clean data fits exactly, so the loss-ratio objective is undefined."""


@dataclass(frozen=True)
class AttackConfig:
    """Knobs for the projected gradient-ascent loop (Nopt and Opt)."""

    alpha: float
    eps_conv: float = 1e-6
    max_outer_iters: int = 100
    seed: int = 0
    n_poison: int | None = None  # overrides floor(alpha*n_o/(1-alpha)) when set
    reference_loss: str = "clean_fit"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.2:
            raise ValueError(f"alpha must be in (0, 0.2], got {self.alpha}")
        if self.eps_conv <= 0:
            raise ValueError("eps_conv must be > 0")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.reference_loss not in REFERENCE_MODES:
            raise ValueError(f"reference_loss must be one of {REFERENCE_MODES}")


@dataclass(frozen=True)
class AttackState:
    """Final poisoning set plus the optimization trace."""

    poison: Dataset
    model: RegressionModel
    clean_ref_loss: float
    trace: tuple[dict, ...]
    converged: bool
    iterations: int
    objective_name: str
    refit_count: int = 0

    @property
    def e_trace(self) -> tuple[float, ...]:
        return tuple(t["objective"] for t in self.trace)

    def to_jsonl(self) -> str:
        """One record per outer iteration: {iter, E, mse_train, theta}."""
        lines = []
        for t in self.trace:
            lines.append(
                json.dumps(
                    {
                        "iter": t["iter"],
                        "E": t["objective"],
                        "mse_train": t["mse_train"],
                        "theta": {"weights": t["weights"], "bias": t["bias"]},
                    }
                )
            )
        return "\n".join(lines) + "\n"


def _require_reference(ref_loss: float, n_clean: int) -> None:
    if ref_loss <= 0.5 * n_clean * DEGENERATE_MSE:
        raise DegenerateCleanLossError(
            "clean reference loss is zero; add noise to the data or use a relative floor"
        )


def _dispersion(total: float, ref_loss: float, n_total: int, n_clean: int) -> float:
    """Signed dispersion total / ref_loss - N / n_o; E is its absolute value."""
    _require_reference(ref_loss, n_clean)
    return total / ref_loss - n_total / n_clean


def dispersion_objective(
    clean: Dataset, poison: Dataset, model: RegressionModel, ref_loss: float
) -> float:
    """E = |loss_off(clean u poison, model) / ref_loss - (n_o + n_p) / n_o|."""
    total = loss(clean, model, include_regularizer=False)
    total += loss(poison, model, include_regularizer=False)
    return abs(_dispersion(total, ref_loss, clean.n + poison.n, clean.n))


def _solve_kkt(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError:
        logger.warning("KKT matrix singular; retrying with diagonal jitter %.0e", KKT_JITTER)
        try:
            return np.linalg.solve(h + KKT_JITTER * np.eye(h.shape[0]), rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("KKT matrix singular even after jitter") from exc


def theta_jacobian(
    training: Dataset | Moments, model: RegressionModel, x_c: np.ndarray, y_c: float
) -> np.ndarray:
    """(d+1, d+1) matrix J with J[i, j] = d theta_j / d z_c[i].

    Rows index the point coordinates (x_c then y_c); columns index the
    parameters (weights then bias). model must (approximately) minimize the
    training loss on `training` (rows or Moments), which must contain z_c.
    """
    if training.n < training.d + 1:
        raise ValueError("need n >= d+1 training rows for the KKT system")
    x_c = np.asarray(x_c, dtype=float)
    moments = Moments.of(training)
    r_c = float(model.weights @ x_c + model.bias - y_c)
    # explicit = [[M, w], [-x_c^T, -1]]: (w, -1) (x_c, 1)^T plus r_c I in the top-left block
    explicit = np.outer(np.concatenate((model.weights, (-1.0,))), np.concatenate((x_c, (1.0,))))
    explicit[:-1, :-1] += r_c * np.eye(len(x_c))
    # J = -(1/n) explicit @ H^-1, H = training Hessian / n; H is symmetric: solve on the transpose
    h = moments.penalized_gram(model.lam * model.curvature_scale()) / moments.n
    return -(1.0 / moments.n) * _solve_kkt(h, explicit.T).T


def _sign(value: float) -> float:
    return -1.0 if value < 0 else 1.0  # subgradient at the kink: +1


def objective_gradient(
    clean: Dataset | Moments,
    poison: Dataset,
    model: RegressionModel,
    ref_loss: float,
    index: int,
    reference: str = "clean_fit",
    merged: Moments | None = None,
) -> np.ndarray:
    """Gradient of the dispersion objective w.r.t. poison point `index`.

    Chain rule through the trained parameters plus the point's own explicit
    residual term. With reference="current_theta" the denominator is the
    clean-set loss at the current parameters and its theta-dependence is
    differentiated as a quotient. Every sum over rows is read off the
    moments; `merged`, the moments of clean plus poison, saves adding them.
    """
    if reference not in REFERENCE_MODES:
        raise ValueError(f"reference must be one of {REFERENCE_MODES}")
    clean = Moments.of(clean)
    merged = merged if merged is not None else clean + Moments.of(poison)
    x_c, y_c = poison.features[index], float(poison.responses[index])
    total = merged.residual_loss(model)
    if reference == "current_theta":
        ref_loss = clean.residual_loss(model)
    s = _sign(_dispersion(total, ref_loss, merged.n, clean.n))

    grad_total = merged.residual_gradient(model)
    if reference == "clean_fit":
        grad_theta = grad_total / ref_loss
    else:
        grad_ref = clean.residual_gradient(model)
        grad_theta = (grad_total * ref_loss - total * grad_ref) / ref_loss**2

    r_c = float(model.weights @ x_c + model.bias - y_c)
    explicit = r_c * np.concatenate((model.weights, (-1.0,))) / ref_loss

    jac = theta_jacobian(merged, model, x_c, y_c)
    return s * (jac @ grad_theta + explicit)


def opt_objective_gradient(
    clean: Dataset | Moments,
    poison: Dataset,
    model: RegressionModel,
    index: int,
    merged: Moments | None = None,
) -> np.ndarray:
    """Gradient of the clean-points residual loss w.r.t. poison point `index`.

    The poison point enters only through the trained parameters, so there is
    no explicit term. Inputs as for objective_gradient.
    """
    clean = Moments.of(clean)
    merged = merged if merged is not None else clean + Moments.of(poison)
    jac = theta_jacobian(merged, model, poison.features[index], float(poison.responses[index]))
    return jac @ clean.residual_gradient(model)


def _initial_poison(clean: Dataset, p: int, rng: np.random.Generator):
    """Sample p clean rows and flip their responses to the far boundary."""
    idx = rng.choice(clean.n, size=p, replace=False)
    px = clean.features[idx].copy()
    py = 1.0 - np.round(clean.responses[idx])
    return px, py


def _run_attack(clean, cfg, family, lam, rho, kind):
    objective_name = {"nopt": "dispersion", "opt": "clean_loss"}.get(kind)
    if objective_name is None:
        raise ValueError(f"unknown attack kind {kind!r}")

    p = cfg.n_poison if cfg.n_poison is not None else poison_count(clean.n, cfg.alpha)
    if p < 1:
        raise ValueError(f"poison budget rounds to zero points (alpha={cfg.alpha}, n={clean.n})")

    clean_model = fit(clean, family, lam, rho=rho).model
    ref_loss = loss(clean, clean_model, include_regularizer=False)
    if kind == "nopt":
        _require_reference(ref_loss, clean.n)

    px, py = _initial_poison(clean, p, np.random.default_rng(cfg.seed))
    d = clean.d
    # every row sum the loop needs is read off these moments; a trial step
    # is a rank-two update of the merged ones
    clean_m = Moments.of(clean)

    def objective(merged, model):
        if kind == "opt":
            return clean_m.residual_loss(model)
        denom = clean_m.residual_loss(model) if cfg.reference_loss == "current_theta" else ref_loss
        return abs(_dispersion(merged.residual_loss(model), denom, merged.n, clean.n))

    def gradient(merged, poison_ds, model, c):
        if kind == "opt":
            return opt_objective_gradient(clean_m, poison_ds, model, c, merged=merged)
        return objective_gradient(
            clean_m, poison_ds, model, ref_loss, c, reference=cfg.reference_loss, merged=merged
        )

    merged = clean_m + Moments.from_rows(px, py)
    theta = fit(merged, family, lam, rho=rho).model
    refits = 2  # the clean reference fit and this one
    obj = objective(merged, theta)

    def record(i, model, value):
        return {
            "iter": i,
            "objective": value,
            "mse_train": mse(clean, model),
            "weights": model.weights.tolist(),
            "bias": model.bias,
        }

    trace = [record(0, theta, obj)]
    converged = False
    outer = 0
    for outer in range(1, cfg.max_outer_iters + 1):
        sweep_start = obj
        # rebuilt from the rows once a sweep, so rank-two updates cannot drift
        merged = clean_m + Moments.from_rows(px, py)
        # point c only moves in its own turn, so this snapshot holds its current row
        poison_ds = Dataset(px.copy(), py.copy(), clean.feature_names, "poisoned")
        for c in range(p):
            grad = gradient(merged, poison_ds, theta, c)
            norm = float(np.linalg.norm(grad))
            if norm == 0.0 or not math.isfinite(norm):
                continue
            direction = grad / norm
            eta = STEP0
            for _ in range(MAX_BACKTRACKS):
                cand_x = np.minimum(np.maximum(px[c] + eta * direction[:d], 0.0), 1.0)
                cand_y = min(max(float(py[c] + eta * direction[d]), 0.0), 1.0)
                trial = merged.replace_row(px[c], py[c], cand_x, cand_y)
                report = fit(trial, family, lam, rho=rho, warm_start=theta)
                refits += 1
                # a fit that did not converge is rejected like a failed Armijo test
                if report.converged:
                    trial_obj = objective(trial, report.model)
                    if trial_obj >= obj + ARMIJO_C * eta * norm:
                        px[c], py[c] = cand_x, cand_y
                        merged, theta, obj = trial, report.model, trial_obj
                        break
                eta *= SHRINK
            # all backtracks rejected: the point stays where it was
        trace.append(record(outer, theta, obj))
        if abs(obj - sweep_start) < cfg.eps_conv:
            converged = True
            break

    return AttackState(
        poison=Dataset(px.copy(), py.copy(), clean.feature_names, "poisoned"),
        model=theta,
        clean_ref_loss=ref_loss,
        trace=tuple(trace),
        converged=converged,
        iterations=outer,
        objective_name=objective_name,
        refit_count=refits,
    )


def nopt_attack(
    clean: Dataset, cfg: AttackConfig, family: str = "ols", lam: float = 0.0, rho: float = 0.5
) -> AttackState:
    """Dispersion-maximizing attack: sweep the poison points, moving each
    along its objective gradient with a projected backtracking line search
    and refitting the model after every accepted step."""
    return _run_attack(clean, cfg, family, lam, rho, "nopt")


def opt_attack(
    clean: Dataset, cfg: AttackConfig, family: str = "ols", lam: float = 0.0, rho: float = 0.5
) -> AttackState:
    """Baseline attack maximizing the residual loss on the clean points."""
    return _run_attack(clean, cfg, family, lam, rho, "opt")


def poison_to_csv(state: AttackState, target_name: str = "y") -> str:
    """Poison set as CSV text matching the input schema (features + target)."""
    header = ",".join(list(state.poison.feature_names) + [target_name])
    lines = [header]
    for row, y in zip(state.poison.features, state.poison.responses):
        lines.append(",".join(repr(float(v)) for v in row) + "," + repr(float(y)))
    return "\n".join(lines) + "\n"

"""Gradient-based poisoning attacks on linear regression.

Nopt maximizes the dispersion objective

    E = | loss_off(clean u poison, theta) / L_o  -  N / n_o |

where L_o is the clean-fit residual loss on the clean set (frozen before the
attack by default) and theta re-solves the training problem after every point
update. The Opt baseline runs the same machinery but maximizes the residual
loss on the clean points only.

Gradients flow through the trained parameters theta = (w, b) via the
implicit function theorem applied to the training stationarity condition:

    d theta / d z_c (transposed) = J = -E H^-1,
    E = [[w x_c^T + r_c I, w], [-x_c^T, -1]],  r_c = f(x_c) - y_c,

with H = G + lambda * curvature * diag(1, ..., 1, 0) the Hessian of the
training objective (1/2 sum r^2 + lambda Omega); the l1 part contributes
zero curvature. Under an l1 penalty (LASSO, Elastic-net) a zero weight stays
at zero while the point moves a little, so the system is restricted to the
active set: the nonzero weights and the bias, with zero columns of J for the
others (Xiao et al., ICML 2015). A gradient needs only J @ g for one vector
g, so it solves H v = g once (the adjoint form, Pedregosa 2016).

The line search backtracks on the step eta of a projected step along the
normalized gradient and accepts a trial when the objective rises by at
least ARMIJO_C * g . (z_trial - z_c), the first-order gain of the clipped
step (the Armijo rule along the projection arc, Bertsekas 1976). A trial
that does not move the point has no gain and is rejected.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, poison_count
from .regress import Moments, RegressionModel, _penalty_mix, fit, loss, mse

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


def _solve_kkt(h: np.ndarray, rhs: np.ndarray, jitter: float) -> np.ndarray:
    """h^-1 rhs; a singular h is retried once with `jitter` added to its diagonal."""
    try:
        return np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError:
        logger.warning("KKT matrix singular; retrying with diagonal jitter %.0e", jitter)
        try:
            return np.linalg.solve(h + jitter * np.eye(h.shape[0]), rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("KKT matrix singular even after jitter") from exc


def _implicit_product(
    moments: Moments, model: RegressionModel, x_c: np.ndarray, y_c: float, rhs: np.ndarray
) -> np.ndarray:
    """J @ rhs for the Jacobian J of theta_jacobian from one solve v = H^-1 rhs:
    J @ rhs = -E v = -[(w, -1) ((x_c, 1) . v) + r_c (v_x, 0)]. Under an l1
    penalty v solves on the active set and is 0 at a zero weight. rhs is a
    (d+1,) vector or a (d+1, k) matrix."""
    n = moments.n
    if n < moments.d + 1:
        raise ValueError("need n >= d+1 training rows for the KKT system")
    r_c = float(model.weights @ x_c + model.bias - y_c)
    h = moments.penalized_gram(model.lam * model.curvature_scale())
    if model.lam * _penalty_mix(model.family, model.rho)[0] > 0.0:
        # an identity row and column for each weight the l1 penalty holds at
        # zero solve the system on the active set and leave v = 0 there
        rhs = rhs.copy()
        for j, w_j in enumerate(model.weights.tolist()):
            if w_j == 0.0:
                h[j, :] = h[:, j] = rhs[j] = 0.0
                h[j, j] = 1.0
    # KKT_JITTER is on the Hessian over n, the mean of the per-row Hessians
    v = -_solve_kkt(h, rhs, KKT_JITTER * n)
    ev = np.multiply.outer(np.concatenate((model.weights, (-1.0,))), x_c @ v[:-1] + v[-1])
    ev[:-1] += r_c * v[:-1]
    return ev


def theta_jacobian(
    training: Dataset | Moments, model: RegressionModel, x_c: np.ndarray, y_c: float
) -> np.ndarray:
    """(d+1, d+1) matrix J with J[i, j] = d theta_j / d z_c[i].

    Rows index the point coordinates (x_c then y_c); columns index the
    parameters (weights then bias). model must (approximately) minimize the
    training loss on `training` (rows or Moments), which must contain z_c.
    """
    moments = Moments.of(training)
    x_c = np.asarray(x_c, dtype=float)
    return _implicit_product(moments, model, x_c, y_c, np.eye(moments.d + 1))


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
    # q = stats u with u = (w, b, -1): the residual loss is u.q / 2, its gradient q[:-1]
    u = np.concatenate((model.weights, (model.bias, -1.0)))
    q = merged.stats @ u
    total = max(0.5 * float(u @ q), 0.0)
    if reference == "current_theta":
        q_ref = clean.stats @ u
        ref_loss = max(0.5 * float(u @ q_ref), 0.0)
    s = _sign(_dispersion(total, ref_loss, merged.n, clean.n))

    if reference == "clean_fit":
        grad_theta = q[:-1] / ref_loss
    else:
        grad_theta = (q[:-1] * ref_loss - total * q_ref[:-1]) / ref_loss**2

    r_c = float(model.weights @ x_c + model.bias - y_c)
    explicit = (r_c / ref_loss) * np.concatenate((model.weights, (-1.0,)))
    return s * (_implicit_product(merged, model, x_c, y_c, grad_theta) + explicit)


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
    x_c, y_c = poison.features[index], float(poison.responses[index])
    return _implicit_product(merged, model, x_c, y_c, clean.residual_gradient(model))


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

    d = clean.d
    # the poison points z = (x, y), moved in place; px and py are views of z
    z = np.column_stack(_initial_poison(clean, p, np.random.default_rng(cfg.seed)))
    px, py = z[:, :d], z[:, d]
    # every row sum the loop needs is read off these moments; a trial adds
    # the candidate row to the merged ones less the point's current row
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
        # rebuilt from the rows once a sweep, so row swaps cannot drift
        merged = clean_m + Moments.from_rows(px, py)
        # point c only moves in its own turn, so this snapshot holds its current row
        poison_ds = Dataset(px.copy(), py.copy(), clean.feature_names, "poisoned")
        for c in range(p):
            grad = gradient(merged, poison_ds, theta, c)
            norm = float(np.linalg.norm(grad))
            if norm == 0.0 or not math.isfinite(norm):
                continue
            direction = grad / norm
            z_c = z[c]
            rest = merged - Moments.from_rows(px[c : c + 1], py[c : c + 1])
            eta = STEP0
            for _ in range(MAX_BACKTRACKS):
                cand = np.minimum(np.maximum(z_c + eta * direction, 0.0), 1.0)
                # first-order gain of the clipped step: Armijo along the projection arc
                gain = float(grad @ (cand - z_c))
                trial = rest + Moments.from_rows(cand[None, :d], cand[d:])
                report = fit(trial, family, lam, rho=rho, warm_start=theta)
                refits += 1
                # a step that did not move, or a fit that did not converge, is rejected
                if gain > 0.0 and report.converged:
                    trial_obj = objective(trial, report.model)
                    if trial_obj >= obj + ARMIJO_C * gain:
                        z[c] = cand
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

"""Gradient-based poisoning attacks on linear regression.

Nopt maximizes the dispersion objective

    E = | loss_off(clean u poison, theta) / L_o  -  N / n_o |

where L_o is the clean-fit residual loss on the clean set (frozen before the
attack) and theta re-solves the training problem after every point
update. The Opt baseline runs the same machinery but maximizes the residual
loss on the clean points only.

Gradients flow through the trained parameters theta = (w, b) via the
implicit function theorem applied to the training stationarity condition:

    d theta / d z_c (transposed) = J = -E H^-1,
    E = [[w x_c^T + r_c I, w], [-x_c^T, -1]],  r_c = f(x_c) - y_c,

with H the Hessian of the training objective (1/2 sum r^2 + lambda Omega),
restricted to the active set under an l1 penalty (zero columns of J at a
zero weight). A gradient needs only J g for one vector g, so it solves
H v = g once (the adjoint form, Pedregosa 2016) by `regress._kkt_solve`,
which owns H for every family. A step reuses the accepted trial's u = (w, b,
-1), q = stats u (g is q[:-1], scaled for Nopt) and OLS/Ridge H^-1, so it
factors H once. The poison points are rows (x, 1, y); a trial swaps one in
the merged moments by two rank-one updates.

The line search backtracks on the step eta of a projected step along the
normalized gradient from eta = sqrt(d+1), the diameter of the box the
point's moving coordinates (x, y) live in (Nocedal & Wright 2006, 3.5). A
trial is accepted when the objective rises by ARMIJO_C * g . (z_trial - z_c)
or more, the first-order gain of the clipped step (the Armijo rule along the
projection arc, Bertsekas 1976). A point whose first clipped step has no
gain is skipped with no refit. A sweep that moves the objective by less
than eps_conv ends the attack: E for Nopt, the mean clean loss for Opt.

Every product of vectors and matrices here calls `ndarray.dot`, not `@`.
Both run the same BLAS routine (ddot, dgemv or syrk) and return the same
bits, but at d <= 8 a call costs mostly its dispatch, and the `@` gufunc's
is about twice `dot`'s (numpy 2.4.6, 2-vCPU Xeon, thread time): 0.98
against 0.51 us for a 7x7 matrix times a vector, 1.83 against 0.93 us for
u . S . u, and a step makes several. For the same reason a trial clips
against numpy scalars, builds its rank-one updates by broadcasting and
fills u into an empty array, and `_implicit_product` adds its two scalars
as Python floats: each form rounds alike and skips a box or a call.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _integer, _within, poison_count
from .regress import Moments, RegressionModel, _kkt_solve, fit, loss, mse

ARMIJO_C = 1e-4
# line search: backtracking factor and backtracks per point; the first step
# spans the unit box [0, 1] that every dataset lives in: sqrt(d+1) across
SHRINK = 0.5
MAX_BACKTRACKS = 20
# training MSE at or below this is "zero" (noiseless data up to rounding)
DEGENERATE_MSE = 1e-18
# the box's ends as numpy scalars: np.maximum and np.minimum box a Python float per call
_ZERO, _ONE = np.float64(0.0), np.float64(1.0)

class DegenerateCleanLossError(ValueError):
    """Clean data fits exactly, so the loss-ratio objective is undefined."""


@dataclass(frozen=True)
class AttackConfig:
    """Knobs for the projected gradient-ascent loop (Nopt and Opt)."""

    alpha: float
    eps_conv: float = 1e-6
    max_outer_iters: int = 100
    seed: int = 0
    n_poison: int | None = None  # overrides poison_count(n_o, alpha) when set

    def __post_init__(self):
        _within("alpha", self.alpha, 0, 0.2, "(]")
        _within("eps_conv", self.eps_conv, 0, math.inf, "()")
        _integer("max_outer_iters", self.max_outer_iters, 1)
        _integer("seed", self.seed, 0)
        if self.n_poison is not None:  # 0 passes here and fails when the attack runs
            _integer("n_poison", self.n_poison, 0)


@dataclass(frozen=True)
class AttackState:
    """Final poisoning set plus the optimization trace."""

    poison: Dataset
    model: RegressionModel
    clean_ref_loss: float
    trace: tuple[dict, ...]  # one record a sweep: {iter, E, mse_train, theta: {weights, bias}}
    converged: bool
    iterations: int
    objective_name: str
    refit_count: int = 0

    @property
    def e_trace(self) -> tuple[float, ...]:
        return tuple(t["E"] for t in self.trace)

    def to_jsonl(self) -> str:
        """The trace, one JSON record per line."""
        return "".join(json.dumps(t) + "\n" for t in self.trace)


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


def _implicit_product(
    moments: Moments, model: RegressionModel, row: np.ndarray, u: np.ndarray, rhs: np.ndarray,
    h_inv: np.ndarray | None = None, scale: float = 0.0,
) -> np.ndarray:
    """J rhs + scale r_c (w, -1) for the Jacobian J of theta_jacobian at the
    point row = (x_c, 1, y_c) with residual r_c, from one solve of H v = rhs
    (`regress._kkt_solve`, which takes `h_inv` when given):
    J rhs = -E v = -[u ((x_c, 1) . v) + r_c (v_x, 0, 0)] for u = (w, b, -1),
    over (x, 1, y) with 0 at the constant."""
    d = moments.d
    v = _kkt_solve(moments, model, rhs, h_inv)
    x_c, v_x = row[:d], v[:-1]
    r_c = float(model.weights.dot(x_c)) + model.bias - float(row[d + 1])
    s = scale * r_c - (float(x_c.dot(v_x)) + float(v[-1]))
    ev = s * u
    ev[:d] -= r_c * v_x
    ev[d] = 0.0
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
    row = np.concatenate((np.asarray(x_c, dtype=float), (1.0, y_c)))
    u = _model_vector(model)
    columns = [_implicit_product(moments, model, row, u, e) for e in np.eye(moments.d + 1)]
    return np.delete(np.column_stack(columns), -2, axis=0)


def _model_vector(model: RegressionModel) -> np.ndarray:
    """u = (w, b, -1), so that a row (x, 1, y) has residual u . row."""
    d = model.weights.shape[0]
    u = np.empty(d + 2)
    u[:d], u[d], u[d + 1] = model.weights, model.bias, -1.0
    return u


def _objective(kind, merged, clean, model, ref_loss):
    """(objective, u, scale) of `model` fitted on the Moments `merged`: Opt's
    clean loss or Nopt's E, u = (w, b, -1), and the gradient's explicit-term
    scale, 0 for Opt and sign(dispersion) / ref_loss for Nopt (+1 at 0)."""
    u = _model_vector(model)
    stats = clean.stats if kind == "opt" else merged.stats
    total = max(0.5 * float(u.dot(stats).dot(u)), 0.0)  # cancellation can dip below 0
    if kind == "opt":
        return total, u, 0.0
    dispersion = _dispersion(total, ref_loss, merged.n, clean.n)
    return abs(dispersion), u, (-1.0 if dispersion < 0 else 1.0) / ref_loss


def objective_gradient(
    clean: Dataset | Moments,
    poison: Dataset,
    model: RegressionModel,
    ref_loss: float,
    index: int,
    merged: Moments | None = None,
    h_inv: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the dispersion objective w.r.t. poison point `index`.

    Chain rule through the trained parameters plus the point's own explicit
    residual term. Every sum over rows is read off the moments; `merged`, the
    moments of clean plus poison, saves adding them, and `h_inv`, the
    FitReport.h_inv of model's closed-form fit on `merged`, saves the KKT solve.
    """
    clean = Moments.of(clean)
    merged = merged if merged is not None else clean + Moments.of(poison)
    row = np.concatenate((poison.features[index], (1.0, poison.responses[index])))
    _, u, scale = _objective("nopt", merged, clean, model, ref_loss)
    # the residual loss is u.stats.u / 2, its gradient q[:-1] for q = stats u; the
    # explicit term r_c (w, -1) / ref_loss rides on J's (w, -1) column
    rhs = scale * merged.stats.dot(u)[:-1]
    return np.delete(_implicit_product(merged, model, row, u, rhs, h_inv, scale), -2)


def opt_objective_gradient(
    clean: Dataset | Moments,
    poison: Dataset,
    model: RegressionModel,
    index: int,
    merged: Moments | None = None,
    h_inv: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the clean-points residual loss w.r.t. poison point `index`.

    The poison point enters only through the trained parameters, so there is
    no explicit term. Inputs as for objective_gradient.
    """
    clean = Moments.of(clean)
    merged = merged if merged is not None else clean + Moments.of(poison)
    row = np.concatenate((poison.features[index], (1.0, poison.responses[index])))
    u = _model_vector(model)
    return np.delete(_implicit_product(merged, model, row, u, clean.stats.dot(u)[:-1], h_inv), -2)


def _initial_poison(clean: Dataset, p: int, rng: np.random.Generator):
    """Sample p clean rows, with replacement only when p exceeds them (a small
    surrogate view), and flip their responses to the far boundary."""
    idx = rng.choice(clean.n, size=p, replace=p > clean.n)
    px = clean.features[idx]
    py = 1.0 - np.round(clean.responses[idx])
    return px, py


def _run_attack(clean, cfg, family, lam, rho, kind):
    objective_name = {"nopt": "dispersion", "opt": "clean_loss"}[kind]
    p = cfg.n_poison if cfg.n_poison is not None else poison_count(clean.n, cfg.alpha)
    if p < 1:
        raise ValueError(f"poison budget rounds to zero points (alpha={cfg.alpha}, n={clean.n})")

    clean_model = fit(clean, family, lam, rho=rho).converged_model("attack's clean reference fit")
    ref_loss = loss(clean, clean_model, include_regularizer=False)
    if kind == "nopt":
        _require_reference(ref_loss, clean.n)

    d = clean.d
    # the poison points as rows (x, 1, y), moved in place; px and py are views
    # of them, and a step moves the x and y columns only
    rows = np.ones((p, d + 2))
    px, py = rows[:, :d], rows[:, d + 1]
    px[:], py[:] = _initial_poison(clean, p, np.random.default_rng(cfg.seed))
    # every row sum the loop needs is read off these moments; a trial swaps
    # the point's current row for the candidate by two rank-one updates
    clean_m = Moments.of(clean)
    opt = kind == "opt"
    # Opt's objective sums n_o clean losses; its stop test is on their mean
    box = math.sqrt(d + 1)
    tol = cfg.eps_conv * (clean.n if opt else 1)

    merged = clean_m + Moments(rows.T.dot(rows), p)
    theta = fit(merged, family, lam, rho=rho).converged_model("attack's first merged fit")
    refits = 2  # the clean reference fit and this one
    obj, u, scale = _objective(kind, merged, clean_m, theta, ref_loss)

    def record(i, model, value):
        return {"iter": i, "E": value, "mse_train": mse(clean, model),
                "theta": {"weights": model.weights.tolist(), "bias": model.bias}}

    trace = [record(0, theta, obj)]
    converged = False
    outer = 0
    for outer in range(1, cfg.max_outer_iters + 1):
        sweep_start = obj
        # a gradient reuses the accepted fit's u, explicit-term scale, q = S u
        # and H^-1; a sweep's first reads the rebuilt moments and solves its KKT system
        q, h_inv = (clean_m if opt else merged).stats.dot(u), None
        for c in range(p):
            row_c = rows[c]
            rhs = q[:-1] if opt else scale * q[:-1]
            ascent = _implicit_product(merged, theta, row_c, u, rhs, h_inv, scale)
            norm = math.sqrt(ascent.dot(ascent))
            if norm == 0.0 or not math.isfinite(norm):
                continue
            step = ascent / norm
            rest = merged.stats - row_c[:, None] * row_c
            eta = box
            for _ in range(MAX_BACKTRACKS):
                cand = np.minimum(np.maximum(row_c + eta * step, _ZERO), _ONE)
                # first-order gain of the clipped step: Armijo along the projection arc
                gain = float(ascent.dot(cand - row_c))
                if not gain > 0.0:
                    break  # clipped moves keep their sign and shrink with eta: no shorter one gains
                trial = Moments(rest + cand[:, None] * cand, merged.n)
                report = fit(trial, family, lam, rho=rho, warm_start=theta)
                refits += 1
                if report.converged:
                    evaluated = _objective(kind, trial, clean_m, report.model, ref_loss)
                    if evaluated[0] >= obj + ARMIJO_C * gain:
                        rows[c] = cand
                        merged, theta, h_inv = trial, report.model, report.h_inv
                        obj, u, scale = evaluated
                        q = (clean_m if opt else merged).stats.dot(u)
                        break
                eta *= SHRINK
            # all backtracks rejected: the point stays where it was
        trace.append(record(outer, theta, obj))
        if abs(obj - sweep_start) < tol:
            converged = True
            break
        # rebuilt from the rows once a sweep, so row swaps cannot drift
        merged = clean_m + Moments(rows.T.dot(rows), p)

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
    """Poison set as CSV text matching the input schema (features + target);
    a name holding a comma or quote is quoted, so csv.reader reads it back."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # floats are written by repr
    writer.writerow([*state.poison.feature_names, target_name])
    writer.writerows(np.column_stack([state.poison.features, state.poison.responses]).tolist())
    return buf.getvalue()

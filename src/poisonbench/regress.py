"""Linear model trainers and losses: OLS, Ridge, LASSO, Elastic-net.

The training objective is

    L(D, theta) = 1/2 * sum_i (w.x_i + b - y_i)^2 + lambda * Omega(w)

with Omega = 0 (OLS), 1/2 ||w||_2^2 (Ridge), ||w||_1 (LASSO), and
rho ||w||_1 + (1 - rho)/2 ||w||_2^2 (Elastic-net). The bias is never
regularized.

Every solver reads the data through its `Moments` (G = A^T A for A = [X 1],
c = A^T y and y^T y): OLS/Ridge invert the penalized Gram H once and take
theta = H^-1 c (the fit's report keeps H^-1 for the attack's gradient), with
a minimum-norm least-squares fallback when ||H||_F ||H^-1||_F, an upper bound
on the eigenvalue ratio, reaches 1/MIN_RCOND; LASSO/Elastic-net run cyclic
coordinate descent with soft-thresholding in covariance-update form on the
centred Gram, O(d^2) a sweep whatever N is: the bias is minimized out
exactly, so the sweeps cycle over the weights alone, and a column of zero
centred variance (a constant feature) keeps weight 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .records import FAMILIES

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10_000
MIN_RCOND = 1e-8  # below this eigenvalue ratio the normal equations lose too many digits
# a column whose centred variance is <= this times G_jj is constant; rounding
# leaves up to 140 ulps there (measured on 40 to 100,000 rows)
ZERO_VARIANCE_RTOL = 1024 * 2.0**-52
LAMBDA_GRID = tuple(np.logspace(-4, 0, 9))


def _penalty_mix(family: str, rho: float) -> tuple[float, float]:
    """(l1, l2) with Omega(w) = l1 ||w||_1 + l2/2 ||w||_2^2."""
    mixes = {"ols": (0.0, 0.0), "ridge": (0.0, 1.0), "lasso": (1.0, 0.0)}
    return mixes.get(family, (rho, 1.0 - rho))


@dataclass(frozen=True)
class RegressionModel:
    weights: np.ndarray
    bias: float
    family: str = "ols"
    lam: float = 0.0
    rho: float = 0.5

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features) @ self.weights + self.bias

    def penalty(self) -> float:
        """lambda * Omega(w) for this model's family."""
        l1, l2 = _penalty_mix(self.family, self.rho)
        w = self.weights
        l1_part = l1 * float(np.abs(w).sum()) if l1 else 0.0
        return self.lam * (l1_part + l2 * 0.5 * float(w @ w))

    def to_dict(self) -> dict:
        """The model as a JSON-ready dict: family, lambda, rho, weights, bias."""
        return {
            "family": self.family,
            "lambda": self.lam,
            "rho": self.rho,
            "weights": self.weights.tolist(),
            "bias": self.bias,
        }


@dataclass(frozen=True)
class FitReport:
    """A fit's model and status. Measure its training error with `mse` or
    `loss` on the fitted rows: moments would lose an exact fit's zero to
    cancellation."""

    model: RegressionModel
    iterations: int
    converged: bool
    fallback: bool = False  # minimum-norm least-squares used on a singular system
    # H^-1 of a closed-form fit that did not fall back, for the attack's gradient
    h_inv: np.ndarray | None = field(default=None, compare=False, repr=False)

    def converged_model(self, what: str) -> RegressionModel:
        """The model, or a RuntimeError naming `what` when the fit did not converge."""
        if not self.converged:
            raise RuntimeError(f"{what} did not converge ({self.iterations} iterations)")
        return self.model


@dataclass(frozen=True)
class Moments:
    """Sufficient statistics of n rows for the squared loss.

    With B = [X 1 y], stats = B^T B packs the Gram matrix G = A^T A of
    A = [X 1], the cross moments c = A^T y and y^T y.
    """

    stats: np.ndarray
    n: int

    @classmethod
    def from_rows(cls, x: np.ndarray, y: np.ndarray) -> "Moments":
        n, d = x.shape
        b = np.empty((n, d + 2))
        b[:, :d], b[:, d], b[:, d + 1] = x, 1.0, y
        return cls(b.T @ b, n)

    @classmethod
    def of(cls, data: "Dataset | Moments") -> "Moments":
        return data if isinstance(data, Moments) else cls.from_rows(data.features, data.responses)

    @property
    def d(self) -> int:
        return self.stats.shape[0] - 2

    @property
    def gram(self) -> np.ndarray:
        return self.stats[:-1, :-1]

    @property
    def cross(self) -> np.ndarray:
        return self.stats[:-1, -1]

    def __add__(self, other: "Moments") -> "Moments":
        return Moments(self.stats + other.stats, self.n + other.n)

    def __sub__(self, other: "Moments") -> "Moments":
        return Moments(self.stats - other.stats, self.n - other.n)

    def penalized_gram(self, lam: float) -> np.ndarray:
        """G + lam diag(1, ..., 1, 0): G plus a weight penalty's curvature."""
        h = self.gram.copy()
        if lam:
            d = self.d
            h.ravel()[: d * (d + 2) : d + 2] += lam  # the first d diagonal entries
        return h


def _residuals(ds: Dataset, model: RegressionModel) -> np.ndarray:
    if ds.d != model.weights.shape[0]:
        raise ValueError(f"dimension mismatch: data d={ds.d}, model d={model.weights.shape[0]}")
    return model.predict(ds.features) - ds.responses


def loss(ds: Dataset, model: RegressionModel, include_regularizer: bool = True) -> float:
    """1/2 sum of squared residuals, plus lambda*Omega(w) when the flag is on."""
    r = _residuals(ds, model)
    return 0.5 * float(r @ r) + (model.penalty() if include_regularizer else 0.0)


def mse(ds: Dataset, model: RegressionModel) -> float:
    """Mean squared error over the dataset; equals 2 * loss(off) / N."""
    if ds.n == 0:
        raise ValueError("mse of an empty dataset")
    r = _residuals(ds, model)
    return float(r @ r) / ds.n


def _solve_normal_equations(m: Moments, lam, rows):
    """OLS / Ridge: theta = H^-1 c for H = G + lam diag(1, ..., 1, 0), from
    one inverse. ||H||_F ||H^-1||_F bounds the eigenvalue ratio of H from
    above, within a factor d+1, so a system whose bound reaches 1/MIN_RCOND
    (or whose inverse fails) goes to minimum-norm least squares: on the rows
    when at hand, with Ridge's sqrt(lam) [I 0] rows appended, else on the
    system itself. Returns (w, b, fallback, H^-1 or None on a fallback)."""
    d = m.d
    h = m.penalized_gram(lam)
    try:
        h_inv = np.linalg.inv(h)
        hf, inv_f = h.ravel(), h_inv.ravel()
        # written so that a NaN bound falls back too
        well_posed = MIN_RCOND**2 * float(hf.dot(hf)) * float(inv_f.dot(inv_f)) < 1.0
    except np.linalg.LinAlgError:
        well_posed = False
    if well_posed:
        theta = h_inv.dot(m.cross)
        return theta[:d], float(theta[d]), False, h_inv
    a, rhs = h, m.cross
    if rows is not None:
        a = np.column_stack([rows.features, np.ones(rows.n)])
        a = np.vstack([a, np.sqrt(lam) * np.eye(d, d + 1)])
        rhs = np.concatenate([rows.responses, np.zeros(d)])
    theta, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
    return theta[:d], float(theta[d]), rank < d + 1, None


def _coordinate_descent(m: Moments, l1, l2, tol, max_iters, w0=None, b0=None):
    """Cyclic coordinate descent with soft-thresholding on the centred Gram
    (Friedman, Hastie & Tibshirani, 2010): the unpenalized bias is minimized
    out, b = (sum y - s.w) / n with s = X^T 1, and the sweeps cycle over w
    alone on Sigma = G_xx - s s^T / n and r = c_x - s sum(y) / n, keeping
    q = Sigma w. A column of rounding-level centred variance is collinear with
    the bias and keeps weight 0, the exact optimum for lambda > 0. Plain
    floats beat numpy calls at this size. Stops when the largest weight change
    or implied bias change in a sweep is < tol."""
    d, n = m.d, m.n
    g = m.stats.tolist()  # rows x_1..x_d, 1, y; g[d] = (s, n, sum y)
    s, sy = g[d][:d], g[d][d + 1]
    sig = [[gjk - sj * sk / n for gjk, sk in zip(gj, s)] for gj, sj in zip(g, s)]
    r = [gj[d + 1] - sj * sy / n for gj, sj in zip(g, s)]
    free = [j for j in range(d) if sig[j][j] > ZERO_VARIANCE_RTOL * g[j][j]]
    w = [0.0] * d
    if w0 is not None:
        for j in free:
            w[j] = float(w0[j])
    q = [sum(sk * wk for sk, wk in zip(row, w)) for row in sig]
    b = sy / n if b0 is None else float(b0)
    for it in range(1, max_iters + 1):
        max_delta = 0.0
        for j in free:
            sj, wj = sig[j], w[j]
            rho_j = r[j] - q[j] + sj[j] * wj
            new = math.copysign(max(abs(rho_j) - l1, 0.0), rho_j) / (sj[j] + l2)
            if new != wj:
                delta = new - wj
                q = [qk + sk * delta for qk, sk in zip(q, sj)]
                w[j] = new
                max_delta = max(max_delta, abs(delta))
        b_next = (sy - sum(sk * wk for sk, wk in zip(s, w))) / n
        max_delta = max(max_delta, abs(b_next - b))
        b = b_next
        if max_delta < tol:
            return np.array(w), b, it, True
    return np.array(w), b, max_iters, False


def fit(
    data: Dataset | Moments,
    family: str = "ols",
    lam: float = 0.0,
    rho: float = 0.5,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    warm_start: RegressionModel | None = None,
) -> FitReport:
    """Minimize the regularized training loss on a Dataset or its Moments;
    deterministic.

    warm_start seeds the coordinate-descent families only; closed-form
    families ignore it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    m = Moments.of(data)
    if m.n < m.d + 1:
        raise ValueError(f"need N >= d+1 rows to fit, got N={m.n}, d={m.d}")
    if family == "ols":
        lam = 0.0  # OLS has no penalty by definition

    rows = data if isinstance(data, Dataset) else None
    if family in ("ols", "ridge"):
        w, b, fallback, h_inv = _solve_normal_equations(m, lam, rows)
        iterations, converged = 1, True
    else:
        l1, l2 = _penalty_mix(family, rho)
        w0 = b0 = None
        if warm_start is not None and warm_start.weights.shape[0] == m.d:
            w0, b0 = warm_start.weights, warm_start.bias
        w, b, iterations, converged = _coordinate_descent(
            m, lam * l1, lam * l2, tol, max_iters, w0, b0
        )
        fallback, h_inv = False, None
    model = RegressionModel(w, b, family, lam, rho)
    return FitReport(model, iterations, converged, fallback, h_inv)


def select_lambda(train: Dataset, validation: Dataset, family: str, rho: float = 0.5) -> float:
    """Pick lambda from LAMBDA_GRID by validation MSE; ties go to the
    smallest candidate, and a candidate whose fit did not converge is
    skipped. OLS always gets 0."""
    if family == "ols":
        return 0.0
    best_lam, best_mse = None, None
    for lam in LAMBDA_GRID:
        report = fit(train, family, float(lam), rho=rho)
        if not report.converged:
            continue
        v = mse(validation, report.model)
        if best_mse is None or v < best_mse:
            best_lam, best_mse = float(lam), v
    if best_lam is None:
        raise RuntimeError(f"no {family} fit on the lambda grid converged")
    return best_lam

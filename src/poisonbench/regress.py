"""Linear model trainers and losses: OLS, Ridge, LASSO, Elastic-net.

The training objective is

    L(D, theta) = 1/2 * sum_i (w.x_i + b - y_i)^2 + lambda * Omega(w)

with Omega = 0 (OLS), 1/2 ||w||_2^2 (Ridge), ||w||_1 (LASSO), and
rho ||w||_1 + (1 - rho)/2 ||w||_2^2 (Elastic-net). The bias is never
regularized.

Every solver reads the data through its `Moments` (G = A^T A for A = [X 1],
c = A^T y and y^T y). `_solve` is the one rule for a penalized Gram system
H, in the OLS/Ridge fits and the attack's `_kkt_solve` alike: x = H^-1 rhs
from one inverse (a fit's report keeps H^-1), or minimum-norm least squares
when ||H||_F ||H^-1||_F, an upper bound on the eigenvalue ratio, reaches
1/MIN_RCOND or is NaN. The inverse is the LAPACK gufunc behind
`np.linalg.inv`, called directly for the same bits: at d <= 8 the wrapper's
checks and error state cost about as much as the inverse itself (11 against
5 us at d = 5 on a 2-vCPU Xeon), and Proda fits twice a trial. With
floating-point errors ignored, a singular H comes back NaN-filled instead of
raising, and its NaN bound falls back.
LASSO/Elastic-net run cyclic coordinate descent with soft-thresholding in
covariance-update form on the centred Gram, O(d^2) a sweep whatever N is:
the bias is minimized out exactly, so the sweeps cycle over the weights
alone, and a column of zero centred variance (a constant feature) keeps
weight 0. The sweeps run in a
function generated from source and compiled once per number k of free
weights (`_sweep_kernel`, cached by k) for k up to KERNEL_MAX_K = 8: every
matrix and vector entry is a local variable, so a weight change updates q
in k straight-line lines instead of a loop over lists, in the float order
of that loop, bit for bit, and a fit takes a third to a half of the time.
Compiling grows as k^2 (see KERNEL_MAX_K), so wider systems run the same
sweeps as that loop over lists (`_sweep_loop`), which compiles nothing.
Both sum left to right from 0.0 and take maxima and absolute values by
comparison, so `copysign` is the only call in a coordinate update and the
sweeps return Python 3.11's bits on every Python (from 3.12 the builtin
`sum` is compensated).
Moments holding NaN or inf raise a ValueError naming them, for every family.
Products call `ndarray.dot`, not `@`, as in `attack`: the same BLAS call
and bits at about half the dispatch cost on small operands (0.47 against
0.91 us for two 5-vectors, numpy 2.4.6, 2-vCPU Xeon).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import inv as _lapack_inv  # the gufunc under np.linalg.inv

from .data import Dataset
from .records import FAMILIES

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10_000
MIN_RCOND = 1e-8  # below this eigenvalue ratio the normal equations lose too many digits
# a column whose centred variance is <= this times G_jj is constant; rounding
# leaves up to 140 ulps there (measured on 40 to 100,000 rows)
ZERO_VARIANCE_RTOL = 1024 * 2.0**-52
# the widest system whose sweeps are compiled (`_sweep_kernel`). The kernel
# runs a LASSO fit 2-3 times as fast as `_sweep_loop`, so it pays back its
# compile after 20-40 fits of one k, but the compile grows as k^2 (Python
# 3.11, 2-vCPU Xeon; median of 7 fresh processes, tracemalloc peak): 1.0 ms
# and 0.2 MB at k = 2, 2.3 ms and 0.5 MB at 5, 3.0 ms and 1.0 MB at 8, 25 ms
# and 4.2 MB at 20; at 160 it took 1 s and 241 MB. At k <= 8 the nine
# kernels a process can hold cost at most ~20 ms in all and keep under
# 0.1 MB; wider systems, which one-off fits of one-hot tables reach, run
# `_sweep_loop` instead
KERNEL_MAX_K = 8
LAMBDA_GRID = tuple(np.logspace(-4, 0, 9))


def _penalty_mix(family: str, rho: float) -> tuple[float, float]:
    """(l1, l2) with Omega(w) = l1 ||w||_1 + l2/2 ||w||_2^2."""
    mixes = {"ols": (0.0, 0.0), "ridge": (0.0, 1.0), "lasso": (1.0, 0.0)}
    return mixes.get(family, (rho, 1.0 - rho))


def _check_settings(family: str, lam: float, rho: float) -> None:
    """The family, lambda and rho rule of `fit` and `RegressionModel`."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if isinstance(lam, bool) or not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if isinstance(rho, bool) or not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")


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
        _check_settings(self.family, self.lam, self.rho)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features).dot(self.weights) + self.bias

    def penalty(self) -> float:
        """lambda * Omega(w) for this model's family."""
        l1, l2 = _penalty_mix(self.family, self.rho)
        w = self.weights
        l1_part = l1 * float(np.abs(w).sum()) if l1 else 0.0
        return self.lam * (l1_part + l2 * 0.5 * float(w.dot(w)))

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
        return cls(b.T.dot(b), n)

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
    return 0.5 * float(r.dot(r)) + (model.penalty() if include_regularizer else 0.0)


def mse(ds: Dataset, model: RegressionModel) -> float:
    """Mean squared error over the dataset; equals 2 * loss(off) / N."""
    if ds.n == 0:
        raise ValueError("mse of an empty dataset")
    r = _residuals(ds, model)
    return float(r.dot(r)) / ds.n


def _non_finite_error(stats: np.ndarray) -> ValueError:
    """The ValueError naming each non-finite sum in `stats`, a fit's moments
    or a system's [H rhs], whose rows and columns run over (x_1..x_d, 1, y)."""
    names = [*(f"x{j}" for j in range(stats.shape[1] - 2)), "1", "y"]
    bad = ~np.isfinite(stats)
    bad[:, : len(bad)] |= bad[:, : len(bad)].T  # an entry or its mirror
    sums = (f"sum {names[i]}*{names[j]}" for i, j in zip(*np.nonzero(np.triu(bad))))
    return ValueError("a fit needs finite moments; non-finite: " + ", ".join(sums))


@np.errstate(all="ignore")
def _solve(h: np.ndarray, rhs: np.ndarray, rows: Dataset | None = None, lam: float = 0.0):
    """x solving H x = rhs for a penalized Gram H, the one rule for the
    closed-form fits and the attack's implicit gradient: x = H^-1 rhs from
    one inverse, unless ||H||_F ||H^-1||_F, an upper bound on the eigenvalue
    ratio of H within a factor d+1, reaches 1/MIN_RCOND or is NaN; then x
    is the minimum-norm least-squares solution, on the rows when given (with
    Ridge's sqrt(lam) [I 0] rows appended) and else on the system itself.
    A singular H inverts to NaN here and falls back the same way, and one
    holding NaN or inf raises the ValueError naming it there, before least
    squares hangs or fails on it (a non-finite rhs alone comes back in x).
    The whole call runs with floating-point errors ignored, since the
    bound's dots overflow on huge moments too. As a decorator, numpy 2's
    errstate is built once and enters its state per call, 0.5-1 us less
    than a `with` block around a 6x6 inverse. Returns (x, H^-1 or None,
    rank-deficient)."""
    h_inv = _lapack_inv(h, signature="d->d")  # NaN-filled when H is singular
    hf, inv_f = h.ravel(), h_inv.ravel()
    # written so that a NaN bound falls back too
    if MIN_RCOND**2 * float(hf.dot(hf)) * float(inv_f.dot(inv_f)) < 1.0:
        return h_inv.dot(rhs), h_inv, False
    system = np.column_stack((h, rhs))
    if not np.isfinite(system).all():
        raise _non_finite_error(system)
    if rows is not None:
        d = rows.d
        h = np.vstack([np.column_stack([rows.features, np.ones(rows.n)]),
                       np.sqrt(lam) * np.eye(d, d + 1)])
        rhs = np.concatenate([rows.responses, np.zeros(d)])
    x, _, rank, _ = np.linalg.lstsq(h, rhs, rcond=None)
    return x, None, bool(rank < h.shape[1])


def _kkt_solve(
    moments: Moments, model: RegressionModel, rhs: np.ndarray, h_inv: np.ndarray | None
) -> np.ndarray:
    """v solving H v = rhs for the Hessian H of the training objective at
    `model`, a minimizer on `moments`: H^-1 rhs when the caller holds H^-1
    of the model's closed-form fit, else by `_solve`'s rule. Under an l1
    penalty a zero weight stays at zero while the data move a little, so H is
    restricted to the active set and v is 0 there (Xiao et al., ICML 2015)."""
    if moments.n < moments.d + 1:
        raise ValueError("need n >= d+1 training rows for the KKT system")
    if h_inv is not None:
        return h_inv.dot(rhs)
    l1, l2 = _penalty_mix(model.family, model.rho)
    h = moments.penalized_gram(model.lam * l2)
    if model.lam * l1 > 0.0:
        # an identity row and column for each weight the l1 penalty holds
        # at zero solve the system on the active set and leave v = 0 there
        rhs = rhs.copy()
        for j, w_j in enumerate(model.weights.tolist()):
            if w_j == 0.0:
                h[j, :] = h[:, j] = rhs[j] = 0.0
                h[j, j] = 1.0
    return _solve(h, rhs)[0]


@functools.cache
def _sweep_kernel(k: int):
    """The coordinate-descent sweeps over k free weights, as one function
    whose source is built from the integer k alone, compiled once and
    cached by k: `_coordinate_descent` asks only for k <= KERNEL_MAX_K, so a
    process holds at most KERNEL_MAX_K + 1 of them. Every entry of Sigma, r,
    q and w is a local variable, so a weight change updates q in k
    straight-line lines rather than by list iteration, and the only call in
    a coordinate update is `copysign`. At k = 2 the source reads

        def sweeps(g, w, n, b, l1, l2, tol, max_iters):
            [[g0_0, g0_1, _, r0], [g1_0, g1_1, _, r1], [s0, s1, _, sy], _] = g
            [w0, w1] = w
            g0_0 = g0_0 - s0 * s0 / n
            g0_1 = g0_1 - s0 * s1 / n
            r0 = r0 - s0 * sy / n
            den0 = g0_0 + l2
            ...                                  # row 1 alike
            q0 = (0.0 + g0_0 * w0 + g0_1 * w1)
            q1 = (0.0 + g1_0 * w0 + g1_1 * w1)
            for it in range(1, max_iters + 1):
                max_delta = 0.0
                rho = r0 - q0 + g0_0 * w0
                t = (rho if rho >= 0.0 else -rho) - l1
                new = copysign(0.0 if 0.0 > t else t, rho) / den0
                if new != w0:
                    delta = new - w0
                    q0 = q0 + g0_0 * delta
                    q1 = q1 + g0_1 * delta
                    w0 = new
                    if delta > max_delta:
                        max_delta = delta
                    elif -delta > max_delta:
                        max_delta = -delta
                ...                              # coordinate 1 alike
                b_next = (sy - (0.0 + s0 * w0 + s1 * w1)) / n
                delta = b_next - b
                if delta > max_delta:
                    max_delta = delta
                elif -delta > max_delta:
                    max_delta = -delta
                b = b_next
                if max_delta < tol:
                    return [w0, w1], b, it, True
            return [w0, w1], b, max_iters, False

    g is the (k+2, k+2) moments of the free columns, 1 and y as nested
    lists, and w the starting weights. Each float operation is the one
    `_sweep_loop` does, in the same order, so weights, bias, sweep count
    and flag match it bit for bit: Sigma and r are centred entry by entry,
    and every sum is a chain from 0.0, left to right. That is what the
    builtin `sum` computes on Python 3.11 (0 + x is 0.0 + x for every
    float x, -0.0 included); from 3.12 `sum` is compensated, so the sweeps
    call none and return the same bits on every Python. The comparisons
    return the float `max` and `abs` would: `max(a, b)` keeps a unless b
    compares greater, so a NaN never replaces max_delta (which is never
    negative), and the soft threshold's |rho| may differ from `abs` only
    in the sign of a zero or a NaN, which `copysign` overwrites. The
    constant columns that both leave out would add only terms of
    0 * Sigma_jk to a loop over all d, which are +-0 and change no sum
    while Sigma is finite. Its compile costs are at KERNEL_MAX_K."""
    ix = range(k)
    rows = [[*(f"g{i}_{j}" for j in ix), "_", f"r{i}"] for i in ix]
    rows.append([*(f"s{j}" for j in ix), "_", "sy"])
    ws = ", ".join(f"w{i}" for i in ix)

    def total(a):  # the sum of a_j * w_j over the free j, left to right from 0.0
        return f"(0.0{''.join(f' + {a}{j} * w{j}' for j in ix)})"

    def widen(pad):  # max_delta = max(max_delta, abs(delta)), by comparison
        return [f"{pad}if delta > max_delta:", f"{pad}    max_delta = delta",
                f"{pad}elif -delta > max_delta:", f"{pad}    max_delta = -delta"]

    lines = [
        "def sweeps(g, w, n, b, l1, l2, tol, max_iters):",
        f"    [{', '.join('[' + ', '.join(row) + ']' for row in rows)}, _] = g",
        f"    [{ws}] = w",
    ]
    for i in ix:
        lines += [f"    g{i}_{j} = g{i}_{j} - s{i} * s{j} / n" for j in ix]
        lines += [f"    r{i} = r{i} - s{i} * sy / n", f"    den{i} = g{i}_{i} + l2"]
    lines += [f"    q{i} = {total(f'g{i}_')}" for i in ix]
    lines += ["    for it in range(1, max_iters + 1):", "        max_delta = 0.0"]
    for i in ix:
        lines += [
            f"        rho = r{i} - q{i} + g{i}_{i} * w{i}",
            "        t = (rho if rho >= 0.0 else -rho) - l1",
            f"        new = copysign(0.0 if 0.0 > t else t, rho) / den{i}",
            f"        if new != w{i}:",
            f"            delta = new - w{i}",
            *(f"            q{j} = q{j} + g{i}_{j} * delta" for j in ix),
            f"            w{i} = new",
            *widen(" " * 12),
        ]
    lines += [
        f"        b_next = (sy - {total('s')}) / n",
        "        delta = b_next - b",
        *widen(" " * 8),
        "        b = b_next",
        "        if max_delta < tol:",
        f"            return [{ws}], b, it, True",
        f"    return [{ws}], b, max_iters, False",
    ]
    namespace = {"copysign": math.copysign}
    exec(compile("\n".join(lines), f"<coordinate descent, k={k}>", "exec"), namespace)
    return namespace["sweeps"]


def _sweep_loop(g, w, n, b, l1, l2, tol, max_iters):
    """The sweeps of `_sweep_kernel(k)` as one loop over lists, for any k:
    the same arguments, float operations and order, so the same bits, with
    every sum a loop from 0.0 and every maximum and absolute value the
    kernel's comparisons. It runs the systems too wide to compile
    (k > KERNEL_MAX_K)."""
    k, copysign = len(w), math.copysign
    s, sy = g[k][:k], g[k][k + 1]
    sig = [[gij - si * sj / n for gij, sj in zip(gi, s)] for gi, si in zip(g, s)]
    r = [gi[k + 1] - si * sy / n for gi, si in zip(g, s)]
    q = []
    for row in sig:
        acc = 0.0
        for sij, wj in zip(row, w):
            acc = acc + sij * wj
        q.append(acc)
    for it in range(1, max_iters + 1):
        max_delta = 0.0
        for i in range(k):
            si, wi = sig[i], w[i]
            rho = r[i] - q[i] + si[i] * wi
            t = (rho if rho >= 0.0 else -rho) - l1
            new = copysign(0.0 if 0.0 > t else t, rho) / (si[i] + l2)
            if new != wi:
                delta = new - wi
                q = [qj + sij * delta for qj, sij in zip(q, si)]
                w[i] = new
                if delta > max_delta:
                    max_delta = delta
                elif -delta > max_delta:
                    max_delta = -delta
        acc = 0.0
        for sj, wj in zip(s, w):
            acc = acc + sj * wj
        b_next = (sy - acc) / n
        delta = b_next - b
        if delta > max_delta:
            max_delta = delta
        elif -delta > max_delta:
            max_delta = -delta
        b = b_next
        if max_delta < tol:
            return w, b, it, True
    return w, b, max_iters, False


def _coordinate_descent(m: Moments, l1, l2, tol, max_iters, w0=None, b0=None):
    """Cyclic coordinate descent with soft-thresholding on the centred Gram
    (Friedman, Hastie & Tibshirani, 2010): the unpenalized bias is minimized
    out, b = (sum y - s.w) / n with s = X^T 1, and the sweeps cycle over w
    alone on Sigma = G_xx - s s^T / n and r = c_x - s sum(y) / n, keeping
    q = Sigma w. A column of rounding-level centred variance is collinear with
    the bias and keeps weight 0, the exact optimum for lambda > 0, and drops
    out of the sweeps, which run on the k free columns in `_sweep_kernel(k)`
    up to k = KERNEL_MAX_K and in `_sweep_loop` above it, to the same bits.
    Stops when the largest weight change or implied bias change in a sweep
    is < tol. Moments holding NaN or inf raise a ValueError that names them:
    a sweep over them would report convergence on a NaN model. So do sweeps
    that overflow on finite moments, seen in b = (sum y - s.w) / n, which
    any non-finite weight makes non-finite (0 * inf is NaN)."""
    d, n = m.d, m.n
    if not np.isfinite(m.stats).all():
        raise _non_finite_error(m.stats)
    g = m.stats.tolist()  # rows x_1..x_d, 1, y; g[d] = (s, n, sum y)
    s, sy = g[d], g[d][d + 1]
    free = [j for j in range(d) if g[j][j] - s[j] * s[j] / n > ZERO_VARIANCE_RTOL * g[j][j]]
    w = [0.0] * d if w0 is None else w0.tolist()
    if len(free) < d:
        keep = [*free, d, d + 1]
        g = [[g[i][j] for j in keep] for i in keep]
        w = [w[j] for j in free]
    b = sy / n if b0 is None else float(b0)
    k = len(free)
    run = _sweep_kernel(k) if k <= KERNEL_MAX_K else _sweep_loop
    w, b, sweeps, converged = run(g, w, n, b, l1, l2, tol, max_iters)
    if not math.isfinite(b):
        raise ValueError("coordinate descent sweeps overflowed on finite moments")
    if k == d:
        return np.array(w), b, sweeps, converged
    weights = np.zeros(d)
    weights[free] = w
    return weights, b, sweeps, converged


def fit(
    data: Dataset | Moments,
    family: str = "ols",
    lam: float = 0.0,
    rho: float = 0.5,
    warm_start: RegressionModel | None = None,
) -> FitReport:
    """Minimize the regularized training loss on a Dataset or its Moments;
    deterministic. Coordinate descent stops at the module's DEFAULT_TOL or
    after DEFAULT_MAX_ITERS sweeps, read at call time.

    warm_start seeds the coordinate-descent families only; closed-form
    families ignore it.
    """
    _check_settings(family, lam, rho)
    m = Moments.of(data)
    d = m.d
    if m.n < d + 1:
        raise ValueError(f"need N >= d+1 rows to fit, got N={m.n}, d={d}")
    if family == "ols":
        lam = 0.0  # OLS has no penalty by definition

    rows = data if isinstance(data, Dataset) else None
    if family in ("ols", "ridge"):
        theta, h_inv, fallback = _solve(m.penalized_gram(lam), m.cross, rows, lam)
        w, b = theta[:d], float(theta[d])
        # b sums every entry of c times a finite number (0 * inf is NaN)
        if not math.isfinite(b) and not np.isfinite(m.stats).all():
            raise _non_finite_error(m.stats)
        iterations, converged = 1, True
    else:
        l1, l2 = _penalty_mix(family, rho)
        w0 = b0 = None
        if warm_start is not None and warm_start.weights.shape[0] == d:
            w0, b0 = warm_start.weights, warm_start.bias
        w, b, iterations, converged = _coordinate_descent(
            m, lam * l1, lam * l2, DEFAULT_TOL, DEFAULT_MAX_ITERS, w0, b0
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

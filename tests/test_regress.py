import dataclasses
import gc
import hashlib
import math
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poisonbench import regress
from poisonbench.data import Dataset, SyntheticSpec, generate_synthetic, load_csv, split_three
from poisonbench.regress import (
    DEFAULT_TOL,
    FAMILIES,
    MIN_RCOND,
    FitReport,
    Moments,
    RegressionModel,
    fit,
    loss,
    mse,
    select_lambda,
)

from conftest import make_noisy_dataset, run_python, write_collinear_csv


def grad_eq4(ds, model):
    """Gradient of the regularized training loss at (w, b)."""
    r = model.predict(ds.features) - ds.responses
    gw = ds.features.T @ r
    if model.family == "ridge":
        gw = gw + model.lam * model.weights
    elif model.family == "enet":
        gw = gw + model.lam * (1 - model.rho) * model.weights
    return np.concatenate([gw, [r.sum()]])


class TestFit:
    def test_exact_interpolation(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        report = fit(ds, "ols")
        assert report.model.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert report.model.bias == pytest.approx(0.0, abs=1e-12)
        assert mse(ds, report.model) == pytest.approx(0.0, abs=1e-24)

    def test_ridge_small_lambda_matches_ols(self):
        ds = make_noisy_dataset(n=40, d=3, seed=1)
        w_ols = fit(ds, "ols").model.weights
        w_ridge = fit(ds, "ridge", 1e-12).model.weights
        assert np.max(np.abs(w_ols - w_ridge)) <= 1e-6

    def test_hand_solved_normal_equations(self):
        # three points (0,0), (0.5,0.4), (1,1): slope 1, intercept -1/30
        ds = Dataset(np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 0.4, 1.0]))
        model = fit(ds, "ols").model
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert model.bias == pytest.approx(-1.0 / 30.0, abs=1e-12)

    def test_singular_system_uses_fallback(self):
        x = np.array([[0.1, 0.1], [0.4, 0.4], [0.9, 0.9]])  # duplicated column
        ds = Dataset(x, np.array([0.1, 0.4, 0.9]))
        report = fit(ds, "ols")
        assert report.fallback
        assert mse(ds, report.model) <= 1e-20

    def test_fallback_is_a_python_bool(self):
        x = np.array([[0.1, 0.1], [0.4, 0.4], [0.9, 0.9]])
        singular = Dataset(x, np.array([0.1, 0.4, 0.9]))
        for data, fell_back in ((singular, True), (Moments.of(singular), True),
                                (make_noisy_dataset(seed=2), False)):
            report = fit(data, "ols")
            assert type(report.fallback) is bool and report.fallback is fell_back

    @pytest.mark.parametrize("spread", [1e-3, 1e-7])
    def test_near_collinear_full_rank_matches_lstsq(self, spread):
        # the second column is the first plus a sliver: full rank, but the
        # normal equations square a condition number of about 1/spread
        rng = np.random.default_rng(12)
        x1 = rng.uniform(size=40)
        x = np.column_stack([x1, x1 + spread * rng.uniform(size=40)])
        y = 0.3 * x[:, 0] - 0.2 * x[:, 1] + 0.5 + rng.normal(0.0, 0.01, size=40)
        report = fit(Dataset(x, y), "ols")
        expected, _, rank, _ = np.linalg.lstsq(np.column_stack([x, np.ones(40)]), y, rcond=None)
        assert rank == 3
        assert not report.fallback
        got = np.append(report.model.weights, report.model.bias)
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_ols_forces_zero_lambda(self):
        ds = make_noisy_dataset(seed=2)
        assert fit(ds, "ols", lam=5.0).model.lam == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("lam", [np.inf, np.nan, True])
    def test_rejects_a_lambda_that_is_not_finite(self, family, lam):
        ds = make_noisy_dataset(seed=2)
        with pytest.raises(ValueError, match="lambda must be finite"):
            fit(ds, family, lam)
        with pytest.raises(ValueError, match="lambda must be finite"):
            RegressionModel(np.zeros(3), 0.0, family, lam)

    def test_takes_a_numpy_float_lambda(self):
        ds = make_noisy_dataset(seed=2)
        assert fit(ds, "ridge", np.float64(0.25)).model.lam == 0.25
        assert RegressionModel(np.zeros(3), 0.0, "ridge", np.float64(0.25)).lam == 0.25

    def test_rejects_underdetermined(self):
        ds = Dataset(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="d\\+1"):
            fit(ds, "ols")

    @pytest.mark.parametrize("family,lam", [("ols", 0.0), ("ridge", 0.3)])
    def test_closed_form_stationarity(self, family, lam):
        for seed in range(5):
            ds = make_noisy_dataset(n=60, d=4, seed=seed)
            model = fit(ds, family, lam).model
            assert np.max(np.abs(grad_eq4(ds, model))) <= 1e-8

    @pytest.mark.parametrize("family,lam,rho", [("lasso", 0.01, 1.0), ("enet", 0.01, 0.5)])
    def test_subgradient_optimality(self, family, lam, rho):
        for seed in range(5):
            ds = make_noisy_dataset(n=60, d=4, seed=seed)
            report = fit(ds, family, lam, rho=rho)
            assert report.converged
            model = report.model
            r = model.predict(ds.features) - ds.responses
            l1 = lam * (rho if family == "enet" else 1.0)
            l2 = lam * (1 - rho) if family == "enet" else 0.0
            for j in range(ds.d):
                g = float(ds.features[:, j] @ r) + l2 * model.weights[j]
                if model.weights[j] != 0.0:
                    assert abs(g + l1 * np.sign(model.weights[j])) <= 1e-5
                else:
                    assert abs(g) <= l1 + 1e-5
            assert abs(r.sum()) <= 1e-5

    def test_ridge_weight_norm_monotone_in_lambda(self):
        for seed in range(5):
            ds = make_noisy_dataset(n=50, d=3, seed=seed + 10)
            lams = [0.01, 0.1, 1.0, 10.0]
            norms = [np.linalg.norm(fit(ds, "ridge", lam).model.weights) for lam in lams]
            assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_ols_beats_dense_grid(self):
        ds = make_noisy_dataset(n=30, d=1, seed=3)
        best = fit(ds, "ols").model
        best_mse = mse(ds, best)
        for w in np.linspace(best.weights[0] - 0.5, best.weights[0] + 0.5, 41):
            for b in np.linspace(best.bias - 0.5, best.bias + 0.5, 41):
                other = RegressionModel(np.array([w]), float(b))
                assert best_mse <= mse(ds, other) + 1e-15

    def test_train_loss_is_half_n_times_mse_for_ols(self):
        ds = make_noisy_dataset(n=35, seed=4)
        report = fit(ds, "ols")
        assert loss(ds, report.model) == pytest.approx(ds.n / 2 * mse(ds, report.model), rel=1e-12)


def random_rows(seed, d, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = np.clip(x @ rng.uniform(-0.5, 0.5, size=d) + 0.4 + rng.normal(0.0, 0.1, size=n), 0.0, 1.0)
    return x, y


class TestMoments:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        extra=st.integers(0, 40),
        family=st.sampled_from(FAMILIES),
        lam=st.floats(1e-4, 1.0),
    )
    def test_fit_on_moments_equals_fit_on_rows(self, seed, d, extra, family, lam):
        n = 2 * (d + 1) + extra
        x, y = random_rows(seed, d, n)
        ds = Dataset(x, y)
        by_rows = fit(ds, family, lam, rho=0.3)
        by_moments = fit(Moments.of(ds), family, lam, rho=0.3)
        assert np.array_equal(by_moments.model.weights, by_rows.model.weights)
        assert by_moments.model.bias == by_rows.model.bias
        assert by_moments.iterations == by_rows.iterations
        assert by_moments.converged == by_rows.converged
        if family in ("ols", "ridge"):
            # least squares on the rows; Ridge appends sqrt(lam) [I 0] rows
            a = np.column_stack([x, np.ones(n)])
            rhs = y
            if family == "ridge":
                a = np.vstack([a, np.sqrt(lam) * np.eye(d, d + 1)])
                rhs = np.concatenate([y, np.zeros(d)])
            expected = np.linalg.lstsq(a, rhs, rcond=None)[0]
            got = np.append(by_moments.model.weights, by_moments.model.bias)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), n=st.integers(2, 30))
    def test_replace_row_is_the_moments_of_the_new_rows(self, seed, d, n):
        x, y = random_rows(seed, d, n)
        rng = np.random.default_rng(seed + 1)
        i = int(rng.integers(n))
        x_new, y_new = rng.uniform(size=d), float(rng.uniform())
        # replace row i: its moments out, the new row's in
        full, row = Moments.from_rows(x, y), Moments.from_rows(x[i : i + 1], y[i : i + 1])
        updated = (Moments(full.stats - row.stats, full.n - row.n)
                   + Moments.from_rows(x_new[None], [y_new]))
        x2, y2 = x.copy(), y.copy()
        x2[i], y2[i] = x_new, y_new
        rebuilt = Moments.from_rows(x2, y2)
        assert updated.n == rebuilt.n == n
        np.testing.assert_allclose(updated.stats, rebuilt.stats, rtol=0, atol=1e-12 * n)

    def test_sum_is_the_moments_of_the_stacked_rows(self):
        x, y = random_rows(13, 3, 20)
        both = Moments.from_rows(x[:12], y[:12]) + Moments.from_rows(x[12:], y[12:])
        assert both.n == 20
        np.testing.assert_allclose(both.stats, Moments.from_rows(x, y).stats, rtol=1e-14)


def penalized_gram_by_loop(m, lam):
    """G + lam diag(1, ..., 1, 0) one diagonal entry at a time."""
    h = m.gram.copy()
    for j in range(m.d):
        h[j, j] += lam
    return h


class TestLeanFit:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 8),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    )
    def test_penalized_gram_is_the_loop_bit_for_bit(self, data, d, lam):
        n = data.draw(st.integers(1, 12))
        rows = data.draw(hnp.arrays(float, (n, d + 1), elements=st.floats(-1e3, 1e3)))
        m = Moments.from_rows(rows[:, :d], rows[:, d])
        stats = m.stats.copy()
        assert m.penalized_gram(lam).tobytes() == penalized_gram_by_loop(m, lam).tobytes()
        assert m.stats.tobytes() == stats.tobytes()  # the moments are left as they were

    def test_report_holds_no_reference_to_its_input(self):
        ds = make_noisy_dataset(n=30, d=1, seed=3)
        report = fit(ds, "ridge", 0.1)
        ref = weakref.ref(ds)
        del ds
        gc.collect()
        assert ref() is None
        assert repr(report) == (
            f"FitReport(model={report.model!r}, iterations=1, converged=True, fallback=False)"
        )


def near_collinear(spread, n=40, seed=12):
    """Two columns that differ by spread * uniform noise, and a response."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(size=n)
    x = np.column_stack([x1, x1 + spread * rng.uniform(size=n)])
    return Dataset(x, 0.3 * x[:, 0] - 0.2 * x[:, 1] + 0.5 + rng.normal(0.0, 0.01, size=n))


class TestInverseFactor:
    """A closed-form fit inverts its penalized Gram H once; the condition
    test reads ||H||_F ||H^-1||_F, which bounds the eigenvalue ratio."""

    @pytest.mark.parametrize("family,lam", [("ols", 0.0), ("ridge", 0.3)])
    def test_report_carries_the_inverse_of_the_penalized_gram(self, family, lam):
        m = Moments.of(make_noisy_dataset(n=50, d=3, seed=4))
        report = fit(m, family, lam)
        np.testing.assert_allclose(report.h_inv @ m.penalized_gram(lam), np.eye(4), atol=1e-10)
        h_inv_field = {f.name: f for f in dataclasses.fields(FitReport)}["h_inv"]
        assert not h_inv_field.compare and not h_inv_field.repr

    def test_no_inverse_from_coordinate_descent_or_a_fallback(self):
        ds = make_noisy_dataset(n=50, d=3, seed=4)
        assert fit(ds, "lasso", 0.01).h_inv is None
        assert fit(ds, "enet", 0.01).h_inv is None
        x = np.array([[0.1, 0.1], [0.4, 0.4], [0.9, 0.9]])  # duplicated column
        report = fit(Dataset(x, np.array([0.1, 0.4, 0.9])), "ols")
        assert report.fallback and report.h_inv is None

    @pytest.mark.parametrize("on_rows", [True, False])
    @pytest.mark.parametrize("spread", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 0.0])
    def test_every_system_the_eigenvalue_test_flags_falls_back(self, monkeypatch, spread,
                                                              on_rows):
        ds = near_collinear(spread)
        h = Moments.of(ds).penalized_gram(0.0)
        eig = np.linalg.eigvalsh(h)
        real_lstsq, calls = np.linalg.lstsq, []

        def counting_lstsq(*args, **kwargs):
            calls.append(1)
            return real_lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        report = fit(ds if on_rows else Moments.of(ds), "ols")
        if eig[0] <= MIN_RCOND * eig[-1]:
            assert calls == [1] and report.h_inv is None
        elif eig[0] > h.shape[0] * MIN_RCOND * eig[-1]:
            # outside the band of width d+1 where the Frobenius bound can differ
            assert calls == [] and report.h_inv is not None
        if spread == 0.0:  # exactly singular
            assert report.fallback


def reference_normal_equations(m, lam):
    """The closed-form solve through np.linalg.inv, which raises on a
    singular H: (w, b, H^-1), or None where the fit must fall back."""
    d, h = m.d, m.penalized_gram(lam)
    try:
        h_inv = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        return None
    hf, inv_f = h.ravel(), h_inv.ravel()
    if not MIN_RCOND**2 * float(hf.dot(hf)) * float(inv_f.dot(inv_f)) < 1.0:
        return None
    theta = h_inv.dot(m.cross)
    return theta[:d], float(theta[d]), h_inv


def system_with_ratio(rng, d, ratio):
    """Moments whose Gram is Q diag(eigenvalues) Q^T with smallest over
    largest eigenvalue `ratio`, on a random basis Q, and a random c."""
    q, _ = np.linalg.qr(rng.normal(size=(d + 1, d + 1)))
    eig = np.geomspace(ratio, 1.0, d + 1) * rng.uniform(1.0, 100.0)
    stats = np.empty((d + 2, d + 2))
    stats[:-1, :-1] = (q * eig) @ q.T
    stats[:-1, -1] = stats[-1, :-1] = rng.normal(size=d + 1)
    stats[-1, -1] = 1.0
    return Moments(stats, 10 * (d + 1))


def count_lstsq_calls(monkeypatch):
    """Patch np.linalg.lstsq to append to the returned list on each call."""
    real_lstsq, calls = np.linalg.lstsq, []

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    return calls


class TestGufuncInverse:
    """`_solve` calls the LAPACK gufunc under np.linalg.inv with
    floating-point errors ignored: the same bits where np.linalg.inv
    returns, and a NaN-filled H^-1, hence the fallback, where it raises.
    The suite turns any RuntimeWarning into a failure, so none may escape."""

    @staticmethod
    def assert_same_as_reference(m, family, lam):
        report, want = fit(m, family, lam), reference_normal_equations(m, lam)
        if want is None:
            assert report.h_inv is None
            return False
        w, b, h_inv = want
        assert report.h_inv.tobytes() == h_inv.tobytes()
        assert report.model.weights.tobytes() == w.tobytes()
        assert report.model.bias == b and not report.fallback
        return True

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("family,lam", [("ols", 0.0), ("ridge", 1e-3), ("ridge", 0.7)])
    def test_random_systems_are_np_linalg_inv_bit_for_bit(self, d, family, lam):
        rng = np.random.default_rng(d)
        for _ in range(20):
            x, y = rng.uniform(size=(3 * (d + 1), d)), rng.uniform(size=3 * (d + 1))
            assert self.assert_same_as_reference(Moments.from_rows(x, y), family, lam)

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("family", ["ols", "ridge"])
    def test_systems_in_the_condition_band_are_np_linalg_inv_bit_for_bit(self, d, family):
        # eigenvalue ratios from MIN_RCOND / 30 to 30 (d+1) MIN_RCOND, across
        # the band where the Frobenius bound decides between the two paths
        rng = np.random.default_rng(100 + d)
        lam = 0.0 if family == "ols" else 1e-12
        kept = [
            self.assert_same_as_reference(system_with_ratio(rng, d, ratio), family, lam)
            for ratio in np.geomspace(MIN_RCOND / 30, 30 * (d + 1) * MIN_RCOND, 24)
        ]
        assert any(kept) and not all(kept)

    @pytest.mark.parametrize("family", ["ols", "ridge"])
    @pytest.mark.parametrize("layout", ["duplicated column", "duplicated group rows"])
    @pytest.mark.parametrize("on_rows", [True, False])
    def test_exactly_singular_systems_fall_back(self, monkeypatch, family, layout, on_rows):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(12, 3))
        if layout == "duplicated column":
            x[:, 2] = x[:, 0]
        else:  # a group of 12 rows holding 3 distinct ones, fewer than d + 1
            x = x[[0, 1, 2] * 4]
        ds = Dataset(x, x @ [0.3, -0.2, 0.1] + 0.4)
        lam = 0.0  # a Ridge penalty would make the system regular
        if layout == "duplicated column":
            # two equal rows and columns of H: LU meets an exact zero pivot,
            # so H^-1 is NaN (the rounded Gram of repeated rows is not singular)
            with np.errstate(all="ignore"):
                h_inv = regress._lapack_inv(Moments.of(ds).penalized_gram(lam), signature="d->d")
            assert np.isnan(h_inv).all()
        calls = count_lstsq_calls(monkeypatch)
        report = fit(ds if on_rows else Moments.of(ds), family, lam)
        assert calls == [1] and report.h_inv is None and report.fallback

    @pytest.mark.parametrize("family", ["ols", "ridge"])
    @pytest.mark.parametrize("where", ["gram off-diagonal", "gram diagonal", "feature", "response"])
    def test_non_finite_systems_raise_before_least_squares(self, monkeypatch, family, where):
        # their NaN bound sends them toward the fallback, which raised a
        # LinAlgError from LAPACK; they now raise the ValueError that
        # coordinate descent raises, and never reach least squares. A
        # non-finite response leaves H finite: the solve's bias names it
        x, y = random_rows(22, 3, 20)
        if where in ("feature", "response"):
            if where == "feature":
                x[4, 2] = np.nan
            else:
                y[4] = np.nan
            data = Dataset(x, y)
        else:
            stats = Moments.from_rows(x, y).stats.copy()
            stats[(0, 1) if where == "gram off-diagonal" else (2, 2)] = (
                np.nan if where == "gram off-diagonal" else -np.inf)
            data = Moments(stats, 20)
        calls = count_lstsq_calls(monkeypatch)
        with pytest.raises(ValueError, match="non-finite: sum x") as info:
            fit(data, family, 0.1)
        assert not isinstance(info.value, np.linalg.LinAlgError) and calls == []

    @pytest.mark.parametrize("family", ["ols", "ridge"])
    def test_a_raising_caller_error_state_neither_escapes_nor_is_changed(self, family):
        # `_solve` quiets the inverse and the Frobenius bound, whose dots
        # overflow on a 1e300 entry, and hands the caller its own state back
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(12, 3))
        x[:, 2] = x[:, 0]  # exactly singular, as in the fallback test above
        singular = Dataset(x, x @ [0.3, -0.2, 0.1] + 0.4)
        huge = Moments.from_rows(rng.uniform(size=(20, 3)), rng.uniform(size=20)).stats.copy()
        huge[0, 0] = 1e300
        with np.errstate(all="raise"):
            caller = np.geterr()
            for data in (singular, Moments.of(singular)):
                report = fit(data, family, 0.0)
                assert report.fallback and report.h_inv is None
                assert np.geterr() == caller
            report = fit(Moments(huge, 20), family, 0.1)
            assert report.converged and np.isfinite(report.model.weights).all()
            assert np.geterr() == caller

    @pytest.mark.parametrize("entry,value,named", [
        ((0, 0), "inf", "sum x0*x0"),  # least squares spun for more than 5 s
        ((0, 1), "nan", "sum x0*x1"),  # LAPACK printed to stderr, then LinAlgError
        ((2, 2), "-inf", "sum x2*x2"),
        ((0, 4), "inf", "sum x0*y"),  # inf weights with converged=True
        ((0, 0), "1e300", None),  # finite: an overflow warning from the bound
    ])
    def test_closed_form_fits_of_extreme_moments_in_a_fresh_process(self, entry, value, named):
        """OLS and Ridge fits of d = 3 moments with one entry (and its
        mirror) set, run in a child process under a timeout, with every
        warning an error: a non-finite entry raises the ValueError naming
        it, silently, and a finite one fits without a warning."""
        code = f"""
import warnings
import numpy as np
from poisonbench.regress import Moments, fit
warnings.simplefilter("error")
rng = np.random.default_rng(0)
m = Moments.from_rows(rng.uniform(size=(20, 3)), rng.uniform(size=20))
stats = m.stats.copy()
stats[{entry}] = stats[{entry[::-1]}] = float("{value}")
for family in ("ols", "ridge"):
    try:
        fit(Moments(stats, m.n), family, 0.1)
        print("fitted")
    except ValueError as exc:
        print(type(exc).__name__, exc)
"""
        out = run_python(["-c", code], timeout=30)
        assert (out.returncode, out.stderr) == (0, "")
        want = "ValueError a fit needs finite moments; non-finite: " + named if named else "fitted"
        assert out.stdout.splitlines() == [want, want]


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["ols", "ridge"]),
    lam=st.floats(1e-4, 1.0),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_fit_on_moments_is_stationary(family, lam, d, seed):
    rng = np.random.default_rng(seed)
    n = 10 * (d + 1)
    x = rng.uniform(size=(n, d))
    m = Moments.from_rows(x, np.clip(x @ rng.uniform(-1, 1, d) + rng.normal(0, 0.1, n), 0, 1))
    model = fit(m, family, lam).model
    residual = m.penalized_gram(model.lam) @ np.append(model.weights, model.bias) - m.cross
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(m.cross)


def assert_stationary(x, y, report, l1, l2, tol=DEFAULT_TOL):
    """First-order optimality of a converged CD fit, checked on the rows.

    The bias is minimized out exactly, so the mean residual is 0. Each
    weight was optimal when last updated; the later weights of that sweep
    moved by < tol each, which leaves its gradient off by at most
    tol * sum_k |Sigma_jk| on the centred Gram Sigma.
    """
    model = report.model
    r = model.predict(x) - y
    xc = x - x.mean(axis=0)
    slack = tol * np.abs(xc.T @ xc).sum(axis=1).max() + 1e-12 * len(y)
    assert abs(r.mean()) <= tol
    for j, wj in enumerate(model.weights):
        g = float(x[:, j] @ r) + l2 * wj
        if wj != 0.0:
            assert abs(g + l1 * np.sign(wj)) <= slack
        else:
            assert abs(g) <= l1 + slack


class TestCoordinateDescent:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        extra=st.integers(0, 40),
        family=st.sampled_from(("lasso", "enet")),
        lam=st.sampled_from((0.0, 1e-4, 1e-2, 0.1, 1.0)),
        constant=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_fit_is_stationary(self, seed, d, extra, family, lam, constant):
        n = 2 * (d + 1) + extra
        x, y = random_rows(seed, d, n)
        if constant is not None:
            x[:, seed % d] = constant
        report = fit(Dataset(x, y), family, lam, rho=0.3)
        assert report.converged
        l1 = lam * (0.3 if family == "enet" else 1.0)
        l2 = lam * 0.7 if family == "enet" else 0.0
        assert_stationary(x, y, report, l1, l2)
        if constant is not None:
            # collinear with the bias: 0 is the optimum, and the min-norm one at lambda = 0
            assert report.model.weights[seed % d] == 0.0

    def test_constant_column_at_small_lambda_converges(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(40, 3))
        x[:, 1] = 0.7  # centred variance about 1e-14 after rounding
        y = x @ np.array([0.3, 0.0, -0.2]) + 0.4 + rng.normal(0.0, 0.05, size=40)
        report = fit(Dataset(x, y), "lasso", 1e-4)
        assert report.converged
        assert report.model.weights[1] == 0.0
        assert_stationary(x, y, report, 1e-4, 0.0)

    @pytest.mark.parametrize("family", ["lasso", "enet"])
    def test_warm_refit_after_moving_one_row_takes_few_sweeps(self, family):
        # the attack's line-search trial on the acceptance protocol's rows:
        # one row moved, then a refit warm-started from the fitted model
        clean, _ = generate_synthetic(SyntheticSpec(
            d=5, n=300, true_weights=(0.4, -0.3, 0.2, 0.5, -0.2), true_bias=0.4,
            noise_std=0.1, seed=3))
        x, y = clean.features, clean.responses
        m = Moments.of(clean)
        model = fit(m, family, 1e-2).model
        rng = np.random.default_rng(5)
        for i in rng.choice(clean.n, size=5, replace=False):
            row = Moments.from_rows(x[i : i + 1], y[i : i + 1])
            trial = (Moments(m.stats - row.stats, m.n - row.n)
                     + Moments.from_rows(rng.uniform(size=(1, 5)), [rng.uniform()]))
            report = fit(trial, family, 1e-2, warm_start=model)
            assert report.converged
            assert report.iterations <= 10

    @pytest.mark.parametrize("family", ["lasso", "enet"])
    @pytest.mark.parametrize("where,names", [
        ("feature", ["sum x2*x2", "sum x2*y"]),
        ("response", ["sum y*y"]),
        ("moment", ["sum x0*x1"]),
    ])
    def test_non_finite_data_raises_naming_the_moments(self, family, where, names):
        # a sweep over NaN moments ended with converged=True and a NaN model
        x, y = random_rows(21, 5, 30)
        if where == "feature":
            x[4, 2] = np.nan
            data = Dataset(x, y)
        elif where == "response":
            y[7] = np.inf
            data = Dataset(x, y)
        else:
            m = Moments.from_rows(x, y)
            stats = m.stats.copy()
            stats[0, 1] = np.nan  # one off-diagonal entry; stats[1, 0] stays finite
            data = Moments(stats, m.n)
        with pytest.raises(ValueError, match="non-finite") as info:
            fit(data, family, 1e-2)
        for name in names:
            assert name in str(info.value)

    @pytest.mark.parametrize("cap", [regress.KERNEL_MAX_K, -1])  # the kernel, then the loop
    @pytest.mark.parametrize("family", ["lasso", "enet"])
    def test_sweeps_that_overflow_on_finite_moments_raise(self, family, cap):
        # finite moments pass the check above, but these sweeps overflow and
        # ended with converged=True on NaN weights and bias after 3-4 sweeps
        m = Moments.from_rows(*random_rows(0, 3, 20))
        stats = m.stats.copy()
        stats[1, 2] = stats[2, 1] = 1e300
        with mock.patch.object(regress, "KERNEL_MAX_K", cap):
            with pytest.raises(ValueError, match="overflowed on finite moments"):
                fit(Moments(stats, m.n), family, 0.1)


def reference_coordinate_descent(m, l1, l2, tol, max_iters, w0=None, b0=None):
    """Coordinate descent as one interpreted loop over lists on all d
    columns, in the float order the sweeps must keep, every sum left to
    right from 0.0: `_sweep_kernel` and `_sweep_loop` return its weights,
    bias, sweep count and flag bit for bit."""
    d, n = m.d, m.n
    g = m.stats.tolist()
    s, sy = g[d][:d], g[d][d + 1]
    sig = [[gjk - sj * sk / n for gjk, sk in zip(gj, s)] for gj, sj in zip(g, s)]
    r = [gj[d + 1] - sj * sy / n for gj, sj in zip(g, s)]
    free = [j for j in range(d) if sig[j][j] > regress.ZERO_VARIANCE_RTOL * g[j][j]]
    w = [0.0] * d
    if w0 is not None:
        for j in free:
            w[j] = float(w0[j])
    q = []
    for row in sig:
        q_j = 0.0
        for sk, wk in zip(row, w):
            q_j = q_j + sk * wk
        q.append(q_j)
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
        sw = 0.0
        for sk, wk in zip(s, w):
            sw = sw + sk * wk
        b_next = (sy - sw) / n
        max_delta = max(max_delta, abs(b_next - b))
        b = b_next
        if max_delta < tol:
            return np.array(w), b, it, True
    return np.array(w), b, max_iters, False


def pure_python_systems():
    """200 coordinate-descent systems (g, w, n, b, l1, l2) as
    `_coordinate_descent` hands them to the sweeps, built without numpy:
    rows from `random.Random`, every Gram entry summed left to right. Ten
    row sets each at k = 2, 5, 8, 12 and 40 free weights, each with a
    LASSO and an Elastic-net mix from a cold and a warm start."""
    for k in (2, 5, 8, 12, 40):
        for seed in range(10):
            rng = random.Random(1000 * k + seed)
            n = 3 * k if k == 40 else (375 if seed % 2 else max(24, k + 2))
            true_w = [rng.uniform(-1.0, 1.0) for _ in range(k)]
            g = [[0.0] * (k + 2) for _ in range(k + 2)]
            for _ in range(n):
                x = [rng.random() for _ in range(k)]
                y = 0.1 * (rng.random() - 0.5)
                for xj, wj in zip(x, true_w):
                    y = y + xj * wj
                row = [*x, 1.0, y]
                for a in range(k + 2):
                    for c in range(a, k + 2):
                        g[a][c] = g[a][c] + row[a] * row[c]
            for a in range(k + 2):
                for c in range(a):
                    g[a][c] = g[c][a]
            lam = 1e-2 if seed % 4 < 2 else 1e-3
            warm_w, warm_b = [rng.uniform(-1.0, 1.0) for _ in range(k)], rng.random()
            for l1, l2 in ((lam, 0.0), (0.3 * lam, 0.7 * lam)):
                yield g, [0.0] * k, n, g[k][k + 1] / n, l1, l2
                yield g, warm_w, n, warm_b, l1, l2


# the sweeps' results on `pure_python_systems`, the same on every Python:
# the bits of Python 3.11, whose builtin `sum` adds left to right from 0
PURE_PYTHON_SWEEPS_SHA256 = "26ccf93b0079a9b431018bb7593a1610ce4857c374d6afa99ac2fdab1864837e"


class TestSweepKernel:
    """The compiled sweeps and `_sweep_loop` against the list loop, bit for
    bit."""

    @staticmethod
    def assert_same_bits(m, lam, mix, max_iters, warm, seed):
        l1, l2 = lam * mix[0], lam * mix[1]
        w0 = b0 = None
        if warm:
            rng = np.random.default_rng(seed)
            w0, b0 = rng.uniform(-1.0, 1.0, size=m.d), float(rng.uniform())
        want = reference_coordinate_descent(m, l1, l2, DEFAULT_TOL, max_iters, w0, b0)
        for cap in (-1, m.d):  # every k through `_sweep_loop`, then through the kernel
            with mock.patch.object(regress, "KERNEL_MAX_K", cap):
                got = regress._coordinate_descent(m, l1, l2, DEFAULT_TOL, max_iters, w0, b0)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
            assert got[2:] == want[2:]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        extra=st.integers(0, 30),
        mix=st.sampled_from([(1.0, 0.0), (0.3, 0.7), (0.0, 1.0)]),  # LASSO, ENet, rho = 0
        lam=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
        constant=st.lists(st.booleans(), min_size=8, max_size=8),
        max_iters=st.sampled_from([0, 1, 3, regress.DEFAULT_MAX_ITERS]),
        warm=st.booleans(),
    )
    def test_compiled_sweeps_are_the_list_loop(self, seed, d, extra, mix, lam, constant,
                                               max_iters, warm):
        x, y = random_rows(seed, d, d + 1 + extra)
        for j in range(d):
            if constant[j]:  # collinear with the bias: not a free coordinate
                x[:, j] = 0.7
        self.assert_same_bits(Moments.from_rows(x, y), lam, mix, max_iters, warm, seed)

    @pytest.mark.parametrize("d,n_constant", [(40, 0), (40, 3), (4, 4)])
    @pytest.mark.parametrize("warm", [False, True])
    def test_wide_and_all_constant_systems(self, d, n_constant, warm):
        x, y = random_rows(d, d, 3 * d)
        x[:, :n_constant] = 0.25
        self.assert_same_bits(Moments.from_rows(x, y), 1e-2, (1.0, 0.0),
                              regress.DEFAULT_MAX_ITERS, warm, d)

    def test_sweeps_return_the_same_bits_on_every_python(self):
        """The sha256 of the repr of every (weights, bias, sweeps, flag) that
        `_sweep_kernel(k)` (k <= 8) and `_sweep_loop` (every k) return on
        `pure_python_systems` is a constant. No numpy product touches those
        inputs, so the digest depends on CPython's float arithmetic alone:
        a sweep that summed with the builtin `sum`, which Python 3.12
        compensates, would change it there."""
        digest = hashlib.sha256()
        for g, w, n, b, l1, l2 in pure_python_systems():
            runs = [regress._sweep_loop]
            if len(w) <= 8:
                runs.append(regress._sweep_kernel(len(w)))
            for run in runs:
                got = run(g, list(w), n, b, l1, l2, DEFAULT_TOL, regress.DEFAULT_MAX_ITERS)
                digest.update(repr(got).encode())
        assert digest.hexdigest() == PURE_PYTHON_SWEEPS_SHA256

    def test_a_wide_fit_stays_within_its_budget(self):
        """A one-off LASSO fit on 200 free columns, alone in a fresh
        process, takes under 1 s and raises the peak RSS by under 32 MB.
        It takes about 0.2 s and 4 MB in `_sweep_loop`; compiling a kernel
        for k = 200 would take over a second and hundreds of MB."""
        code = """
import resource, time
import numpy as np
from poisonbench.data import Dataset
from poisonbench.regress import fit
rng = np.random.default_rng(200)
x = rng.uniform(size=(600, 200))
y = x @ rng.uniform(-0.5, 0.5, size=200) + rng.normal(0.0, 0.1, size=600)
ds = Dataset(x, y)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
report = fit(ds, "lasso", 1e-2)
elapsed = time.perf_counter() - start
grown_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(report.converged, elapsed, grown_mb)
"""
        out = run_python(["-c", code], check=True)
        converged, elapsed, grown_mb = out.stdout.split()
        assert converged == "True"
        assert float(elapsed) < 1.0 and float(grown_mb) < 32.0, out.stdout


class TestLossAndMse:
    def test_zero_on_the_line(self, line_dataset):
        model = fit(line_dataset, "ols").model
        assert loss(line_dataset, model, True) <= 1e-20
        assert loss(line_dataset, model, False) <= 1e-20
        assert mse(line_dataset, model) <= 1e-20

    def test_duplication_doubles_loss(self):
        ds = make_noisy_dataset(n=25, seed=5)
        model = fit(ds, "ols").model
        doubled = Dataset(
            np.vstack([ds.features, ds.features]),
            np.concatenate([ds.responses, ds.responses]),
        )
        assert loss(doubled, model, False) == pytest.approx(
            2 * loss(ds, model, False), rel=1e-12
        )

    def test_hand_summed_residuals(self):
        # residuals 0.1, -0.2, 0.1 under y = x
        model = RegressionModel(np.array([1.0]), 0.0)
        ds = Dataset(np.array([[0.1], [0.2], [0.3]]), np.array([0.0, 0.4, 0.2]))
        assert loss(ds, model, False) == pytest.approx(0.03, abs=1e-15)
        assert mse(ds, model) == pytest.approx(0.02, abs=1e-15)

    def test_mse_identity(self):
        ds = make_noisy_dataset(n=40, seed=6)
        model = fit(ds, "ridge", 0.1).model
        assert mse(ds, model) == pytest.approx(2 * loss(ds, model, False) / ds.n, rel=1e-12)

    def test_regularizer_flag(self):
        ds = make_noisy_dataset(n=40, seed=7)
        model = fit(ds, "ridge", 0.5).model
        assert loss(ds, model, True) - loss(ds, model, False) == pytest.approx(
            0.5 * 0.5 * float(model.weights @ model.weights), rel=1e-12
        )

    def test_empty_dataset_mse_errors(self):
        model = RegressionModel(np.array([1.0]), 0.0)
        with pytest.raises(ValueError, match="empty"):
            mse(Dataset(np.empty((0, 1)), np.empty(0)), model)


class TestSerialization:
    def test_model_json_values(self):
        model = RegressionModel(np.array([0.25, -0.5]), 0.125, "enet", 0.01, 0.3)
        doc = model.to_dict()
        assert doc == {"family": "enet", "lambda": 0.01, "rho": 0.3,
                       "weights": [0.25, -0.5], "bias": 0.125}

    def test_json_fields(self):
        doc = RegressionModel(np.array([1.0]), 0.0, "lasso", 0.1).to_dict()
        assert set(doc) == {"family", "lambda", "rho", "weights", "bias"}


class TestSelectLambda:
    def test_ols_gets_zero(self):
        ds = make_noisy_dataset(seed=8)
        assert select_lambda(ds, ds, "ols") == 0.0

    def test_picks_from_grid_deterministically(self):
        train = make_noisy_dataset(n=45, seed=9)
        val = make_noisy_dataset(n=45, seed=10)
        lam1 = select_lambda(train, val, "ridge")
        lam2 = select_lambda(train, val, "ridge")
        assert lam1 == lam2
        assert any(np.isclose(lam1, g) for g in np.logspace(-4, 0, 9))

    def test_candidate_that_does_not_converge_is_skipped(self, tmp_path):
        # lambda = 1e-4 has the lowest validation MSE (0.003437) but runs out
        # of sweeps; the best converged candidate is 1e-2 (0.003446)
        split = split_three(load_csv(write_collinear_csv(tmp_path / "c.csv"), "y")[0], 1337)
        assert not fit(split.train, "lasso", 1e-4).converged
        assert select_lambda(split.train, split.validation, "lasso") == 0.01

    def test_no_converged_candidate_raises(self, monkeypatch):
        real_fit = regress.fit
        monkeypatch.setattr(regress, "fit", lambda *a, **k: dataclasses.replace(
            real_fit(*a, **k), converged=False))
        ds = make_noisy_dataset(seed=8)
        with pytest.raises(RuntimeError, match="no ridge fit on the lambda grid converged"):
            select_lambda(ds, ds, "ridge")


class TestConvergenceFlag:
    def test_lasso_non_convergence_is_flagged_not_raised(self, monkeypatch):
        ds = make_noisy_dataset(n=60, d=4, seed=11)
        monkeypatch.setattr(regress, "DEFAULT_MAX_ITERS", 1)  # fit reads it at call time
        report = fit(ds, "lasso", 0.001)
        assert not report.converged
        assert report.iterations == 1


class TestRejectedInputs:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(family="lars"), "unknown family"),
        (dict(family="enet", rho=1.5), "rho"),
        (dict(family="enet", rho=-0.5), "rho"),
        (dict(family="enet", rho=float("nan")), "rho"),
        (dict(family="enet", rho=True), "rho"),
    ])
    def test_model_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RegressionModel(np.array([0.5]), 0.1, **kwargs)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("rho", [2.0, -0.5, float("nan"), True])
    def test_fit_rejects_rho_outside_the_unit_interval(self, family, rho):
        # checked before any solve: Elastic-net at rho = 2 divided by zero inside CD
        with pytest.raises(ValueError, match="rho must be in"):
            fit(Dataset([[0.0], [1.0]], [0.0, 1.0]), family, 0.5, rho=rho)

    def test_fit_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            fit(make_noisy_dataset(n=20, d=2, seed=13), "lars")

    @pytest.mark.parametrize("d_model", [1, 3])
    def test_loss_dimension_mismatch(self, d_model):
        model = RegressionModel(np.full(d_model, 0.1), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            loss(make_noisy_dataset(n=20, d=2, seed=14), model)

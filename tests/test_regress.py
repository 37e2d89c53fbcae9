import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poisonbench.data import Dataset, SyntheticSpec, generate_synthetic
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

from conftest import make_noisy_dataset


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
        assert report.train_mse == pytest.approx(0.0, abs=1e-24)

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
        assert report.train_mse <= 1e-20

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
    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_rejects_a_lambda_that_is_not_finite(self, family, lam):
        ds = make_noisy_dataset(seed=2)
        with pytest.raises(ValueError, match="lambda must be finite"):
            fit(ds, family, lam)
        with pytest.raises(ValueError, match="lambda must be finite"):
            RegressionModel(np.zeros(3), 0.0, family, lam)

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
        assert report.train_loss == pytest.approx(ds.n / 2 * report.train_mse, rel=1e-12)


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
        assert by_moments.train_loss == pytest.approx(by_rows.train_loss, rel=1e-9, abs=1e-12)
        assert by_moments.train_mse == pytest.approx(by_rows.train_mse, rel=1e-9, abs=1e-12)
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
        updated = (Moments.from_rows(x, y) - Moments.from_rows(x[i : i + 1], y[i : i + 1])
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

    def test_residual_loss_and_gradient_match_the_rows(self):
        x, y = random_rows(14, 4, 30)
        ds = Dataset(x, y)
        model = RegressionModel(np.array([0.1, -0.2, 0.3, 0.05]), 0.2)
        m = Moments.of(ds)
        assert m.residual_loss(model) == pytest.approx(loss(ds, model, False), rel=1e-12)
        r = model.predict(x) - y
        expected = np.append(x.T @ r, r.sum())
        np.testing.assert_allclose(m.residual_gradient(model), expected, atol=1e-12)


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lazy_train_stats_equal_the_eager_formulas(self, family):
        ds = make_noisy_dataset(n=40, d=3, seed=2)
        m = Moments.of(ds)
        lam = 0.0 if family == "ols" else 0.05
        on_rows, on_moments = fit(ds, family, lam, rho=0.3), fit(m, family, lam, rho=0.3)
        assert on_rows.train_mse == mse(ds, on_rows.model)  # read before train_loss
        assert on_rows.train_loss == loss(ds, on_rows.model, include_regularizer=True)
        residual = m.residual_loss(on_moments.model)
        assert on_moments.train_loss == residual + on_moments.model.penalty()
        assert on_moments.train_mse == 2.0 * residual / m.n
        assert on_moments.train_loss == on_moments.train_loss  # a second read is the same

    def test_stored_input_is_left_out_of_equality_and_repr(self):
        ds = make_noisy_dataset(n=30, d=1, seed=3)
        report = fit(ds, "ridge", 0.1)
        assert report.data is ds
        data_field = {f.name: f for f in dataclasses.fields(FitReport)}["data"]
        assert not data_field.compare and not data_field.repr
        # comparing two Datasets would raise: their arrays have no single truth value
        assert dataclasses.replace(report, data=ds.take(np.arange(ds.n))) == report
        assert repr(report) == (
            f"FitReport(model={report.model!r}, train_loss={report.train_loss!r}, "
            f"train_mse={report.train_mse!r}, iterations=1, converged=True, fallback=False)"
        )

    def test_unknown_attribute_is_not_a_lazy_statistic(self):
        report = fit(make_noisy_dataset(n=20, d=1, seed=4), "ols")
        assert not hasattr(report, "no_such_field")


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
            trial = (m - Moments.from_rows(x[i : i + 1], y[i : i + 1])
                     + Moments.from_rows(rng.uniform(size=(1, 5)), [rng.uniform()]))
            report = fit(trial, family, 1e-2, warm_start=model)
            assert report.converged
            assert report.iterations <= 10


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
    def test_model_json_round_trip(self):
        model = RegressionModel(np.array([0.25, -0.5]), 0.125, "enet", 0.01, 0.3)
        again = RegressionModel.from_json(model.to_json())
        assert np.array_equal(again.weights, model.weights)
        assert (again.bias, again.family, again.lam, again.rho) == (0.125, "enet", 0.01, 0.3)

    def test_json_fields(self):
        doc = json.loads(RegressionModel(np.array([1.0]), 0.0, "lasso", 0.1).to_json())
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


class TestConvergenceFlag:
    def test_lasso_non_convergence_is_flagged_not_raised(self):
        ds = make_noisy_dataset(n=60, d=4, seed=11)
        report = fit(ds, "lasso", 0.001, max_iters=1)
        assert not report.converged
        assert report.iterations == 1


class TestRejectedInputs:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(family="lars"), "unknown family"),
        (dict(family="enet", rho=1.5), "rho"),
        (dict(family="enet", rho=-0.5), "rho"),
        (dict(family="enet", rho=float("nan")), "rho"),
    ])
    def test_model_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RegressionModel(np.array([0.5]), 0.1, **kwargs)

    def test_fit_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            fit(make_noisy_dataset(n=20, d=2, seed=13), "lars")

    @pytest.mark.parametrize("d_model", [1, 3])
    def test_loss_dimension_mismatch(self, d_model):
        model = RegressionModel(np.full(d_model, 0.1), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            loss(make_noisy_dataset(n=20, d=2, seed=14), model)

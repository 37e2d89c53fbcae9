import csv
import dataclasses
import io
import json
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonbench import attack as attack_module
from poisonbench import harness, regress
from poisonbench.attack import (
    AttackConfig,
    DegenerateCleanLossError,
    dispersion_objective,
    nopt_attack,
    objective_gradient,
    opt_attack,
    opt_objective_gradient,
    poison_to_csv,
    theta_jacobian,
)
from poisonbench.data import Dataset, SyntheticSpec, merge
from poisonbench.regress import DEFAULT_TOL, Moments, _penalty_mix, fit, loss, mse

from conftest import make_noisy_dataset


def empty_poison(d):
    return Dataset(np.empty((0, d)), np.empty(0), provenance="poisoned")


def make_attack_instance(seed, d=None, n=50, family="ols", lam=0.0):
    """Clean data plus one off-distribution poison point and the merged fit."""
    rng = np.random.default_rng(seed)
    if d is None:
        d = int(rng.integers(1, 6))
    x = rng.uniform(size=(n, d))
    w = rng.uniform(-1.0, 1.0, size=d)
    y = np.clip(0.5 * x @ w + 0.3 + rng.normal(0.0, 0.05, size=n), 0.0, 1.0)
    clean = Dataset(x, y)
    px = rng.uniform(size=(1, d))
    pred = float((0.5 * px @ w + 0.3)[0])
    py = np.array([1.0 if pred < 0.5 else 0.0])
    poison = Dataset(px, py, provenance="poisoned")
    merged, _ = merge(clean, poison)
    model = fit(merged, family, lam).model
    ref = loss(clean, fit(clean, family, lam).model, include_regularizer=False)
    return clean, poison, merged, model, ref


# CD tolerance of the LASSO/Enet fits behind a finite difference
SPARSE_TOL = 1e-13


def fit_at(tol, *args):
    """fit with coordinate descent stopping at tol in place of DEFAULT_TOL."""
    with mock.patch.object(regress, "DEFAULT_TOL", tol):
        return fit(*args)


def make_sparse_instance(seed, family, lam=0.5, n=60, d=4, p=5):
    """Clean rows whose last feature has true weight 0, p poison points on
    the far response boundary, and the merged fit at SPARSE_TOL, returned
    as by make_attack_instance. None unless some weight is 0 with margin:
    |x_j . r| <= 0.9 lam l1 for every zero weight j, so a finite-difference
    step keeps it at 0."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    w = rng.uniform(-1.0, 1.0, size=d)
    w[-1] = 0.0
    y = np.clip(x @ w + 0.3 + rng.normal(0.0, 0.05, size=n), 0.0, 1.0)
    px = rng.uniform(size=(p, d))
    py = np.round(1.0 - np.clip(px @ w + 0.3, 0.0, 1.0))
    clean, poison = Dataset(x, y), Dataset(px, py, provenance="poisoned")
    merged, _ = merge(clean, poison)
    model = fit_at(SPARSE_TOL, merged, family, lam).model
    zero = model.weights == 0.0
    pull = np.abs(merged.features.T @ (model.predict(merged.features) - merged.responses))
    l1 = 1.0 if family == "lasso" else model.rho
    if not zero.any() or np.any(pull[zero] > 0.9 * lam * l1):
        return None
    ref = loss(clean, fit_at(SPARSE_TOL, clean, family, lam).model, include_regularizer=False)
    return clean, poison, merged, model, ref


def sparse_instances(family, count, lam=0.5):
    """make_sparse_instance for the first `count` seeds 0, 1, ... that give one."""
    found = []
    for seed in range(10 * count):
        instance = make_sparse_instance(seed, family, lam)
        if instance is not None:
            found.append(instance)
            if len(found) == count:
                return found
    raise AssertionError(f"fewer than {count} {family} instances hold a weight at zero")


def refit_model(clean, px, py, family, lam, tol=DEFAULT_TOL):
    merged = Dataset(
        np.vstack([clean.features, px]), np.concatenate([clean.responses, py]),
        provenance="mixed",
    )
    return fit_at(tol, merged, family, lam).model


def refit_dispersion(clean, px, py, family, lam, ref, tol=DEFAULT_TOL):
    model = refit_model(clean, px, py, family, lam, tol)
    return dispersion_objective(clean, Dataset(px, py, provenance="poisoned"), model, ref)


def fd_gradient(objective, px, py, h=1e-5):
    """Central finite differences over the (x_c, y_c) coordinates; row k
    for coordinate k when the objective returns a vector."""
    d = px.shape[1]
    out = []
    for k in range(d + 1):
        plus_x, plus_y = px.copy(), py.copy()
        minus_x, minus_y = px.copy(), py.copy()
        if k < d:
            plus_x[0, k] += h
            minus_x[0, k] -= h
        else:
            plus_y[0] += h
            minus_y[0] -= h
        out.append((objective(plus_x, plus_y) - objective(minus_x, minus_y)) / (2 * h))
    return np.array(out)


class TestDispersionObjective:
    def test_empty_poison_is_zero(self):
        clean = make_noisy_dataset(n=30, d=2, seed=0)
        model = fit(clean, "ols").model
        ref = loss(clean, model, include_regularizer=False)
        assert dispersion_objective(clean, empty_poison(2), model, ref) == 0.0

    def test_duplication_identity(self):
        clean = make_noisy_dataset(n=40, d=3, seed=1)
        copy = Dataset(clean.features.copy(), clean.responses.copy(), provenance="poisoned")
        merged, _ = merge(clean, copy)
        model = fit(merged, "ols").model
        ref = loss(clean, fit(clean, "ols").model, include_regularizer=False)
        assert dispersion_objective(clean, copy, model, ref) <= 1e-10

    def test_matches_direct_formula(self):
        # straight re-evaluation of the loss-ratio formula
        clean, poison, merged, model, ref = make_attack_instance(2, d=1)
        e = dispersion_objective(clean, poison, model, ref)
        r = model.predict(merged.features) - merged.responses
        direct = abs((0.5 * float(r @ r)) / ref - merged.n / clean.n)
        assert e == pytest.approx(direct, abs=1e-12)

    def test_zero_reference_loss_errors(self, line_dataset):
        model = fit(line_dataset, "ols").model
        with pytest.raises(DegenerateCleanLossError, match="add noise"):
            dispersion_objective(line_dataset, empty_poison(1), model, 0.0)


class TestThetaJacobian:
    def test_bias_response_sensitivity_on_symmetric_data(self):
        # data symmetric about x_c = mean: the bias moves by exactly 1/n per
        # unit of y_c
        x = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
        y = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        ds = Dataset(x, y)
        model = fit(ds, "ols").model
        jac = theta_jacobian(ds, model, np.array([0.5]), 0.5)
        assert jac[1, 1] == pytest.approx(1.0 / ds.n, abs=1e-12)

    @pytest.mark.parametrize("family,lam", [("ols", 0.0), ("ridge", 0.1)])
    def test_matches_refit_finite_differences(self, family, lam):
        h = 1e-5
        for seed in range(5):
            clean, poison, merged, model, _ = make_attack_instance(seed, family=family, lam=lam)
            jac = theta_jacobian(merged, model, poison.features[0], float(poison.responses[0]))
            d = clean.d
            fd = np.zeros((d + 1, d + 1))
            for k in range(d + 1):
                thetas = []
                for sign in (+1, -1):
                    px, py = poison.features.copy(), poison.responses.copy()
                    if k < d:
                        px[0, k] += sign * h
                    else:
                        py[0] += sign * h
                    m = Dataset(np.vstack([clean.features, px]),
                                np.concatenate([clean.responses, py]), provenance="mixed")
                    mdl = fit(m, family, lam).model
                    thetas.append(np.concatenate([mdl.weights, [mdl.bias]]))
                fd[k] = (thetas[0] - thetas[1]) / (2 * h)
            rel = np.max(np.abs(jac - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel <= 1e-3

    @pytest.mark.parametrize("family", ["lasso", "enet"])
    def test_active_set_matches_refit_finite_differences(self, family):
        for clean, poison, merged, model, _ in sparse_instances(family, 3):
            jac = theta_jacobian(merged, model, poison.features[0], float(poison.responses[0]))
            # a weight the l1 penalty holds at zero does not move
            assert np.all(jac[:, :-1][:, model.weights == 0.0] == 0.0)

            def theta(px, py):
                mdl = refit_model(clean, px, py, family, 0.5, SPARSE_TOL)
                return np.append(mdl.weights, mdl.bias)

            fd = fd_gradient(theta, poison.features, poison.responses)
            assert np.max(np.abs(jac - fd)) <= 1e-3 * np.max(np.abs(fd))

    def test_lambda_continuity_at_zero(self):
        clean, poison, merged, _, _ = make_attack_instance(11, d=3)
        m0 = fit(merged, "ridge", 0.0).model
        m1 = fit(merged, "ridge", 1e-12).model
        j0 = theta_jacobian(merged, m0, poison.features[0], float(poison.responses[0]))
        j1 = theta_jacobian(merged, m1, poison.features[0], float(poison.responses[0]))
        assert np.max(np.abs(j0 - j1)) <= 1e-6


class TestObjectiveGradient:
    @pytest.mark.parametrize("family,lam", [("ols", 0.0), ("ridge", 0.1)])
    def test_matches_finite_differences(self, family, lam):
        for seed in range(4):
            clean, poison, merged, model, ref = make_attack_instance(seed + 20,
                                                                     family=family, lam=lam)
            grad = objective_gradient(clean, poison, model, ref, 0)
            fd = fd_gradient(
                lambda px, py: refit_dispersion(clean, px, py, family, lam, ref),
                poison.features, poison.responses,
            )
            rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel <= 1e-3

    @pytest.mark.parametrize("family", ["lasso", "enet"])
    def test_active_set_matches_finite_differences(self, family):
        for clean, poison, merged, model, ref in sparse_instances(family, 3):
            grad = objective_gradient(clean, poison, model, ref, 0)
            fd = fd_gradient(
                lambda px, py: refit_dispersion(clean, px, py, family, 0.5, ref, SPARSE_TOL),
                poison.features, poison.responses,
            )
            assert np.max(np.abs(grad - fd)) <= 1e-3 * np.max(np.abs(fd))

    def test_zero_residual_point_has_no_explicit_term(self):
        # symmetric d=1 data; the poison point sits exactly on the fit line
        x = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
        y = np.array([0.12, 0.28, 0.5, 0.72, 0.88])
        clean = Dataset(x, y)
        merged_model = None
        px = np.array([[0.5]])
        clean_model = fit(clean, "ols").model
        py = np.array([float(clean_model.predict(px)[0])])
        poison = Dataset(px, py, provenance="poisoned")
        merged, _ = merge(clean, poison)
        merged_model = fit(merged, "ols").model
        ref = loss(clean, clean_model, include_regularizer=False)
        # residual of the poison point under the merged fit is still ~0
        r_c = float(merged_model.predict(px)[0] - py[0])
        assert abs(r_c) <= 1e-12
        grad = objective_gradient(clean, poison, merged_model, ref, 0)
        jac = theta_jacobian(merged, merged_model, px[0], float(py[0]))
        r = merged_model.predict(merged.features) - merged.responses
        grad_theta = np.concatenate([merged.features.T @ r, [r.sum()]]) / ref
        implicit_only = jac @ grad_theta  # sign is +1 here
        assert np.max(np.abs(grad - implicit_only)) <= 1e-12

    def test_reference_loss_scaling(self):
        clean, poison, merged, model, ref = make_attack_instance(5, d=2)
        g1 = objective_gradient(clean, poison, model, ref, 0)
        g2 = objective_gradient(clean, poison, model, 0.5 * ref, 0)
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12)


def full_jacobian_gradient(clean, poison, model, ref, index, kind):
    """The attack gradient through the whole Jacobian,
    J = -(1/n) solve(h, E^T)^T with h the training Hessian over n, and the
    sums over rows taken on the rows."""
    merged, _ = merge(clean, poison)
    moments = Moments.of(merged)
    x_c, y_c = poison.features[index], float(poison.responses[index])
    w = model.weights
    r_c = float(w @ x_c + model.bias - y_c)
    e = np.outer(np.append(w, -1.0), np.append(x_c, 1.0))
    e[:-1, :-1] += r_c * np.eye(len(w))
    h = moments.penalized_gram(model.lam * _penalty_mix(model.family, model.rho)[1]) / moments.n
    jac = -(1.0 / moments.n) * np.linalg.solve(h, e.T).T

    def residual_gradient(ds):
        r = model.predict(ds.features) - ds.responses
        return np.append(ds.features.T @ r, r.sum())

    if kind == "opt":
        return jac @ residual_gradient(clean)
    total = loss(merged, model, include_regularizer=False)
    g = residual_gradient(merged) / ref
    s = -1.0 if total / ref - merged.n / clean.n < 0 else 1.0
    return s * (jac @ g + r_c * np.append(w, -1.0) / ref)


FAMILY_LAMBDAS = [("ols", 0.0), ("ridge", 0.1), ("lasso", 0.01), ("enet", 0.01)]


def near_duplicate_set(gap):
    """120 rows in the unit box whose fourth column repeats the first up to
    `gap` times a normal draw (an exact copy at 0), so OLS's H is singular
    or within rounding of it."""
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(120, 3))
    copy = x[:, 0] + gap * rng.normal(size=120)
    y = np.clip(x @ (0.5, -0.2, 0.3) + 0.1 + 0.05 * rng.normal(size=120), 0.0, 1.0)
    return Dataset(np.column_stack([x, copy]), y)


class TestAdjointGradient:
    """Both gradients solve the KKT system once, against a vector."""

    @pytest.mark.parametrize("family,lam", FAMILY_LAMBDAS)
    @pytest.mark.parametrize("kind", ["nopt", "opt"])
    def test_matches_the_full_jacobian_product(self, family, lam, kind):
        for seed in range(4):
            clean, poison, merged, model, ref = make_attack_instance(seed + 120, family=family,
                                                                     lam=lam)
            want = full_jacobian_gradient(clean, poison, model, ref, 0, kind)
            if kind == "opt":
                got = opt_objective_gradient(clean, poison, model, 0)
            else:
                got = objective_gradient(clean, poison, model, ref, 0)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("family,lam", FAMILY_LAMBDAS)
    def test_one_solve_with_a_vector_per_gradient(self, monkeypatch, family, lam):
        real_solve = regress._solve
        shapes = []

        def counting_solve(h, rhs, *args):
            shapes.append(np.shape(rhs))
            return real_solve(h, rhs, *args)

        # the instance's own fits solve too, so it is built before the count
        clean, poison, merged, model, ref = make_attack_instance(130, d=3, family=family, lam=lam)
        monkeypatch.setattr(regress, "_solve", counting_solve)
        objective_gradient(clean, poison, model, ref, 0)
        assert shapes == [(4,)]
        shapes.clear()
        opt_objective_gradient(clean, poison, model, 0)
        assert shapes == [(4,)]

    @pytest.mark.parametrize("gap", [1e-9, 0.0])
    @pytest.mark.parametrize("kind", ["nopt", "opt"])
    def test_a_singular_system_takes_the_minimum_norm_solution(self, gap, kind):
        # the fit on these moments falls back to minimum-norm least squares,
        # and the gradient's v solves H v = g by the same rule; an LU solve
        # gives a v 2e5 times longer here at gap 1e-9
        clean = near_duplicate_set(gap)
        poison = Dataset(clean.features[:1], 1.0 - clean.responses[:1], provenance="poisoned")
        merged = Moments.of(clean) + Moments.of(poison)
        report = fit(merged, "ols")
        assert report.h_inv is None
        model, ref = report.model, loss(clean, fit(clean, "ols").model, False)
        u = np.concatenate((model.weights, (model.bias, -1.0)))
        if kind == "opt":
            g, explicit = (Moments.of(clean).stats @ u)[:-1], 0.0
            got = opt_objective_gradient(clean, poison, model, 0, merged=merged)
        else:
            total = 0.5 * float(u @ merged.stats @ u)
            s = (-1.0 if total / ref - merged.n / clean.n < 0 else 1.0) / ref
            g, explicit = s * (merged.stats @ u)[:-1], s
            got = objective_gradient(clean, poison, model, ref, 0, merged=merged)
        v = np.linalg.lstsq(merged.penalized_gram(0.0), g, rcond=None)[0]
        x_c, y_c = poison.features[0], poison.responses[0]
        r_c = float(model.weights @ x_c + model.bias - y_c)
        want = (explicit * r_c - (x_c @ v[:-1] + v[-1])) * np.delete(u, -2)
        want[:-1] -= r_c * v[:-1]
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nopt_climbs_along_a_near_duplicate_column(self):
        # with an LU-solved gradient every point spent its 20 backtracks and
        # the attack stopped after one sweep with E unchanged (602 refits)
        state = nopt_attack(near_duplicate_set(1e-9), AttackConfig(alpha=0.2, seed=0), "ols")
        assert state.iterations > 1 and state.refit_count < 2 + 30 * attack_module.MAX_BACKTRACKS
        assert state.e_trace[-1] > state.e_trace[0] + 1.0

    def test_an_exact_duplicate_column_gives_a_finite_gradient_and_logs_nothing(self, caplog):
        clean = near_duplicate_set(0.0)
        poison = Dataset(clean.features[:2], 1.0 - clean.responses[:2], provenance="poisoned")
        merged, _ = merge(clean, poison)
        model, ref = fit(merged, "ols").model, loss(clean, fit(clean, "ols").model, False)
        with caplog.at_level(logging.DEBUG):
            grads = [objective_gradient(clean, poison, model, ref, 1),
                     opt_objective_gradient(clean, poison, model, 1)]
        assert np.all(np.isfinite(grads)) and caplog.records == []


class TestOptGradient:
    def test_matches_finite_differences(self):
        for seed in range(4):
            clean, poison, merged, model, _ = make_attack_instance(seed + 40)
            grad = opt_objective_gradient(clean, poison, model, 0)

            def objective(px, py):
                m = Dataset(np.vstack([clean.features, px]),
                            np.concatenate([clean.responses, py]), provenance="mixed")
                return loss(clean, fit(m, "ols").model, include_regularizer=False)

            fd = fd_gradient(objective, poison.features, poison.responses)
            rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel <= 1e-3

    @pytest.mark.parametrize("family", ["lasso", "enet"])
    def test_active_set_matches_finite_differences(self, family):
        for clean, poison, merged, model, _ in sparse_instances(family, 3):
            grad = opt_objective_gradient(clean, poison, model, 0)

            def objective(px, py):
                mdl = refit_model(clean, px, py, family, 0.5, SPARSE_TOL)
                return loss(clean, mdl, include_regularizer=False)

            fd = fd_gradient(objective, poison.features, poison.responses)
            assert np.max(np.abs(grad - fd)) <= 1e-3 * np.max(np.abs(fd))

    def test_empty_poison_objective_equals_clean_loss(self):
        clean = make_noisy_dataset(n=30, d=2, seed=50)
        model = fit(clean, "ols").model
        merged, _ = merge(clean, empty_poison(2))
        assert loss(merged, model, include_regularizer=False) == pytest.approx(
            loss(clean, model, include_regularizer=False), rel=0
        )


class TestAttackLoop:
    def test_huge_epsilon_runs_exactly_one_iteration(self):
        clean = make_noisy_dataset(n=30, d=2, seed=60)
        cfg = AttackConfig(alpha=0.1, eps_conv=1e6, seed=0)
        state = nopt_attack(clean, cfg, "ols")
        assert state.iterations == 1
        assert state.converged
        assert len(state.e_trace) == 2

    def test_feasibility_and_monotonicity(self):
        clean = make_noisy_dataset(n=45, d=2, seed=61)
        cfg = AttackConfig(alpha=0.2, seed=1, max_outer_iters=8)
        state = nopt_attack(clean, cfg, "ols")
        assert state.poison.features.min() >= 0.0
        assert state.poison.features.max() <= 1.0
        assert state.poison.responses.min() >= 0.0
        assert state.poison.responses.max() <= 1.0
        diffs = np.diff(np.array(state.e_trace))
        assert np.all(diffs >= -1e-12)

    def test_poison_budget(self):
        clean = make_noisy_dataset(n=60, d=2, seed=62)
        state = nopt_attack(clean, AttackConfig(alpha=0.2, seed=2, max_outer_iters=1), "ols")
        assert state.poison.n == 15  # floor(0.2 * 60 / 0.8)

    def test_deterministic(self):
        clean = make_noisy_dataset(n=30, d=2, seed=63)
        cfg = AttackConfig(alpha=0.2, seed=3, max_outer_iters=3)
        a = nopt_attack(clean, cfg, "ols")
        b = nopt_attack(clean, cfg, "ols")
        assert np.array_equal(a.poison.features, b.poison.features)
        assert np.array_equal(a.poison.responses, b.poison.responses)
        assert a.e_trace == b.e_trace

    def test_nopt_damages_model_on_most_seeds(self):
        wins = 0
        factor_wins = 0
        for seed in range(5):
            clean = make_noisy_dataset(n=60, d=2, noise=0.1, seed=70 + seed)
            clean_mse = mse(clean, fit(clean, "ols").model)
            cfg = AttackConfig(alpha=0.2, seed=seed, max_outer_iters=10)
            state = nopt_attack(clean, cfg, "ols")
            merged, _ = merge(clean, state.poison)
            poisoned = fit(merged, "ols").model
            if mse(clean, poisoned) > clean_mse:
                wins += 1
            if mse(merged, poisoned) > 2 * clean_mse:
                factor_wins += 1
        assert wins >= 4
        assert factor_wins >= 4

    def test_nopt_dominates_opt_on_collective_metric(self):
        nopt_scores, opt_scores = [], []
        for seed in range(3):
            clean = make_noisy_dataset(n=60, d=2, noise=0.1, seed=80 + seed)
            cfg = AttackConfig(alpha=0.2, seed=seed, max_outer_iters=15)
            for scores, attack in ((nopt_scores, nopt_attack), (opt_scores, opt_attack)):
                state = attack(clean, cfg, "ols")
                merged, _ = merge(clean, state.poison)
                scores.append(mse(merged, fit(merged, "ols").model))
        assert np.median(nopt_scores) >= np.median(opt_scores)

    def test_degenerate_clean_loss_raises(self, line_dataset):
        with pytest.raises(DegenerateCleanLossError, match="add noise"):
            nopt_attack(line_dataset, AttackConfig(alpha=0.2, seed=0), "ols")

    def test_n_poison_override(self):
        clean = make_noisy_dataset(n=40, d=2, seed=90)
        cfg = AttackConfig(alpha=0.2, seed=0, max_outer_iters=1, n_poison=3)
        assert nopt_attack(clean, cfg, "ols").poison.n == 3

    def test_trace_serialization(self):
        clean = make_noisy_dataset(n=30, d=2, seed=91)
        cfg = AttackConfig(alpha=0.1, seed=0, max_outer_iters=2)
        state = opt_attack(clean, cfg, "ols")
        lines = state.to_jsonl().strip().split("\n")
        assert len(lines) == len(state.trace)
        first = json.loads(lines[0])
        assert set(first) == {"iter", "E", "mse_train", "theta"}
        assert [json.loads(line) for line in lines] == list(state.trace)

    def test_poison_csv_round_trip(self):
        clean = make_noisy_dataset(n=30, d=2, seed=92)
        state = nopt_attack(clean, AttackConfig(alpha=0.1, seed=0, max_outer_iters=1), "ols")
        text = poison_to_csv(state, "y")
        rows = text.strip().split("\n")
        assert rows[0] == "x0,x1,y"
        assert len(rows) == state.poison.n + 1
        values = [float(v) for v in rows[1].split(",")]
        assert values[:2] == state.poison.features[0].tolist()

    def test_poison_csv_quotes_a_name_holding_a_comma(self):
        # a one-hot column of a categorical level "Paris, FR" must stay one cell
        clean = make_noisy_dataset(n=30, d=2, seed=92)
        names = ("city=Paris, FR", 'size="L"')
        named = Dataset(clean.features, clean.responses, names)
        state = nopt_attack(named, AttackConfig(alpha=0.1, seed=0, max_outer_iters=1), "ols")
        header, *rows = csv.reader(io.StringIO(poison_to_csv(state, "y")))
        assert header == [*names, "y"]
        assert len(rows) == state.poison.n > 0
        assert all(len(row) == len(header) for row in rows)
        assert [float(v) for v in rows[0]] == [*state.poison.features[0], state.poison.responses[0]]

    @pytest.mark.parametrize("attack", [nopt_attack, opt_attack])
    @pytest.mark.parametrize(
        "family,lam", [("ols", 0.0), ("ridge", 0.1), ("lasso", 0.01), ("enet", 0.01)]
    )
    def test_final_model_is_the_fit_of_the_final_rows(self, attack, family, lam):
        # the loop tracks the merged set by rank-two updates of its moments;
        # a bookkeeping error or drift would leave state.model fitted to
        # other rows than the final clean + poison set
        clean = make_noisy_dataset(n=60, d=3, seed=93)
        state = attack(clean, AttackConfig(alpha=0.2, seed=4, max_outer_iters=5), family, lam)
        merged, _ = merge(clean, state.poison)
        theta = np.append(state.model.weights, state.model.bias)
        if family in ("ols", "ridge"):
            refit = fit(merged, family, lam).model
            assert np.max(np.abs(np.append(refit.weights, refit.bias) - theta)) <= 1e-9
        else:
            # coordinate descent stops once a sweep moves no coordinate by
            # tol, so a refit started at state.model must stop in one sweep
            report = fit(merged, family, lam, warm_start=state.model)
            assert report.iterations == 1
            refit = report.model
            assert np.max(np.abs(np.append(refit.weights, refit.bias) - theta)) < DEFAULT_TOL

    def test_nonconverged_trial_fit_is_rejected(self, monkeypatch):
        real_fit = attack_module.fit

        def trials_never_converge(data, *args, warm_start=None, **kwargs):
            report = real_fit(data, *args, warm_start=warm_start, **kwargs)
            # only line-search trials are warm-started
            return report if warm_start is None else dataclasses.replace(report, converged=False)

        monkeypatch.setattr(attack_module, "fit", trials_never_converge)
        clean = make_noisy_dataset(n=40, d=2, seed=94)
        cfg = AttackConfig(alpha=0.2, seed=5, max_outer_iters=3)
        state = nopt_attack(clean, cfg, "ols")
        px, py = attack_module._initial_poison(clean, state.poison.n, np.random.default_rng(5))
        assert state.refit_count > 2
        assert np.array_equal(state.poison.features, px)
        assert np.array_equal(state.poison.responses, py)
        assert len(set(state.e_trace)) == 1

    @pytest.mark.parametrize("attack", [nopt_attack, opt_attack])
    @pytest.mark.parametrize("family,lam", FAMILY_LAMBDAS)
    def test_every_refit_is_one_fit_call(self, monkeypatch, attack, family, lam):
        real_fit = attack_module.fit
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(attack_module, "fit", counting_fit)
        clean = make_noisy_dataset(n=60, d=3, seed=95)
        state = attack(clean, AttackConfig(alpha=0.2, seed=6, max_outer_iters=3), family, lam)
        assert len(calls) == state.refit_count

    @staticmethod
    def _one_point_opt_attack(monkeypatch, point, fake_gradient):
        """One sweep of Opt with a single poison point started at `point`
        and the line search fed fake_gradient(true gradient, point)."""
        clean = make_noisy_dataset(n=30, d=1, seed=96)
        monkeypatch.setattr(attack_module, "_initial_poison",
                            lambda clean, p, rng: (point[None, :-1].copy(), point[-1:].copy()))
        real_kernel = attack_module._implicit_product

        def fake_kernel(*a, **k):
            # the loop's ascent is over (x, 1, y); the fake sees (x, y)
            ascent = real_kernel(*a, **k)
            x, y = fake_gradient(ascent[[0, 2]])
            return np.array([x, 0.0, y])

        monkeypatch.setattr(attack_module, "_implicit_product", fake_kernel)
        cfg = AttackConfig(alpha=0.2, seed=0, max_outer_iters=1, n_poison=1)
        return opt_attack(clean, cfg, "ols")

    def test_clipped_step_is_accepted_by_its_own_gain(self, monkeypatch):
        # on the face y = 1 the response coordinate pushes outward, 1000
        # times harder than the true x derivative: the clipped step moves x
        # only, and its gain is far below eta * |g|
        point = np.array([0.4, 1.0])

        def outward(g):
            assert g[0] != 0.0
            return np.array([g[0], 1000.0 * abs(g[0])])

        state = self._one_point_opt_attack(monkeypatch, point, outward)
        assert state.refit_count == 3  # the two fits before the loop, one trial
        assert state.e_trace[1] > state.e_trace[0]
        assert state.poison.responses[0] == 1.0
        x_step = np.sqrt(2.0) / np.sqrt(1.0 + 1000.0**2)
        assert abs(state.poison.features[0, 0] - 0.4) == pytest.approx(x_step, rel=1e-9)

    def test_step_that_clips_back_to_the_point_is_skipped_without_a_refit(self, monkeypatch):
        # a corner with the gradient pointing out of the box everywhere: the
        # first clipped step has no gain, so no shorter step has any either
        point = np.array([1.0, 0.0])
        state = self._one_point_opt_attack(monkeypatch, point, lambda g: np.array([1.0, -1.0]))
        assert state.refit_count == 2  # the two fits before the loop
        assert np.array_equal(state.poison.features[0], point[:1])
        assert state.poison.responses[0] == point[1]
        assert state.e_trace[1] == state.e_trace[0]

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_skipped_gradient_leaves_the_point_and_refits_nothing(self, monkeypatch, bad):
        point = np.array([0.4, 1.0])
        state = self._one_point_opt_attack(monkeypatch, point, lambda g: np.full_like(g, bad))
        assert state.refit_count == 2  # the two fits before the loop
        assert np.array_equal(state.poison.features[0], point[:1])
        assert state.poison.responses[0] == point[1]
        assert state.e_trace[1] == state.e_trace[0]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            AttackConfig(alpha=0.5)
        with pytest.raises(ValueError, match="eps_conv"):
            AttackConfig(alpha=0.1, eps_conv=0.0)


CLOSED_FORM = [("ols", 0.0), ("ridge", 0.1)]


class TestGradientFromTheFitInverse:
    """The loop hands a gradient the H^-1 of the trial fit it accepted."""

    @pytest.mark.parametrize("family,lam", CLOSED_FORM)
    @pytest.mark.parametrize("kind", ["nopt", "opt"])
    def test_matches_the_kkt_solve(self, family, lam, kind):
        for seed in range(6):
            clean, poison, merged, _, ref = make_attack_instance(seed + 140, family=family, lam=lam)
            moments = Moments.of(merged)
            report = fit(moments, family, lam)
            args = (clean, poison, report.model)
            if kind == "opt":
                want = opt_objective_gradient(*args, 0, merged=moments)
                got = opt_objective_gradient(*args, 0, merged=moments, h_inv=report.h_inv)
            else:
                want = objective_gradient(*args, ref, 0, merged=moments)
                got = objective_gradient(*args, ref, 0, merged=moments, h_inv=report.h_inv)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("attack", [nopt_attack, opt_attack])
    @pytest.mark.parametrize("family,lam", FAMILY_LAMBDAS)
    def test_every_loop_ascent_is_the_public_gradient(self, monkeypatch, attack, family, lam):
        # the loop hands the kernel the accepted trial's u, q and H^-1; the
        # public gradients rebuild them from the moments and the model
        real_kernel = attack_module._implicit_product
        calls = []

        def recording_kernel(moments, model, row, u, rhs, h_inv=None, scale=0.0):
            ascent = real_kernel(moments, model, row, u, rhs, h_inv, scale)
            calls.append((moments, model, row.copy(), h_inv, ascent.copy()))
            return ascent

        monkeypatch.setattr(attack_module, "_implicit_product", recording_kernel)
        clean = make_noisy_dataset(n=60, d=3, seed=97)
        state = attack(clean, AttackConfig(alpha=0.2, seed=7, max_outer_iters=4), family, lam)
        monkeypatch.undo()
        assert len(calls) >= state.poison.n
        assert any(h_inv is not None for *_, h_inv, _ in calls) == (family in ("ols", "ridge"))
        ref = loss(clean, fit(clean, family, lam).model, include_regularizer=False)
        d = clean.d
        for moments, model, row, h_inv, ascent in calls:
            assert ascent[d] == 0.0  # the constant 1 never moves
            point = Dataset(row[None, :d], row[d + 1:], provenance="poisoned")
            if attack is opt_attack:
                want = opt_objective_gradient(clean, point, model, 0, merged=moments, h_inv=h_inv)
            else:
                want = objective_gradient(clean, point, model, ref, 0, merged=moments, h_inv=h_inv)
            assert np.array_equal(np.delete(ascent, d), want)

    def test_no_kkt_solve_when_the_inverse_is_given(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("KKT solve with H^-1 at hand")

        clean, poison, merged, _, ref = make_attack_instance(150, d=3, family="ridge", lam=0.1)
        moments = Moments.of(merged)
        report = fit(moments, "ridge", 0.1)
        monkeypatch.setattr(regress, "_solve", no_solve)
        objective_gradient(clean, poison, report.model, ref, 0, merged=moments, h_inv=report.h_inv)
        opt_objective_gradient(clean, poison, report.model, 0, merged=moments, h_inv=report.h_inv)


class TestWorkCount:
    def test_one_factorization_per_trial(self, monkeypatch):
        # every refit inverts its H once and a gradient reuses the accepted
        # fit's H^-1, so only a sweep's first gradient solves; the two extra
        # systems are the cell's clean fit and its fit on the poisoned set.
        # A refit inverts through the LAPACK gufunc regress binds, not
        # np.linalg.inv, so that binding is counted too
        calls = []
        targets = [(np.linalg, name) for name in ("inv", "solve", "eigvalsh", "eigh")]
        for owner, name in [*targets, (regress, "_lapack_inv")]:
            real = getattr(owner, name)

            def counted(*args, real=real, **kwargs):
                calls.append(1)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        spec = harness.ExperimentSpec(
            synthetic=SyntheticSpec(d=3, n=120, true_weights=(0.3, -0.2, 0.1), true_bias=0.4,
                                    noise_std=0.08, seed=5),
            families=("ols",), lambda_policy=0.0, attack="nopt", alpha_grid=(0.2,), repeats=1,
            master_seed=3, attack_max_outer=5,
        )
        record = harness.run_cell(spec, "ols", 0.2, None, 0)
        assert "error" not in record
        refits, iterations = record["attack_refits"], record["attack_iterations"]
        assert refits > 10 * iterations
        assert len(calls) <= refits + iterations + 2


class TestConvergence:
    """A fixed OLS instance, attacked to convergence from the box-wide first step."""

    @staticmethod
    def _attack(attack, max_outer_iters=100):
        clean = make_noisy_dataset(n=80, d=3, noise=0.1, seed=200)
        cfg = AttackConfig(alpha=0.2, seed=0, max_outer_iters=max_outer_iters)
        return clean, attack(clean, cfg, "ols")

    def test_nopt_converges_in_few_sweeps_to_no_lower_objective(self):
        _, state = self._attack(nopt_attack)
        assert state.converged
        assert state.iterations <= 10
        # E reached with a first step of 0.1 along the normalized gradient, the
        # line search's old start: converged after 43 sweeps and 862 refits
        assert state.e_trace[-1] >= 6.934424585416108 * (1 - 1e-9)

    def test_opt_converges_to_no_lower_clean_loss(self):
        _, state = self._attack(opt_attack, max_outer_iters=200)
        assert state.converged
        # clean loss after 200 sweeps from a first step of 0.1, stopped by an
        # absolute eps_conv on the summed clean loss: not converged at the cap
        assert state.e_trace[-1] >= 1.5137745809947232 * (1 - 1e-9)

    def test_opt_stops_on_the_mean_clean_loss(self):
        clean, state = self._attack(opt_attack, max_outer_iters=200)
        eps = AttackConfig(alpha=0.2).eps_conv
        changes = np.abs(np.diff(state.e_trace))
        assert state.converged
        # the last sweep moved the summed loss by more than eps_conv, so only
        # the test on its mean (the sum over n_o) could stop there
        assert eps < changes[-1] < eps * clean.n


FAMILY_LAMBDA = dict(FAMILY_LAMBDAS)


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILY_LAMBDA)),
    alpha=st.floats(0.05, 0.2),
    seed=st.integers(0, 2**31 - 1),
    attack=st.sampled_from([nopt_attack, opt_attack]),
)
def test_poison_points_stay_in_the_unit_box(family, alpha, seed, attack):
    clean = make_noisy_dataset(n=30, d=2, seed=seed % 1000)
    state = attack(clean, AttackConfig(alpha=alpha, seed=seed, max_outer_iters=2), family,
                   FAMILY_LAMBDA[family])
    for values in (state.poison.features, state.poison.responses):
        assert np.all((values >= 0.0) & (values <= 1.0))


class TestKktSystem:
    def test_blocks_symmetric_and_psd(self):
        # the system theta_jacobian solves is the training Hessian over n
        for seed in range(5):
            clean, poison, merged, model, _ = make_attack_instance(seed + 100, family="ridge",
                                                                   lam=0.2)
            moments = Moments.of(merged)
            sigma = moments.gram[:-1, :-1] / moments.n
            assert np.allclose(sigma, sigma.T)
            assert np.min(np.linalg.eigvalsh(sigma)) >= -1e-12
            h = moments.penalized_gram(model.lam * _penalty_mix(model.family, model.rho)[1]) / moments.n
            assert np.allclose(h, h.T)


class TestRejectedInputs:
    @pytest.mark.parametrize("max_outer_iters", [0, -1])
    def test_max_outer_iters_below_one(self, max_outer_iters):
        with pytest.raises(ValueError, match="max_outer_iters"):
            AttackConfig(alpha=0.1, max_outer_iters=max_outer_iters)

    @pytest.mark.parametrize("attack", [nopt_attack, opt_attack])
    @pytest.mark.parametrize("cfg", [AttackConfig(alpha=0.01), AttackConfig(alpha=0.1, n_poison=0)])
    def test_poison_budget_rounding_to_zero(self, attack, cfg):
        # floor(0.01 * 30 / 0.99) = 0 points
        with pytest.raises(ValueError, match="rounds to zero"):
            attack(make_noisy_dataset(n=30, d=2, seed=17), cfg)

    def test_jacobian_on_fewer_than_d_plus_one_rows(self):
        clean = make_noisy_dataset(n=30, d=3, seed=19)
        model = fit(clean, "ols").model
        few = clean.take(np.arange(3))
        with pytest.raises(ValueError, match="need n >= d\\+1"):
            theta_jacobian(few, model, few.features[0], float(few.responses[0]))

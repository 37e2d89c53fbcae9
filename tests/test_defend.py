import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisonbench import defend
from poisonbench.data import Dataset, merge
from poisonbench.defend import (
    DefenseResult,
    ProdaConfig,
    compute_beta,
    estimate_complexity,
    proda_defend,
    subset_size,
    trim_defend,
)
from poisonbench.records import trim_worst_case_text
from poisonbench.regress import FAMILIES, fit, loss, mse

from conftest import make_noisy_dataset


def brute_force_beta(alpha, gamma, epsilon):
    """Smallest b with (1 - (1-alpha)^gamma)^b <= epsilon, by galloping then
    bisection on direct evaluations of the inequality."""
    p_dirty = 1.0 - (1.0 - alpha) ** gamma
    if p_dirty <= 0.0:
        return 1
    hi = 1
    while p_dirty**hi > epsilon:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if p_dirty**mid <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi if p_dirty > epsilon or hi == 1 else 1


def planted_outlier_dataset(n_clean, n_poison, d=2, noise=0.02, seed=0, offset=0.6):
    """Clean linear data plus far-off-line planted poison rows."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n_clean, d))
    w = rng.uniform(-0.3, 0.3, size=d)
    y = np.clip(x @ w + 0.4 + rng.normal(0.0, noise, size=n_clean), 0.0, 1.0)
    clean = Dataset(x, y)
    px = rng.uniform(size=(n_poison, d))
    base = px @ w + 0.4
    py = np.clip(np.where(base < 0.5, base + offset, base - offset), 0.0, 1.0)
    poison = Dataset(px, py, provenance="poisoned")
    merged, _ = merge(clean, poison)
    return clean, merged, n_clean


class TestComputeBeta:
    def test_zero_alpha_needs_one_group(self):
        assert compute_beta(0.0, 5, 1e-5) == 1

    def test_reference_values(self):
        # brute-force: smallest beta with (1 - 0.8^gamma)^beta <= 1e-5
        assert compute_beta(0.2, 6, 1e-5) == 38
        assert compute_beta(0.2, 2, 1e-5) == 12

    def test_matches_brute_force_on_grid(self):
        for alpha in (0.04, 0.1, 0.2, 0.25):
            for gamma in (2, 3, 6, 10, 30):
                assert compute_beta(alpha, gamma, 1e-5) == brute_force_beta(alpha, gamma, 1e-5)

    def test_guarantee_and_minimality(self):
        for alpha in (0.04, 0.12, 0.2):
            for gamma in (2, 6, 20, 60):
                beta = compute_beta(alpha, gamma, 1e-5)
                p_dirty = 1.0 - (1.0 - alpha) ** gamma
                assert p_dirty**beta <= 1e-5
                if beta > 1:
                    assert p_dirty ** (beta - 1) > 1e-5

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(0.0, 0.5, exclude_min=True),
        gamma=st.integers(1, 60),
        epsilon=st.floats(1e-9, 0.5),
    )
    @example(alpha=0.5, gamma=60, epsilon=1e-5)
    def test_guarantee_and_minimality_property(self, alpha, gamma, epsilon):
        p_dirty = 1.0 - (1.0 - alpha) ** gamma
        if p_dirty >= 1.0:  # (1-alpha)^gamma is lost to rounding
            with pytest.raises(ValueError, match="underflowed"):
                compute_beta(alpha, gamma, epsilon)
            return
        beta = compute_beta(alpha, gamma, epsilon)
        assert beta >= 1
        assert p_dirty**beta <= epsilon
        assert p_dirty ** (beta - 1) > epsilon

    def test_input_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            compute_beta(1.0, 2, 1e-5)
        with pytest.raises(ValueError, match="epsilon"):
            compute_beta(0.1, 2, 1.5)
        with pytest.raises(ValueError, match="gamma"):
            compute_beta(0.1, 0, 1e-5)


class TestEstimateComplexity:
    def test_zero_alpha_bound_is_n(self):
        est = estimate_complexity(0.0, 5, 1e-5, 300)
        assert est.iterations_bound == 300

    def test_reference_bound(self):
        est = estimate_complexity(0.2, 6, 1e-5, 300)
        assert est.beta == 38
        assert est.iterations_bound == 11_400

    def test_success_probability_dominates_grid(self):
        for alpha in np.arange(0.04, 0.201, 0.04):
            for gamma in range(2, 61):
                est = estimate_complexity(float(alpha), gamma, 1e-5, 100)
                assert est.p_u >= 1 - 1e-5


class TestProda:
    def test_recovers_noiseless_line(self, line_dataset):
        cfg = ProdaConfig(gamma=2, alpha_assumed=0.1, seed=0)
        result = proda_defend(line_dataset, cfg, "ols")
        assert result.subset_mse <= 1e-20
        assert abs(result.model.weights[0] - 1.0) <= 1e-8
        assert len(result.subset_indices) == subset_size(line_dataset.n, 0.1)

    def test_counts_and_trace(self):
        ds = make_noisy_dataset(n=40, d=2, seed=0)
        cfg = ProdaConfig(gamma=3, alpha_assumed=0.1, seed=1)
        result = proda_defend(ds, cfg, "ols")
        assert result.beta_used == compute_beta(0.1, 3, 1e-5)
        assert len(result.group_mse_trace) == result.beta_used
        assert result.subset_mse == min(result.group_mse_trace)
        assert result.iterations == result.beta_used

    def test_defends_planted_poison(self):
        wins = 0
        for seed in range(5):
            clean, merged, n_clean = planted_outlier_dataset(48, 12, seed=seed)
            clean_mse = mse(clean, fit(clean, "ols").model)
            cfg = ProdaConfig(gamma=3, alpha_assumed=0.2, seed=100 + seed)
            result = proda_defend(merged, cfg, "ols")
            if mse(clean, result.model) <= 1.1 * clean_mse:
                wins += 1
        assert wins >= 4

    def test_deterministic(self):
        ds = make_noisy_dataset(n=36, d=2, seed=2)
        cfg = ProdaConfig(gamma=3, alpha_assumed=0.15, seed=9)
        a = proda_defend(ds, cfg, "ols")
        b = proda_defend(ds, cfg, "ols")
        assert a.subset_indices == b.subset_indices
        assert a.group_mse_trace == b.group_mse_trace
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_gamma_below_dimension_errors(self):
        ds = make_noisy_dataset(n=30, d=3, seed=3)
        with pytest.raises(ValueError, match="d\\+1"):
            proda_defend(ds, ProdaConfig(gamma=3, alpha_assumed=0.1), "ols")

    def test_winning_group_avoids_planted_poison(self):
        # statistical guarantee: the winning group is all-clean in (almost)
        # every run; allow generous slack over 150 runs
        clean_wins = 0
        runs = 150
        for seed in range(runs):
            clean, merged, n_clean = planted_outlier_dataset(40, 10, seed=seed)
            cfg = ProdaConfig(gamma=3, alpha_assumed=0.2, seed=10_000 + seed)
            result = proda_defend(merged, cfg, "ols")
            if all(i < n_clean for i in result.winning_group_indices):
                clean_wins += 1
        assert clean_wins / runs >= 0.97

    def test_group_mse_scaling_bound(self):
        # on evenly spread clean data the full-fit MSE is below (m/gamma)
        # times the winning group's own-fit MSE on >= 95% of trials
        holds = 0
        trials = 100
        gamma = 10
        for seed in range(trials):
            ds = make_noisy_dataset(n=60, d=2, noise=0.05, seed=300 + seed)
            full_mse = mse(ds, fit(ds, "ols").model)
            cfg = ProdaConfig(gamma=gamma, alpha_assumed=0.2, seed=500 + seed)
            result = proda_defend(ds, cfg, "ols")
            group = ds.take(np.array(result.winning_group_indices))
            group_mse = mse(group, fit(group, "ols").model)
            if full_mse <= (ds.n / gamma) * group_mse:
                holds += 1
        assert holds >= 95


def test_result_stores_one_count_and_no_clock():
    # beta_used is read through to iterations; the caller times the defense
    names = {f.name for f in dataclasses.fields(DefenseResult)}
    assert "iterations" in names
    assert not names & {"beta_used", "wall_time_s"}


class TestTrim:
    def test_noiseless_line_converges_fast(self, line_dataset):
        result = trim_defend(line_dataset, 0.1, "ols", seed=0)
        assert result.iterations <= 2
        assert result.subset_mse <= 1e-20

    def test_extreme_outlier_excluded(self):
        # N=20, n=19: exhaustive oracle over all size-19 subsets
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(19, 1))
        y = np.clip(0.8 * x[:, 0] + 0.1 + rng.normal(0, 0.01, 19), 0, 1)
        ds = Dataset(np.vstack([x, [[0.5]]]), np.concatenate([y, [1.0]]))
        outlier = 19

        best_subset, best_loss = None, np.inf
        for drop in range(20):
            subset = [i for i in range(20) if i != drop]
            sub = ds.take(subset)
            value = loss(sub, fit(sub, "ols").model, include_regularizer=False)
            if value < best_loss:
                best_subset, best_loss = subset, value
        assert outlier not in best_subset  # oracle: dropping the outlier wins

        result = trim_defend(ds, 0.05, "ols", seed=1)
        assert len(result.subset_indices) == 19
        assert outlier not in result.subset_indices

    def test_beta_used_is_the_iteration_count(self):
        _, merged, _ = planted_outlier_dataset(30, 6, seed=1)
        result = trim_defend(merged, 0.2, "ols", seed=1)
        assert result.beta_used == result.iterations
        assert len(result.group_mse_trace) == result.iterations + 1

    def test_loss_trace_nonincreasing(self):
        for seed in range(6):
            _, merged, _ = planted_outlier_dataset(30, 6, seed=seed)
            result = trim_defend(merged, 0.2, "ols", seed=seed)
            trace = np.array(result.group_mse_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_defends_planted_poison(self):
        wins = 0
        for seed in range(5):
            clean, merged, _ = planted_outlier_dataset(48, 12, seed=20 + seed)
            clean_mse = mse(clean, fit(clean, "ols").model)
            result = trim_defend(merged, 0.2, "ols", seed=seed)
            if mse(clean, result.model) <= 1.1 * clean_mse:
                wins += 1
        assert wins >= 4

    def test_iteration_cap(self):
        _, merged, _ = planted_outlier_dataset(30, 6, seed=40)
        result = trim_defend(merged, 0.2, "ols", max_iters=1, seed=0)
        assert result.iterations <= 1

    def test_deterministic(self):
        _, merged, _ = planted_outlier_dataset(30, 6, seed=41)
        a = trim_defend(merged, 0.2, "ols", seed=5)
        b = trim_defend(merged, 0.2, "ols", seed=5)
        assert a.subset_indices == b.subset_indices
        assert a.subset_mse == b.subset_mse

    def test_worst_case_bound(self):
        assert trim_worst_case_text(12, 9) == "220"
        assert trim_worst_case_text(5, 5) == "1"

    def test_worst_case_text(self):
        for n in range(1, 31):
            assert trim_worst_case_text(30, n) == str(math.comb(30, n))
        # C(20000, 16000) has 4,344 digits, past str()'s default limit of 4,300
        text = trim_worst_case_text(20000, 16000)
        assert text.startswith("10^4344.")
        assert 4344 < float(text[3:]) < 4345


def tiny_oracle_instance(seed):
    """9 clean points on a noisy line plus 3 boundary-response outliers at
    low-leverage x, so the unique trimmed optimum is the clean subset."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(9, 1))
    w = rng.uniform(-0.3, 0.3)
    y = np.clip(x[:, 0] * w + 0.5 + rng.normal(0, 0.01, 9), 0, 1)
    clean = Dataset(x, y)
    px = rng.uniform(0.4, 0.6, size=(3, 1))
    py = np.array([1.0, 0.0, 1.0])
    merged, _ = merge(clean, Dataset(px, py, provenance="poisoned"))
    return merged


class TestSubsetOptimality:
    def test_both_defenses_near_exhaustive_minimum(self):
        # small-instance oracle: enumerate all C(12, 9) = 220 subsets
        for seed in range(5):
            merged = tiny_oracle_instance(60 + seed)
            assert merged.n == 12
            best = np.inf
            for subset in itertools.combinations(range(12), 9):
                sub = merged.take(list(subset))
                value = loss(sub, fit(sub, "ols").model, include_regularizer=False)
                best = min(best, value)

            for result in (
                proda_defend(merged, ProdaConfig(gamma=2, alpha_assumed=0.25, seed=seed), "ols"),
                trim_defend(merged, 0.25, "ols", seed=seed),
            ):
                sub = merged.take(list(result.subset_indices))
                value = loss(sub, fit(sub, "ols").model, include_regularizer=False)
                assert value <= 1.05 * best + 1e-18


def floyd_group(rng, n_rows, gamma):
    """One group as a scalar Floyd loop: gamma uniforms from rng, step j
    keeps t = floor(u_j (m + 1)) or, when t is taken, m = n_rows - gamma + j."""
    group = []
    for j, u in enumerate(rng.random(gamma)):
        m = n_rows - gamma + j
        t = int(u * (m + 1))
        group.append(m if t in group else t)
    return np.sort(group)


def reference_proda(ds, cfg, family="ols", lam=0.0, rho=0.5):
    """Proda as one trial at a time: row copies, a fit on each, a stable
    argsort of every residual. The block pass must choose as this does."""
    n_rows = ds.n
    n = subset_size(n_rows, cfg.alpha_assumed)
    beta = compute_beta(cfg.alpha_assumed, cfg.gamma, cfg.epsilon)
    rng = np.random.default_rng(cfg.seed)
    best = None  # (mse, trial index, subset, model, group)
    group_mses = []
    for i in range(beta):
        group = floyd_group(rng, n_rows, cfg.gamma)
        group_model = fit(ds.take(group), family, lam, rho=rho).model
        resid = np.abs(group_model.predict(ds.features) - ds.responses)
        subset = np.sort(np.argsort(resid, kind="stable")[:n])
        rows = ds.take(subset)
        refit = fit(rows, family, lam, rho=rho).model
        m = mse(rows, refit)
        group_mses.append(m)
        if best is None or m < best[0]:
            best = (m, i, subset, refit, group)
    best_mse, _, subset, model, group = best
    return DefenseResult(
        subset_indices=tuple(int(i) for i in subset),
        model=model,
        subset_mse=best_mse,
        group_mse_trace=tuple(group_mses),
        iterations=beta,
        winning_group_indices=tuple(int(i) for i in group),
    )


# the block pass sums in another order than the row copies; CD stops at a
# 1e-8 step, so LASSO/Elastic-net traces may move by more than rounding
TRACE_RTOL = {"ols": 1e-12, "ridge": 1e-12, "lasso": 1e-6, "enet": 1e-6}


def assert_matches_reference(ds, cfg, family):
    lam = 0.0 if family == "ols" else 1e-2
    got = proda_defend(ds, cfg, family, lam)
    want = reference_proda(ds, cfg, family, lam)
    assert got.subset_indices == want.subset_indices
    assert got.winning_group_indices == want.winning_group_indices
    assert got.beta_used == want.beta_used
    np.testing.assert_allclose(
        got.group_mse_trace, want.group_mse_trace, rtol=TRACE_RTOL[family], atol=0
    )
    assert got.subset_mse == min(got.group_mse_trace)


def duplicate_tie_dataset():
    """16 rows on a line and 6 copies of one row 0.4 above it. With n = 18
    every fit near the line ranks the copies 17th to 22nd, tied."""
    copies = [2, 5, 9, 12, 15, 20]
    on_line = np.ones(22, dtype=bool)
    on_line[copies] = False
    x = np.full(22, 0.5)
    x[on_line] = np.linspace(0.0, 1.0, 16)
    y = 0.5 * x + 0.25 + np.where(on_line, 0.0, 0.4)
    return Dataset(x[:, None], y), copies


class TestProdaBlocks:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("gamma", (3, 6))
    def test_matches_reference_loop(self, family, gamma):
        for seed in range(4):
            _, merged, _ = planted_outlier_dataset(48, 12, seed=seed)
            cfg = ProdaConfig(gamma=gamma, alpha_assumed=0.2, seed=seed)
            assert_matches_reference(merged, cfg, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_reference_loop_across_blocks(self, monkeypatch, family):
        _, merged, _ = planted_outlier_dataset(48, 12, seed=7)
        monkeypatch.setattr(defend, "BLOCK_FLOATS", 7 * merged.n)  # blocks of 7 trials
        cfg = ProdaConfig(gamma=6, alpha_assumed=0.2, seed=3)
        beta = compute_beta(cfg.alpha_assumed, cfg.gamma, cfg.epsilon)
        assert beta > 14 and beta % 7 != 0
        assert_matches_reference(merged, cfg, family)

    def test_selector_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        resid = np.round(rng.uniform(size=(64, 40)), 1)  # about 4 ties per value
        for n in range(1, 41):
            mask = defend._smallest(resid, n)
            for row, chosen in zip(resid, mask):
                want = np.sort(np.argsort(row, kind="stable")[:n])
                assert np.array_equal(np.flatnonzero(chosen), want)
            assert np.array_equal(defend._smallest(resid[5], n), mask[5])

    def test_selector_on_tie_free_and_straddling_rows_in_one_block(self):
        # even rows hold distinct values; odd rows hold each of 6 values 5
        # times, so at an n that is not a multiple of 5 their ties outnumber
        # their room and the block takes the running count, else the tie-free path
        rng = np.random.default_rng(1)
        resid = rng.permuted(np.tile(np.arange(30.0), (8, 1)), axis=1)
        resid[1::2] = rng.permuted(np.tile(np.repeat(np.arange(6.0), 5), (4, 1)), axis=1)
        for n in range(1, 31):
            mask = defend._smallest(resid, n)
            for row, chosen in zip(resid, mask):
                want = np.sort(np.argsort(row, kind="stable")[:n])
                assert np.array_equal(np.flatnonzero(chosen), want)
            assert np.array_equal(defend._smallest(resid[0], n), mask[0])

    def test_duplicate_ties_go_to_the_lowest_rows(self):
        ds, copies = duplicate_tie_dataset()
        assert subset_size(ds.n, 0.19) == 18
        want = tuple(i for i in range(ds.n) if i not in copies[2:])
        for seed in range(4):
            cfg = ProdaConfig(gamma=2, alpha_assumed=0.19, seed=seed)
            assert proda_defend(ds, cfg, "ols").subset_indices == want
            assert trim_defend(ds, 0.19, "ols", seed=seed).subset_indices == want

    @pytest.mark.parametrize("block_trials", (None, 3))
    def test_tied_trials_go_to_the_first(self, monkeypatch, block_trials):
        # every group that misses both outliers keeps the same 10 rows
        x = np.linspace(0.0, 1.0, 12)
        y = 0.5 * x + 0.25
        y[[3, 8]] = (1.0, 0.0)
        ds = Dataset(x[:, None], y)
        if block_trials:
            monkeypatch.setattr(defend, "BLOCK_FLOATS", block_trials * ds.n)
        for seed in range(4):
            cfg = ProdaConfig(gamma=2, alpha_assumed=0.17, seed=seed)
            result = proda_defend(ds, cfg, "ols")
            trace = np.array(result.group_mse_trace)
            tied = np.flatnonzero(trace == trace.min())
            assert len(tied) > 1
            rng = np.random.default_rng(seed)
            for _ in range(tied[0] + 1):
                group = floyd_group(rng, ds.n, 2)
            assert result.winning_group_indices == tuple(group)

    @pytest.mark.parametrize("block_trials", (3, 9))
    def test_trials_with_one_subset_score_bit_for_bit_alike(self, monkeypatch, block_trials):
        # beta = 10, so both block sizes leave a last block of one trial
        x = np.linspace(0.0, 1.0, 12)
        y = 0.5 * x + 0.25
        y[[3, 8]] = (1.0, 0.0)
        ds = Dataset(x[:, None], y)
        monkeypatch.setattr(defend, "BLOCK_FLOATS", block_trials * ds.n)
        blocks, masks = record_groups(monkeypatch), []
        real_smallest = defend._smallest

        def recording(resid, n):
            masks.append(real_smallest(resid, n))
            return masks[-1]

        monkeypatch.setattr(defend, "_smallest", recording)
        last_trial_tied = False
        for seed in range(4):
            blocks.clear()
            masks.clear()
            result = proda_defend(ds, ProdaConfig(gamma=2, alpha_assumed=0.17, seed=seed), "ols")
            assert result.beta_used == 10 and len(blocks[-1]) == 1
            # a block's masks may hold padding rows past its trials
            subsets = np.concatenate([m[: len(b)] for m, b in zip(masks, blocks)])
            trace = np.array(result.group_mse_trace)
            for subset in np.unique(subsets, axis=0):
                same = np.flatnonzero((subsets == subset).all(axis=1))
                assert len(set(trace[same].tolist())) == 1, (seed, same, trace[same])
                last_trial_tied |= len(same) > 1 and same[-1] == 9
        assert last_trial_tied

    def test_memory_stays_below_one_trials_by_rows_matrix(self):
        # gamma = 30 gives beta = 9,295: one (beta x N) float matrix is 27.9 MB
        ds = make_noisy_dataset(n=375, d=5, seed=1)
        cfg = ProdaConfig(gamma=30, alpha_assumed=0.2, seed=3)
        tracemalloc.start()
        try:
            result = proda_defend(ds, cfg, "ols")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.beta_used == 9_295
        assert peak <= 8 * 2**20


def record_groups(monkeypatch):
    """Patch the Proda draw to keep every block's groups; returns the list."""
    blocks = []
    real = defend._floyd_groups

    def recording(u, n_rows):
        blocks.append(real(u, n_rows))
        return blocks[-1]

    monkeypatch.setattr(defend, "_floyd_groups", recording)
    return blocks


class TestProdaDraw:
    def test_blocks_do_not_change_the_groups(self, monkeypatch):
        _, merged, _ = planted_outlier_dataset(48, 12, seed=7)
        cfg = ProdaConfig(gamma=6, alpha_assumed=0.2, seed=3)
        blocks = record_groups(monkeypatch)
        whole = proda_defend(merged, cfg, "ols")
        assert len(blocks) == 1
        one_block = blocks.pop()
        monkeypatch.setattr(defend, "BLOCK_FLOATS", 7 * merged.n)  # blocks of 7 trials
        split = proda_defend(merged, cfg, "ols")
        assert len(blocks) > 2 and whole.beta_used % 7 != 0
        assert np.array_equal(np.concatenate(blocks), one_block)
        assert split.winning_group_indices == whole.winning_group_indices
        assert split.subset_indices == whole.subset_indices

    @pytest.mark.parametrize("n_rows, gamma", [(40, 40), (40, 3), (375, 24), (7, 1), (1, 1)])
    def test_groups_are_distinct_rows_in_range(self, n_rows, gamma):
        u = np.random.default_rng(gamma).random((500, gamma))
        u[0], u[1] = 0.0, np.nextafter(1.0, 0.0)  # the extreme uniforms
        groups = defend._floyd_groups(u, n_rows)
        assert groups.shape == (500, gamma)
        assert np.all(np.diff(groups, axis=1) > 0)  # sorted, so distinct
        assert groups.min() >= 0 and groups.max() < n_rows
        if gamma == n_rows:
            assert np.array_equal(groups, np.broadcast_to(np.arange(n_rows), groups.shape))

    @pytest.mark.parametrize("k, n_rows, gamma", [
        (1, 40, 6), (200, 40, 1), (200, 40, 40), (200, 375, 24), (300, 7, 5), (1, 1, 1)
    ])
    def test_groups_match_the_pairwise_compare_draw(self, k, n_rows, gamma):
        # the draw as it was first written: step j compares t with each row taken so far
        u = np.random.default_rng(n_rows + gamma).random((k, gamma))
        u[0] = 0.0
        u[-1] = np.nextafter(1.0, 0.0)  # the extreme uniforms
        want = np.empty((k, gamma), dtype=np.intp)
        for j in range(gamma):
            m = n_rows - gamma + j
            t = (u[:, j] * (m + 1)).astype(np.intp)
            taken = (want[:, :j] == t[:, None]).any(axis=1)
            want[:, j] = np.where(taken, m, t)
        want.sort(axis=1)
        assert np.array_equal(defend._floyd_groups(u, n_rows), want)

    @pytest.mark.parametrize("gamma", (3, 40))  # d + 1 and N
    def test_proda_groups_at_the_size_limits(self, monkeypatch, gamma):
        ds = make_noisy_dataset(n=40, d=2, seed=0)
        blocks = record_groups(monkeypatch)
        result = proda_defend(ds, ProdaConfig(gamma=gamma, alpha_assumed=0.0, seed=5), "ols")
        groups = np.concatenate(blocks)
        assert groups.shape == (result.beta_used, gamma)
        assert np.all(np.diff(groups, axis=1) > 0)
        assert groups.min() >= 0 and groups.max() < ds.n
        assert len(result.winning_group_indices) == gamma

    def test_row_frequencies_are_uniform(self):
        # 40,000 groups of 24 from 375 rows: each row is expected 2,560 times
        n_rows, gamma, draws = 375, 24, 40_000
        groups = defend._floyd_groups(np.random.default_rng(0).random((draws, gamma)), n_rows)
        counts = np.bincount(groups.ravel(), minlength=n_rows)
        expected = draws * gamma / n_rows
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # Wilson-Hilferty 99.9th percentile of chi-square with 374 df: 464
        df = n_rows - 1
        bound = df * (1 - 2 / (9 * df) + 3.09 * (2 / (9 * df)) ** 0.5) ** 3
        assert 460 < bound < 470
        assert chi2 < bound

    def test_first_groups_are_pinned(self, monkeypatch):
        # a change to the seeded draw has to change this literal
        ds = make_noisy_dataset(n=40, d=2, seed=0)
        blocks = record_groups(monkeypatch)
        proda_defend(ds, ProdaConfig(gamma=6, seed=1234), "ols")
        assert np.concatenate(blocks)[:5].tolist() == [
            [4, 9, 12, 13, 34, 36],
            [8, 10, 11, 17, 24, 35],
            [8, 24, 25, 28, 30, 31],
            [2, 6, 24, 25, 26, 31],
            [0, 2, 10, 16, 20, 35],
        ]


class TestFitStatus:
    @staticmethod
    def stall(monkeypatch, which):
        """Report the fits that `which` accepts as not converged."""
        real = defend.fit

        def stalled(data, *args, **kwargs):
            report = real(data, *args, **kwargs)
            return dataclasses.replace(report, converged=False) if which(data) else report

        monkeypatch.setattr(defend, "fit", stalled)

    @pytest.mark.parametrize("stalled_fit", ("group", "subset"))
    def test_proda_reports_a_stalled_winning_fit(self, monkeypatch, stalled_fit):
        ds = make_noisy_dataset(n=40, d=2, seed=0)
        cfg = ProdaConfig(gamma=3, alpha_assumed=0.1, seed=1)
        assert proda_defend(ds, cfg, "lasso", 1e-2).converged
        self.stall(monkeypatch, lambda data: (data.n == cfg.gamma) == (stalled_fit == "group"))
        result = proda_defend(ds, cfg, "lasso", 1e-2)
        assert not result.converged
        assert result.to_dict()["converged"] is False

    def test_trim_reports_a_stalled_final_refit(self, monkeypatch):
        _, merged, _ = planted_outlier_dataset(30, 6, seed=41)
        assert trim_defend(merged, 0.2, "lasso", 1e-2, seed=5).converged
        self.stall(monkeypatch, lambda data: True)
        result = trim_defend(merged, 0.2, "lasso", 1e-2, seed=5)
        assert not result.converged
        assert result.to_dict()["converged"] is False


class TestRejectedInputs:
    @pytest.mark.parametrize("alpha_assumed", [-0.1, 1.0, 1.5, float("nan")])
    def test_proda_config_alpha_assumed(self, alpha_assumed):
        with pytest.raises(ValueError, match="alpha_assumed"):
            ProdaConfig(gamma=3, alpha_assumed=alpha_assumed)

    def test_proda_subset_smaller_than_gamma(self):
        ds = make_noisy_dataset(n=10, d=1, seed=15)
        with pytest.raises(ValueError, match="smaller than gamma"):
            proda_defend(ds, ProdaConfig(gamma=8, alpha_assumed=0.5))

    def test_trim_subset_smaller_than_d_plus_one(self):
        ds = make_noisy_dataset(n=5, d=3, seed=16)
        with pytest.raises(ValueError, match="smaller than d\\+1"):
            trim_defend(ds, 0.5)

    def test_trim_max_iters_below_one(self):
        ds = make_noisy_dataset(n=20, d=1, seed=16)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            trim_defend(ds, 0.2, max_iters=0)

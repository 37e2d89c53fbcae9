"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with -s to see the per-criterion PASS lines. The dataset-gated check
(criterion 9) runs only when POISONBENCH_DATA_DIR points at user-supplied
CSVs; everything else is self-contained.
"""

import itertools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from poisonbench.attack import (
    AttackConfig,
    dispersion_objective,
    nopt_attack,
    objective_gradient,
    opt_attack,
)
from poisonbench.cli import main
from poisonbench.data import Dataset, SyntheticSpec, generate_synthetic, load_csv, merge, split_three
from poisonbench.defend import ProdaConfig, compute_beta, estimate_complexity, proda_defend, trim_defend
from poisonbench.harness import ExperimentSpec, aggregate, run_cell, run_sweep, summary_csv
from poisonbench.regress import fit, loss, mse, select_lambda

from test_attack import SPARSE_TOL, fd_gradient, refit_dispersion, sparse_instances
from test_defend import brute_force_beta, tiny_oracle_instance

SYNTHETIC_300 = SyntheticSpec(
    d=5,
    n=300,
    true_weights=(0.4, -0.3, 0.2, 0.5, -0.2),
    true_bias=0.4,
    noise_std=0.1,
    seed=3,
)

FOUR_FAMILIES = ("ols", "ridge", "lasso", "enet")


def protocol_spec(**kwargs):
    defaults = dict(
        synthetic=SYNTHETIC_300,
        families=("ols",),
        lambda_policy="select",
        repeats=5,
        master_seed=20,
        attack_max_outer=30,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def collect(spec):
    records = list(run_sweep(spec))
    errs = [r["error"] for r in records if "error" in r]
    assert not errs, f"cells failed: {errs}"
    return records


class TestCriterion1GradientCorrectness:
    def test_analytic_gradient_matches_refit_finite_differences(self):
        start = time.perf_counter()
        h = 1e-5
        worst = 0.0
        rng = np.random.default_rng(2024)
        for trial in range(50):
            family, lam = ("ols", 0.0) if trial % 2 == 0 else ("ridge", 0.1)
            d = int(rng.integers(1, 6))
            n = 50
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

            grad = objective_gradient(clean, poison, model, ref, 0)
            fd = np.zeros(d + 1)
            for k in range(d + 1):
                for sign in (+1, -1):
                    qx, qy = px.copy(), py.copy()
                    if k < d:
                        qx[0, k] += sign * h
                    else:
                        qy[0] += sign * h
                    m = Dataset(np.vstack([x, qx]), np.concatenate([y, qy]), provenance="mixed")
                    mdl = fit(m, family, lam).model
                    e = dispersion_objective(
                        clean, Dataset(qx, qy, provenance="poisoned"), mdl, ref
                    )
                    fd[k] += sign * e
                fd[k] /= 2 * h
            rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, rel)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-3, f"worst relative error {worst}"
        assert elapsed <= 60.0
        print(f"\nPASS criterion 1: gradient max rel err {worst:.2e} over 50 instances "
              f"({elapsed:.1f}s)")


    def test_lasso_enet_gradient_matches_refit_finite_differences(self):
        # instances with a weight the l1 penalty holds at zero, with margin
        start = time.perf_counter()
        worst = {}
        for family in ("lasso", "enet"):
            for clean, poison, merged, model, ref in sparse_instances(family, 5):
                grad = objective_gradient(clean, poison, model, ref, 0)
                fd = fd_gradient(
                    lambda px, py: refit_dispersion(clean, px, py, family, 0.5, ref, SPARSE_TOL),
                    poison.features, poison.responses,
                )
                rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
                worst[family] = max(worst.get(family, 0.0), rel)
        elapsed = time.perf_counter() - start
        assert max(worst.values()) <= 1e-3, f"worst relative errors {worst}"
        assert elapsed <= 60.0
        print(f"\nPASS criterion 1: LASSO/Enet gradient max rel err {worst['lasso']:.2e} / "
              f"{worst['enet']:.2e} over 5 + 5 instances ({elapsed:.1f}s)")


class TestCriterion2DuplicationIdentity:
    def test_duplicated_clean_set_scores_zero(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(60, 3))
        y = np.clip(x @ np.array([0.3, -0.2, 0.4]) + 0.3 + rng.normal(0, 0.05, 60), 0, 1)
        clean = Dataset(x, y)
        copy = Dataset(x.copy(), y.copy(), provenance="poisoned")
        merged, _ = merge(clean, copy)
        model = fit(merged, "ols").model
        ref = loss(clean, fit(clean, "ols").model, include_regularizer=False)
        e = dispersion_objective(clean, copy, model, ref)
        elapsed = time.perf_counter() - start
        assert e <= 1e-10
        assert elapsed < 1.0
        print(f"\nPASS criterion 2: duplication dispersion {e:.2e} ({elapsed:.2f}s)")


class TestCriterion3BetaExactness:
    def test_full_grid_matches_brute_force(self):
        start = time.perf_counter()
        assert compute_beta(0.2, 6, 1e-5) == 38
        assert compute_beta(0.2, 2, 1e-5) == 12
        checked = 0
        for alpha in [round(0.01 * i, 2) for i in range(1, 31)]:
            for gamma in range(2, 61):
                assert compute_beta(alpha, gamma, 1e-5) == brute_force_beta(alpha, gamma, 1e-5), (
                    f"mismatch at alpha={alpha}, gamma={gamma}"
                )
                checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        print(f"\nPASS criterion 3: beta exact on {checked} grid cells ({elapsed:.2f}s)")


class TestCriterion4AttackEfficacy:
    def test_nopt_dominates_opt_across_families(self):
        start = time.perf_counter()
        lines = []
        for family in FOUR_FAMILIES:
            nopt = collect(protocol_spec(families=(family,), attack="nopt", alpha_grid=(0.2,)))
            opt = collect(protocol_spec(families=(family,), attack="opt", alpha_grid=(0.2,)))
            med_nopt = float(np.median([r["mse_poisoned_trainset"] for r in nopt]))
            med_opt = float(np.median([r["mse_poisoned_trainset"] for r in opt]))
            med_clean = float(np.median([r["mse_clean"] for r in nopt]))
            med_nopt_fold = float(np.median([r["mse_poisoned"] for r in nopt]))
            assert med_nopt > med_opt > med_clean, (
                f"{family}: nopt {med_nopt}, opt {med_opt}, clean {med_clean}"
            )
            assert med_nopt_fold > med_clean
            lines.append(f"{family}: nopt {med_nopt:.4f} > opt {med_opt:.4f} > clean {med_clean:.4f}")
        elapsed = time.perf_counter() - start
        assert elapsed <= 600.0
        print("\nPASS criterion 4a: " + "; ".join(lines) + f" ({elapsed:.0f}s)")

    def test_nopt_mse_nondecreasing_in_alpha(self):
        start = time.perf_counter()
        records = collect(protocol_spec(families=("ols",), attack="nopt"))
        means = []
        for alpha in (0.04, 0.08, 0.12, 0.16, 0.2):
            values = [r["mse_poisoned_trainset"] for r in records if r["alpha"] == alpha]
            assert len(values) == 5
            means.append(float(np.mean(values)))
        inversions = sum(1 for a, b in zip(means, means[1:]) if b < a)
        elapsed = time.perf_counter() - start
        assert inversions <= 1, f"means {means}"
        assert elapsed <= 600.0
        print(f"\nPASS criterion 4b: mean nopt MSE by alpha {np.round(means, 4).tolist()}, "
              f"{inversions} inversions ({elapsed:.0f}s)")


class TestAttackConvergence:
    @pytest.mark.parametrize("attack", ["nopt", "opt"])
    def test_cells_stop_on_eps_conv_before_the_cap(self, attack):
        # a cap that binds on most cells would hide an attack that never converges
        start = time.perf_counter()
        spec = protocol_spec(families=FOUR_FAMILIES, attack=attack, alpha_grid=(0.04, 0.2))
        records = collect(spec)
        assert len(records) == 40
        converged = sum(r["attack_converged"] for r in records)
        elapsed = time.perf_counter() - start
        assert converged >= 0.9 * len(records), f"{converged}/{len(records)} cells converged"
        print(f"\nPASS attack convergence ({attack}): {converged}/{len(records)} cells stopped "
              f"on eps_conv within {spec.attack_max_outer} sweeps ({elapsed:.1f}s)")


class TestCriterion5DefenseEfficacy:
    @pytest.mark.parametrize("defense", ["proda", "trim"])
    def test_defense_recovers_clean_fit(self, defense):
        start = time.perf_counter()
        spec = protocol_spec(
            families=("ols",),
            lambda_policy=0.0,
            attack="nopt",
            defense=defense,
            alpha_grid=(0.2,),
            gamma_grid=(6,) if defense == "proda" else (),
            alpha_assumed=0.2,
        )
        records = collect(spec)
        assert len(records) == 5
        wins = sum(1 for r in records if r["mse_defended"] <= 1.1 * r["mse_clean"])
        elapsed = time.perf_counter() - start
        assert wins >= 4, [
            (r["mse_defended"], r["mse_clean"]) for r in records
        ]
        assert elapsed <= 600.0
        print(f"\nPASS criterion 5 ({defense}): defended within 1.1x clean on {wins}/5 seeds "
              f"({elapsed:.0f}s)")

    def test_overestimated_alpha_still_defends(self):
        spec = protocol_spec(
            families=("ols",),
            lambda_policy=0.0,
            attack="nopt",
            defense="proda",
            alpha_grid=(0.04,),
            gamma_grid=(6,),
            alpha_assumed=0.2,
        )
        records = collect(spec)
        med_def = float(np.median([r["mse_defended"] for r in records]))
        med_poi = float(np.median([r["mse_poisoned"] for r in records]))
        assert med_def <= med_poi
        print(f"\nPASS criterion 5 (assumed alpha): defended {med_def:.4f} <= poisoned "
              f"{med_poi:.4f} at real alpha 0.04, assumed 0.2")


class TestCriterion5cProdaWhereTrimIsTrapped:
    @pytest.mark.parametrize("family", ["ols", "ridge"])
    def test_proda_beats_trim_on_paired_opt_instances(self, family):
        # Opt's poison can trap TRIM's C-steps from their one random start;
        # Proda's seeded groups still reach a clean subset. Each seed is one
        # instance: a train fold and one poisoned set that both defenses get.
        start = time.perf_counter()
        ds, _ = generate_synthetic(SYNTHETIC_300)
        rows = []
        for seed in range(5):
            split = split_three(ds, seed)
            train = split.train
            lam = select_lambda(split.train, split.validation, family)
            clean = mse(train, fit(train, family, lam).model)
            state = opt_attack(train, AttackConfig(0.2, max_outer_iters=30, seed=seed), family, lam)
            poisoned, _ = merge(train, state.poison)
            proda = proda_defend(poisoned, ProdaConfig(6, alpha_assumed=0.2, seed=seed), family, lam)
            trim = trim_defend(poisoned, 0.2, family, lam, seed=seed)
            rows.append((seed, clean, mse(train, proda.model), mse(train, trim.model)))
        failed = [r for r in rows if not r[2] <= min(r[3], 1.1 * r[1])]
        assert failed == [], f"(seed, clean, proda, trim): {rows}"
        trapped = sum(trim_mse > 1.1 * clean for _, clean, _, trim_mse in rows)
        print(f"\nPASS criterion 5c ({family}): Proda <= TRIM and within 1.1x clean on 5/5 "
              f"Opt instances; TRIM within 1.1x clean on {5 - trapped}/5 "
              f"({time.perf_counter() - start:.1f}s)")


class TestCriterion6ExhaustiveSubsetOracle:
    def test_both_defenses_match_exhaustive_minimum(self):
        start = time.perf_counter()
        worst_gap = 0.0
        for seed in range(20):
            merged = tiny_oracle_instance(60 + seed)
            assert merged.n == 12
            best = np.inf
            for subset in itertools.combinations(range(12), 9):
                sub = merged.take(list(subset))
                best = min(best, loss(sub, fit(sub, "ols").model, include_regularizer=False))
            for result in (
                proda_defend(merged, ProdaConfig(gamma=2, alpha_assumed=0.25, seed=seed), "ols"),
                trim_defend(merged, 0.25, "ols", seed=seed),
            ):
                sub = merged.take(list(result.subset_indices))
                value = loss(sub, fit(sub, "ols").model, include_regularizer=False)
                assert value <= 1.05 * best + 1e-18
                worst_gap = max(worst_gap, value / best - 1.0 if best > 0 else 0.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        print(f"\nPASS criterion 6: worst oracle gap {worst_gap:.2%} over 20 seeds "
              f"({elapsed:.1f}s)")


class TestCriterion7ComplexityAccounting:
    def test_proda_trial_count_and_probability_bound(self):
        ds_rng = np.random.default_rng(8)
        x = ds_rng.uniform(size=(50, 2))
        y = np.clip(x @ np.array([0.3, -0.2]) + 0.4 + ds_rng.normal(0, 0.05, 50), 0, 1)
        ds = Dataset(x, y)
        cfg = ProdaConfig(gamma=3, alpha_assumed=0.12, seed=0)
        result = proda_defend(ds, cfg, "ols")
        expected_beta = compute_beta(0.12, 3, 1e-5)
        assert result.beta_used == expected_beta
        assert len(result.group_mse_trace) == expected_beta  # trials actually counted

        for alpha in np.arange(0.04, 0.201, 0.04):
            for gamma in range(2, 61):
                est = estimate_complexity(float(alpha), gamma, 1e-5, 300)
                assert est.p_u >= 1 - 1e-5
        print(f"\nPASS criterion 7a: proda ran exactly beta={expected_beta} trials; "
              f"p_u >= 1-eps on the full grid")

    def test_trim_iterations_bounded_and_worst_case_reported(self, tmp_path):
        rng = np.random.default_rng(9)
        xs = rng.uniform(size=30)
        ys = np.clip(0.4 * xs + 0.3 + rng.normal(0, 0.02, 30), 0, 1)
        lines = ["x,y"] + [f"{a},{b}" for a, b in zip(xs, ys)]
        csv = tmp_path / "d.csv"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

        out = tmp_path / "out"
        code = main(["defend", "--csv", str(csv), "--target", "y", "--method", "trim",
                     "--alpha-assumed", "0.2", "--max-iters", "50", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "d_defense.json").read_text())
        assert doc["iterations"] <= 50
        assert doc["max_iters"] == 50
        n = int(np.ceil(0.8 * 30))
        from math import comb

        assert doc["trim_worst_case_iterations"] == str(comb(30, n))
        assert "worst case" in doc["trim_worst_case_note"]

        # the sweep report states the bound too
        out2 = tmp_path / "sweep"
        code = main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--attack", "nopt",
                     "--defense", "trim", "--alphas", "0.2", "--repeats", "1",
                     "--out", str(out2), "--seed", "4"])
        assert code == 0
        report = (out2 / "report.txt").read_text()
        assert "worst case C(N, n)" in report
        print("\nPASS criterion 7b: trim iterations bounded; worst-case bound stated in reports")


class TestCriterion8Determinism:
    def test_sweep_summary_byte_identical(self, tmp_path):
        args = ["sweep", "--synthetic", "d=2,n=60,noise=0.1,seed=12", "--attack", "nopt",
                "--defense", "proda", "--gammas", "3", "--alphas", "0.1,0.2",
                "--repeats", "2", "--seed", "99"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        csv_a = (out_a / "summary.csv").read_bytes()
        csv_b = (out_b / "summary.csv").read_bytes()
        assert csv_a == csv_b
        print("\nPASS criterion 8: repeated sweep produced byte-identical summary CSV")


DATA_DIR = os.environ.get("POISONBENCH_DATA_DIR", "")
DATASETS = {
    # filename stem -> (target column, feature truncation used for defenses)
    "house": ("SalePrice", 5),
    "loan": ("int_rate", 4),
    "pharm": ("TherapeuticDoseofWarfarin", 3),
    "bike": ("cnt", 8),
}


def _available_datasets():
    if not DATA_DIR:
        return []
    found = []
    for stem in DATASETS:
        for candidate in Path(DATA_DIR).glob(f"{stem}*.csv"):
            found.append((stem, candidate))
            break
    return found


@pytest.mark.skipif(not _available_datasets(), reason="user-supplied datasets not present")
class TestCriterion9DatasetGated:
    def test_table_direction_on_user_datasets(self):
        for stem, path in _available_datasets():
            target, max_features = DATASETS[stem]
            for family in FOUR_FAMILIES:
                spec = ExperimentSpec(
                    csv_path=str(path),
                    target_column=target,
                    families=(family,),
                    lambda_policy="select",
                    attack="nopt",
                    alpha_grid=(0.2,),
                    repeats=3,
                    master_seed=17,
                    max_features=max_features,
                    train_subsample=300,
                    attack_max_outer=20,
                )
                nopt = collect(spec)
                opt = collect(
                    ExperimentSpec(**{**spec.__dict__, "attack": "opt"})
                )
                med_nopt = float(np.median([r["mse_poisoned_trainset"] for r in nopt]))
                med_opt = float(np.median([r["mse_poisoned_trainset"] for r in opt]))
                print(f"{stem}/{family}: nopt {med_nopt:.4f} opt {med_opt:.4f}")
                assert med_nopt >= med_opt


# the stand-in corpus's columns after one-hot expansion: each group's first
# level in sorted order (region=1, kind=u) is its reference level and gets no
# column. A cut at 5 keeps `region`'s reduced group whole, which without the
# reference level dropped would sum to the bias column, where LASSO and
# Elastic-net coordinate descent crawl (0.1-5 s a cell, up to the sweep cap)
STAND_IN_FEATURES = ("a", "b", "region=2", "region=3", "region=4", "kind=v", "kind=w", "c")


def _write_house(directory, header, cells):
    directory.mkdir()
    rows = [",".join(header)] + [",".join(cells[h][i] for h in header)
                                 for i in range(len(cells["y"]))]
    path = directory / "house.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def stand_in_corpus(tmp_path):
    """A seeded 120-row table written as house.csv the way the CSV path
    reads it: numeric columns, a categorical `region` coded as numbers, a
    text categorical `kind` and the target `y`. It stands in for the paper's
    datasets, which are not in the repository, and is not the paper's data.
    Returns (raw path, cells by column name, the one-hot columns of
    STAND_IN_FEATURES included)."""
    rng = np.random.default_rng(11)
    n = 120
    kind = rng.choice(["u", "v", "w"], size=n)
    region = rng.integers(1, 5, size=n)
    a, b, c = rng.uniform(size=(3, n))
    y = (0.3 * (kind == "v") + 0.5 * a + 0.05 * region + 0.3 * b
         + rng.normal(0.0, 0.05, size=n))
    cells = {name: [repr(float(v)) for v in col] for name, col in
             (("a", a), ("b", b), ("c", c), ("y", y))}
    cells.update({"kind": list(kind), "region": [str(r) for r in region]})
    cells.update({f"kind={k}": [str(int(v)) for v in kind == k] for k in "uvw"})
    cells.update({f"region={r}": [str(int(v)) for v in region == r] for r in range(1, 5)})
    return _write_house(tmp_path / "raw", ("a", "b", "region", "kind", "c", "y"), cells), cells


class TestCriterion9StandIn:
    """Criterion 9's CSV path, which the gated test above runs only on the
    user's files: `load_csv` with a named target and one-hot columns, the
    max_features cut, the training subsample and the attack, through the
    CLI, on a generated stand-in corpus."""

    @pytest.mark.parametrize("max_features", [5, len(STAND_IN_FEATURES)])
    @pytest.mark.parametrize("attack", ["nopt", "opt"])
    def test_sweep_on_a_categorical_csv_is_deterministic_and_cut_as_built_by_hand(
            self, tmp_path, stand_in_corpus, attack, max_features):
        raw, cells = stand_in_corpus
        flat = _write_house(tmp_path / "flat", STAND_IN_FEATURES[:max_features] + ("y",), cells)
        common = ["--target", "y", "--families", "ols,ridge,lasso,enet", "--lambda", "0.01",
                  "--attack", attack, "--alphas", "0.2", "--repeats", "1",
                  "--train-subsample", "30", "--seed", "9"]
        cut = ["--categorical", "region", "--max-features", str(max_features)]

        def sweep(name, csv, *extra):
            out = tmp_path / name
            assert main(["sweep", "--csv", str(csv), *common, *extra, "--out", str(out)]) == 0
            assert (out / "report.txt").read_text().splitlines()[1] == "cells: 4 (0 failed)"
            return (out / "summary.csv").read_bytes()

        first = sweep("first", raw, *cut)
        assert sweep("again", raw, *cut) == first
        assert sweep("pooled", raw, *cut, "--jobs", "2") == first
        # the one-hot expansion and the cut give the table built by hand
        assert sweep("by-hand", flat) == first

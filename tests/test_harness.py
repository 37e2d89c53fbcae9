import concurrent.futures
import csv
import dataclasses
import functools
import io
import json
import multiprocessing
import statistics
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonbench import attack as attack_module
from poisonbench import harness
from poisonbench.data import Dataset, SyntheticSpec, split_three
from poisonbench.harness import ExperimentSpec, cell_seed, load_base_dataset, run_cell, run_sweep
from poisonbench.records import (
    SUMMARY_COLUMNS,
    _mean,
    _median,
    aggregate,
    emit_plot,
    header_record,
    read_records,
    summary_csv,
    write_records,
    write_report,
)
from poisonbench.regress import DEFAULT_MAX_ITERS, fit
from poisonbench.svgplot import write_line_chart, write_scatter_fit

SYN = SyntheticSpec(
    d=2, n=60, true_weights=(0.3, -0.2), true_bias=0.5, noise_std=0.08, seed=12
)


def small_spec(**kwargs):
    defaults = dict(
        synthetic=SYN,
        families=("ols",),
        lambda_policy=0.0,
        alpha_grid=(0.2,),
        repeats=1,
        master_seed=7,
        attack_max_outer=4,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def fake_record(**kwargs):
    base = {
        "record_type": "cell",
        "dataset": "synthetic",
        "family": "ols",
        "attack": "none",
        "defense": "none",
        "alpha": 0.04,
        "alpha_assumed": None,
        "gamma": None,
        "repeat": 0,
        "seed": 1,
        "mse_clean": 0.01,
    }
    base.update(kwargs)
    return base


class TestExperimentSpec:
    @pytest.mark.parametrize("alpha_assumed", [-0.5, 1.0, 1.5])
    def test_alpha_assumed_outside_zero_one_rejected(self, alpha_assumed):
        with pytest.raises(ValueError, match="alpha_assumed"):
            small_spec(defense="trim", alpha_assumed=alpha_assumed)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(attack="nopt", alpha_grid=(0.1, 0.5)), "alpha"),
        (dict(attack="opt", alpha_grid=(0.0,)), "alpha"),
        # without an attack the grid only labels the cells, in poison_count's domain
        (dict(alpha_grid=(float("nan"),)), "alpha must be in"),
        (dict(alpha_grid=(0.1, -3.0)), "alpha must be in"),
        (dict(alpha_grid=(0.0,)), "alpha must be in"),
        (dict(defense="proda", gamma_grid=(3, 0)), "gamma"),
        (dict(defense="proda", gamma_grid=(6.5,)), "gamma must be an integer, got 6.5"),
        # a gamma grid is checked whatever the defense, as the alpha grid is
        (dict(defense="trim", gamma_grid=(6.5,)), "gamma must be an integer, got 6.5"),
        (dict(gamma_grid=(0,)), "gamma must be >= 1"),
        (dict(defense="proda", gamma_grid=(3,), defense_epsilon=1.5), "epsilon"),
        (dict(families=("ridge",), lambda_policy=-1.0), "lambda_policy"),
        (dict(families=("ridge",), lambda_policy="auto"), "lambda_policy"),
        (dict(families=("ridge",), lambda_policy=float("nan")), "lambda_policy"),
        (dict(families=("ridge",), lambda_policy=float("inf")), "lambda_policy"),
        (dict(families=("enet",), rho=1.5), "rho"),
        (dict(families=("enet",), rho=-0.1), "rho"),
        (dict(families=("enet",), rho=float("nan")), "rho"),
        (dict(max_features=0), "max_features"),
        (dict(max_features=-1), "max_features"),
        (dict(train_subsample=0), "train_subsample"),
        (dict(surrogate_fraction=0.0), "surrogate_fraction"),
        (dict(surrogate_fraction=1.5), "surrogate_fraction"),
        (dict(surrogate_fraction=float("nan")), "surrogate_fraction"),
        (dict(defense="trim", defense_max_iters=0), "defense_max_iters"),
        (dict(defense="proda", gamma_grid=(60,), alpha_assumed=0.5), "underflowed"),
        # the cells' own alpha, 0.2: 1 - 0.8^200 rounds to 1
        (dict(attack="nopt", defense="proda", gamma_grid=(200,)), "underflowed"),
        (dict(families=("ridge",), lambda_policy=True), "lambda_policy"),
    ])
    def test_grid_value_a_cell_would_reject_is_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha_assumed=0.01),  # 0.99^200 = 0.134: beta is 81
        dict(),  # no attack: the defender assumes 0
    ])
    def test_proda_grid_is_checked_at_the_cells_alpha_assumed(self, kwargs):
        # at ProdaConfig's default alpha_assumed, 0.2, 1 - 0.8^200 rounds to 1
        spec = small_spec(defense="proda", gamma_grid=(200,), **kwargs)
        assert spec.assumed_alpha(0.2) == kwargs.get("alpha_assumed", 0.0)

    def test_alpha_assumed_zero_and_unset_accepted(self):
        assert small_spec(defense="trim", alpha_assumed=0.0).alpha_assumed == 0.0
        assert small_spec(defense="trim").alpha_assumed is None

    def test_a_csv_spec_is_named_after_its_file(self, tmp_path):
        # records carry the name and cell seeds hash it
        rows = np.random.default_rng(4).uniform(size=(40, 3)).tolist()
        text = "x0,x1,y\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)
        for stem in ("houses", "loans"):
            (tmp_path / f"{stem}.csv").write_text(text, encoding="utf-8")
        spec = ExperimentSpec(csv_path=str(tmp_path / "houses.csv"), target_column="y",
                              lambda_policy=0.0, alpha_grid=(0.2,), repeats=1)
        assert spec.dataset_name == "houses" and header_record(spec)["dataset"] == "houses"
        houses = run_cell(spec, "ols", 0.2, None, 0)
        assert houses["dataset"] == "houses"
        assert houses["seed"] == cell_seed(spec.master_seed, "houses", "ols", "none", "none",
                                           0.2, None, 0)
        # a copy with another file takes that file's name, and so its seeds
        loans = run_cell(dataclasses.replace(spec, csv_path=str(tmp_path / "loans.csv")),
                         "ols", 0.2, None, 0)
        assert loans["dataset"] == "loans" and loans["seed"] != houses["seed"]
        assert small_spec().dataset_name == "synthetic"


class TestRunCell:
    def test_passthrough_without_attack_or_defense(self):
        spec = small_spec()
        record = run_cell(spec, "ols", 0.2, None, 0)
        assert "error" not in record
        assert "mse_poisoned" not in record
        assert "mse_defended" not in record
        assert record["mse_clean"] > 0
        assert record["mse_clean_test"] > 0

    def test_deterministic(self):
        spec = small_spec(attack="nopt")
        a = run_cell(spec, "ols", 0.2, None, 0)
        b = run_cell(spec, "ols", 0.2, None, 0)
        drop = ("wall_time_attack_s", "wall_time_defense_s")
        assert {k: v for k, v in a.items() if k not in drop} == {
            k: v for k, v in b.items() if k not in drop
        }

    @settings(max_examples=15, deadline=None)
    @given(
        family=st.sampled_from(["ols", "ridge", "lasso", "enet"]),
        alpha=st.floats(0.05, 0.2),
        seed=st.integers(0, 2**31 - 1),
        attack=st.sampled_from(["nopt", "opt"]),
    )
    def test_two_runs_agree_apart_from_wall_times(self, family, alpha, seed, attack):
        spec = small_spec(attack=attack, defense="trim", families=(family,), alpha_grid=(alpha,),
                          lambda_policy=0.01, master_seed=seed, attack_max_outer=2)
        a = run_cell(spec, family, alpha, None, 0)
        b = run_cell(spec, family, alpha, None, 0)
        assert "error" not in a
        wall = {k for k in a if k.startswith("wall_time_")}
        assert wall == {"wall_time_attack_s", "wall_time_defense_s"}
        assert {k: v for k, v in a.items() if k not in wall} == {
            k: v for k, v in b.items() if k not in wall
        }

    def test_attack_and_defense_metrics_present(self):
        spec = small_spec(attack="nopt", defense="proda", gamma_grid=(3,))
        record = run_cell(spec, "ols", 0.2, 3, 0)
        assert "error" not in record
        assert record["mse_poisoned"] >= record["mse_clean"]
        assert record["mse_defended"] <= record["mse_poisoned"]
        from poisonbench.defend import compute_beta

        assert record["beta_used"] == compute_beta(0.2, 3, 1e-5)
        assert record["time_attack_s"] > 0
        assert record["time_defense_s"] > 0

    # the phases' record keys in the order records.jsonl writes them;
    # perfbench reads wall_time_attack_s, wall_time_defense_s, attack_refits,
    # beta_used and defense_iterations
    CELL_KEYS = ["record_type", "dataset", "family", "attack", "defense", "alpha",
                 "alpha_assumed", "gamma", "repeat", "seed", "lambda", "mse_clean",
                 "mse_clean_test"]
    ATTACK_KEYS = ["wall_time_attack_s", "attack_iterations", "attack_converged",
                   "attack_refits", "time_attack_s", "mse_poisoned", "mse_poisoned_trainset",
                   "mse_poisoned_test"]
    DEFENSE_KEYS = {
        "proda": ["wall_time_defense_s", "beta_used"],
        "trim": ["wall_time_defense_s", "trim_worst_case_iterations"],
    }

    @pytest.mark.parametrize("attack", ["none", "opt", "nopt"])
    @pytest.mark.parametrize("defense", ["none", "trim", "proda"])
    def test_record_keys_are_the_phases_keys(self, attack, defense):
        gamma = 3 if defense == "proda" else None
        spec = small_spec(attack=attack, defense=defense, gamma_grid=(3,), attack_max_outer=1)
        expected = self.CELL_KEYS + (self.ATTACK_KEYS if attack != "none" else [])
        if defense != "none":
            expected += self.DEFENSE_KEYS[defense] + [
                "defense_iterations", "defense_converged", "time_defense_s", "mse_defended",
                "mse_defended_test"]
        assert list(run_cell(spec, "ols", 0.2, gamma, 0)) == expected

    def test_failed_cell_keeps_the_keys_written_before_it_failed(self):
        # gamma below d+1 fails in the defense, after the clean and attack phases
        spec = small_spec(attack="nopt", defense="proda", gamma_grid=(2,), attack_max_outer=1)
        record = run_cell(spec, "ols", 0.2, 2, 0)
        assert list(record) == self.CELL_KEYS + self.ATTACK_KEYS + ["error"]

    def test_failed_cell_records_error(self):
        # gamma below d+1 is a defense precondition failure
        spec = small_spec(defense="proda", gamma_grid=(2,))
        record = run_cell(spec, "ols", 0.2, 2, 0)
        assert "error" in record and "d+1" in record["error"]

    @pytest.mark.parametrize("n,fraction", [(60, 0.5), (300, 0.1)])
    def test_surrogate_view_keeps_poison_budget(self, n, fraction):
        # at n=300 the training fold holds 100 rows: a 10-row view starts its
        # 25-point budget from rows drawn with replacement
        spec = small_spec(attack="nopt", surrogate_fraction=fraction, attack_max_outer=1,
                          synthetic=dataclasses.replace(SYN, n=n))
        record = run_cell(spec, "ols", 0.2, None, 0)
        assert "error" not in record
        assert record["mse_poisoned"] > 0

    def test_numpy_coordinates_give_the_sweeps_cell(self):
        # cell_seed hashes the repr of each coordinate, which differs for numpy numbers
        spec = small_spec(attack="nopt", defense="proda", gamma_grid=(3,))
        wall = ("wall_time_attack_s", "wall_time_defense_s")
        want = next(run_sweep(spec))
        got = run_cell(spec, np.str_("ols"), np.float64(0.2), np.int64(3), np.int64(0))
        assert "error" not in want
        assert {k: v for k, v in got.items() if k not in wall} == {
            k: v for k, v in want.items() if k not in wall}
        assert [type(got[k]) for k in ("family", "alpha", "gamma", "repeat")] == [str, float, int, int]

    def test_train_subsample_sets_the_fold_size(self):
        # SYN's training fold holds 20 rows; time_attack_s counts refits x fold rows
        for subsample, rows in ((12, 12), (None, 20), (50, 20)):
            spec = small_spec(attack="nopt", train_subsample=subsample, attack_max_outer=1)
            record = run_cell(spec, "ols", 0.2, None, 0)
            assert "error" not in record
            assert round(record["time_attack_s"] * 1e9 / record["attack_refits"]) == rows

    def test_max_features_keeps_the_first_columns(self):
        syn = SyntheticSpec(d=3, n=60, true_weights=(0.3, -0.2, 0.1), true_bias=0.5,
                            noise_std=0.08, seed=12)
        full = load_base_dataset(small_spec(synthetic=syn))
        cut = load_base_dataset(small_spec(synthetic=syn, max_features=2))
        assert cut.d == 2 and cut.feature_names == full.feature_names[:2]
        assert np.array_equal(cut.features, full.features[:, :2])
        assert np.array_equal(cut.responses, full.responses)
        assert load_base_dataset(small_spec(synthetic=syn, max_features=5)).d == 3
        record = run_cell(small_spec(synthetic=syn, max_features=2), "ols", 0.2, None, 0)
        assert "error" not in record

    @pytest.mark.parametrize("family", ["ridge", "lasso", "enet"])
    def test_fixed_lambda_policy_is_the_cells_lambda(self, family):
        record = run_cell(small_spec(families=(family,), lambda_policy=0.05), family, 0.2, None, 0)
        assert "error" not in record
        assert record["lambda"] == 0.05
        assert run_cell(small_spec(lambda_policy=0.05), "ols", 0.2, None, 0)["lambda"] == 0.0

    def test_cell_whose_clean_fit_does_not_converge_fails(self):
        # b = a + N(0, 1e-3^2): the LASSO clean fit at a small lambda does
        # not converge; its MSEs and the attack on it used to be recorded
        rng = np.random.default_rng(0)
        a, c = rng.uniform(size=150), rng.uniform(size=150)
        x = np.column_stack((a, a + rng.normal(0.0, 1e-3, size=150), c))
        base = Dataset(x, 0.5 * a - 0.3 * c + 0.2 + rng.normal(0.0, 0.05, size=150))
        spec = small_spec(families=("lasso",), lambda_policy=1e-4, attack="nopt", defense="trim")
        seed = cell_seed(spec.master_seed, "synthetic", "lasso", "nopt", "trim", 0.1, None, 0)
        assert not fit(split_three(base, seed).train, "lasso", 1e-4).converged
        record = run_cell(spec, "lasso", 0.1, None, 0, base)
        assert record["error"] == (
            f"RuntimeError: clean fit did not converge ({DEFAULT_MAX_ITERS} iterations)"
        )
        assert "mse_clean" not in record and "attack_converged" not in record

    @pytest.mark.parametrize("module,call,name", [
        (harness, 1, "clean fit"),
        (harness, 2, "poisoned fit"),
        (attack_module, 1, "attack's clean reference fit"),
        (attack_module, 2, "attack's first merged fit"),
    ])
    def test_nonconverged_fit_fails_the_cell(self, monkeypatch, module, call, name):
        real_fit = module.fit
        calls = []

        def fit_failing_at_call(*args, **kwargs):
            calls.append(1)
            report = real_fit(*args, **kwargs)
            return dataclasses.replace(report, converged=False) if len(calls) == call else report

        spec = small_spec(attack="nopt", defense="trim")
        assert "error" not in run_cell(spec, "ols", 0.2, None, 0)
        monkeypatch.setattr(module, "fit", fit_failing_at_call)
        record = run_cell(spec, "ols", 0.2, None, 0)
        assert record["error"] == f"RuntimeError: {name} did not converge (1 iterations)"

    def test_trim_stopped_by_max_iters_records_and_reports_no_convergence(self, tmp_path):
        # at alpha_assumed 0.2 the first C-step leaves the random starting
        # subset, so one C-step cannot converge
        spec = small_spec(defense="trim", alpha_assumed=0.2, repeats=2)
        assert [r["defense_converged"] for r in run_sweep(spec)] == [True, True]
        stopped = list(run_sweep(dataclasses.replace(spec, defense_max_iters=1)))
        assert [(r["defense_iterations"], r["defense_converged"]) for r in stopped] == [
            (1, False), (1, False)]
        write_report(tmp_path, stopped)
        lines = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("recovery none trim ols: ")
        assert lines[-1].endswith("; 0/2 converged")

    def test_cell_seed_stable(self):
        assert cell_seed(1, "a", 0.2) == cell_seed(1, "a", 0.2)
        assert cell_seed(1, "a", 0.2) != cell_seed(2, "a", 0.2)


class TestRunSweep:
    def test_cartesian_product_counts(self):
        spec = small_spec(alpha_grid=(0.04, 0.08, 0.12, 0.16, 0.2), repeats=5)
        records = list(run_sweep(spec))
        assert len(records) == 25

    def test_coverage(self):
        spec = small_spec(alpha_grid=(0.1, 0.2), repeats=3)
        records = list(run_sweep(spec))
        seen = {}
        for r in records:
            seen.setdefault(r["alpha"], []).append(r["repeat"])
        assert set(seen) == {0.1, 0.2}
        assert all(sorted(v) == [0, 1, 2] for v in seen.values())

    def test_gamma_grid_only_for_proda(self):
        spec = small_spec(defense="trim", gamma_grid=(3, 4))
        records = list(run_sweep(spec))
        assert len(records) == 1  # gamma collapsed for non-proda defenses
        assert records[0]["gamma"] is None

    def test_numpy_numbers_write_the_python_numbers_records(self, tmp_path):
        # cell_seed hashes each coordinate's repr, and the header is JSON
        written = []
        for text, real, count in ((str, float, int), (np.str_, np.float64, np.int64)):
            spec = small_spec(attack="nopt", defense="proda", families=(text("ols"),),
                              alpha_grid=(real(0.1), real(0.2)), gamma_grid=(count(3),),
                              repeats=count(1), master_seed=count(7))
            path = tmp_path / f"{real.__name__}.jsonl"
            write_records(path, spec, run_sweep(spec))
            written.append([{k: v for k, v in r.items() if not k.startswith("wall_time_")}
                            for r in read_records(path)])
        assert written[0] == written[1]
        assert [r["seed"] for r in written[1][1:]] == [
            cell_seed(7, "synthetic", "ols", "nopt", "proda", alpha, 3, 0) for alpha in (0.1, 0.2)]


class TestAggregate:
    def test_single_record_mean(self):
        rows = aggregate([fake_record()])
        assert len(rows) == 1
        assert rows[0]["mse_clean"] == 0.01

    def test_two_record_mean(self):
        rows = aggregate([fake_record(mse_clean=0.02), fake_record(mse_clean=0.04, repeat=1)])
        assert rows[0]["mse_clean"] == pytest.approx(0.03)

    def test_sweep_rows(self):
        spec = small_spec(alpha_grid=(0.04, 0.08, 0.12, 0.16, 0.2), repeats=5)
        records = list(run_sweep(spec))
        rows = aggregate(records)
        assert len(rows) == 5
        for row in rows:
            values = [r["mse_clean"] for r in records if r["alpha"] == row["alpha"]]
            assert len(values) == 5
            assert row["mse_clean"] == statistics.fmean(values)

    def test_failed_records_are_not_averaged(self):
        rows = aggregate([fake_record(), fake_record(repeat=1, error="boom", mse_clean=None)])
        assert rows[0]["mse_clean"] == 0.01

    def test_rows_are_the_summary_csv_rows(self):
        spec = small_spec(attack="nopt", defense="proda", gamma_grid=(3, 4), repeats=2,
                          attack_max_outer=2)
        rows = aggregate(list(run_sweep(spec)))
        assert len(rows) == 2
        # an attack and a defense fill every column, and a row holds nothing else
        assert all(set(row) == set(SUMMARY_COLUMNS) for row in rows)
        back = list(csv.DictReader(io.StringIO(summary_csv(rows))))
        assert back == [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no cell records"):
            aggregate([{"record_type": "header"}])


# mixed signs, subnormals to 1e300, so a sum of 399 cannot overflow
_MEAN_VALUES = st.floats(min_value=-1e300, max_value=1e300) | st.floats(min_value=-1.0, max_value=1.0)


class TestStdlibMeanAndMedian:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_MEAN_VALUES, min_size=1, max_size=399))
    def test_mean_is_statistics_fmean(self, values):
        assert _mean(values).hex() == statistics.fmean(values).hex()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_MEAN_VALUES, _MEAN_VALUES), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_aggregate_of_a_shuffled_cell_is_unchanged(self, values, rng):
        cell = [fake_record(repeat=i, mse_clean=clean, mse_poisoned=poisoned)
                for i, (clean, poisoned) in enumerate(values)]
        shuffled = cell[:]
        rng.shuffle(shuffled)
        assert repr(aggregate(shuffled)) == repr(aggregate(cell))

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60))
    def test_median_is_numpys_on_report_counts(self, values):
        # report.txt prints the median sweeps and refits with :g
        assert _median(values) == float(np.median(values))
        assert f"{_median(values):g}" == f"{np.median(values):g}"


class TestEmitPlot:
    def test_single_series_two_points_one_polyline(self, tmp_path):
        summary = aggregate([fake_record(alpha=0.1), fake_record(alpha=0.2)])
        svg_path, csv_path = emit_plot(summary, "mse_vs_alpha", tmp_path / "p.svg")
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 1
        points = svg.split('points="')[1].split('"')[0]
        assert len(points.split()) == 2

    def test_three_series_legend(self, tmp_path):
        records = []
        for alpha in (0.1, 0.2):
            records.append(fake_record(alpha=alpha, attack="opt", mse_poisoned=0.05))
            records.append(fake_record(alpha=alpha, attack="nopt", mse_poisoned=0.07))
        svg_path, _ = emit_plot(aggregate(records), "mse_vs_alpha", tmp_path / "p.svg")
        svg = svg_path.read_text()
        assert svg.count('class="legend"') == 3  # Unpoison, Opt, Nopt

    def test_companion_csv_round_trip(self, tmp_path):
        summary = aggregate(
            [fake_record(alpha=0.1, mse_clean=0.0123456789012345),
             fake_record(alpha=0.2, mse_clean=0.09876543210987654)]
        )
        _, csv_path = emit_plot(summary, "mse_vs_alpha", tmp_path / "p.svg")
        with open(csv_path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["series", "x", "y"]
        unpoison = [(float(x), float(y)) for name, x, y in rows if name == "Unpoison"]
        assert unpoison == [(0.1, 0.0123456789012345), (0.2, 0.09876543210987654)]

    def test_series_prefix_order_and_means_over_the_other_axis(self, tmp_path):
        # rows in neither family nor alpha order: series keep their first
        # appearance, points go in x order, each the mean over both gammas
        summary = []
        for family, base in (("ridge", 1.0), ("ols", 2.0)):
            for alpha, offset in ((0.2, 0.5), (0.1, 0.25)):
                for gamma in (3, 6):
                    summary.append(dict(
                        family=family, attack="nopt", defense="proda", alpha=alpha, gamma=gamma,
                        mse_clean=base, mse_poisoned=base + offset + gamma / 4,
                        mse_defended=base + offset + gamma / 8,
                    ))
        del summary[-1]["mse_defended"]  # ols, alpha 0.1, gamma 6
        _, csv_path = emit_plot(summary, "mse_vs_alpha", tmp_path / "p.svg")
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["series", "x", "y"],
            ["ridge Unpoison", "0.1", "1.0"], ["ridge Unpoison", "0.2", "1.0"],
            ["ridge Nopt", "0.1", "2.375"], ["ridge Nopt", "0.2", "2.625"],
            ["ridge Proda", "0.1", "1.8125"], ["ridge Proda", "0.2", "2.0625"],
            ["ols Unpoison", "0.1", "2.0"], ["ols Unpoison", "0.2", "2.0"],
            ["ols Nopt", "0.1", "3.375"], ["ols Nopt", "0.2", "3.625"],
            ["ols Proda", "0.1", "2.625"], ["ols Proda", "0.2", "3.0625"],
        ]

    def test_gamma_plot(self, tmp_path):
        records = [
            fake_record(defense="proda", gamma=g, alpha_assumed=0.2, mse_defended=0.01 / g)
            for g in (3, 6, 9)
        ]
        svg_path, _ = emit_plot(aggregate(records), "mse_vs_gamma", tmp_path / "g.svg")
        assert "group size gamma" in svg_path.read_text()

    def test_scatter_fit(self, tmp_path):
        payload = {
            "points": [(0.0, 0.1), (0.5, 0.4), (1.0, 0.9)],
            "lines": [{"name": "ols", "weight": 0.8, "bias": 0.05}],
        }
        svg_path, csv_path = write_scatter_fit(
            payload["points"], payload["lines"], "x", "y", tmp_path / "s.svg"
        )
        svg = svg_path.read_text()
        assert svg.count("<circle") == 3
        assert csv_path.exists()

    def test_names_with_markup_characters_are_escaped(self, tmp_path):
        # `&` and `<` in a name would end the SVG's XML at the legend
        records = [fake_record(family=family, attack="x<y", defense="proda", alpha=alpha,
                               gamma=gamma, alpha_assumed=alpha, mse_poisoned=0.05,
                               mse_defended=0.02)
                   for family in ("a&b", "c>d") for alpha in (0.1, 0.2) for gamma in (3, 6)]
        write_report(tmp_path, records)
        for kind in ("mse_vs_alpha", "mse_vs_gamma"):
            root = ElementTree.parse(tmp_path / f"{kind}.svg").getroot()
            legend = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")
                      if t.get("class") == "legend"]
            assert legend == [f"{family} {name}" for family in ("a&b", "c>d")
                              for name in ("Unpoison", "x<y", "Proda")]
        svg_path, _ = write_scatter_fit([(0.0, 0.1), (1.0, 0.9)],
                                        [{"name": "w<0 & b>0", "weight": 0.8, "bias": 0.1}],
                                        "x & z", "y", tmp_path / "s.svg")
        texts = [t.text for t in ElementTree.parse(svg_path).getroot().iter()
                 if t.tag.endswith("text")]
        assert {"x & z", "data", "w<0 & b>0"} <= set(texts)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_plot([fake_record()], "nope", tmp_path / "x.svg")


class TestRecordsIO:
    def test_round_trip_with_header(self, tmp_path):
        spec = small_spec(alpha_grid=(0.1, 0.2), repeats=2)
        records = list(run_sweep(spec))
        path = tmp_path / "records.jsonl"
        write_records(path, spec, records)
        back = read_records(path)
        assert back[0]["record_type"] == "header"
        assert back[0]["schema_version"] == 1
        assert len(back) == 5

    def test_header_contents(self):
        spec = small_spec()
        head = header_record(spec)
        assert head["master_seed"] == 7
        assert head["attack"] == "none"

    def test_the_header_holds_every_spec_field_in_field_order(self):
        spec = small_spec(attack="nopt", defense="proda", gamma_grid=(3, 4))
        head = header_record(spec)
        names = [f.name for f in dataclasses.fields(ExperimentSpec)]
        assert list(head) == ["record_type", "schema_version", "dataset", *names]
        # the keys the header has always written keep their values
        assert {k: head[k] for k in ("record_type", "schema_version", "dataset", "attack",
                                     "defense", "families", "alpha_grid", "gamma_grid",
                                     "repeats", "master_seed")} == {
            "record_type": "header", "schema_version": 1, "dataset": "synthetic",
            "attack": "nopt", "defense": "proda", "families": ("ols",), "alpha_grid": (0.2,),
            "gamma_grid": (3, 4), "repeats": 1, "master_seed": 7}

    @pytest.mark.parametrize("spec", [
        ExperimentSpec(csv_path="houses.csv", target_column="price", categorical=("zone",),
                       families=("ridge", "lasso"), lambda_policy=0.25, rho=0.3,
                       attack="nopt", defense="trim", alpha_grid=(0.04, 0.12),
                       alpha_assumed=0.1, repeats=2, master_seed=-5, max_features=3,
                       train_subsample=50, surrogate_fraction=0.5, attack_max_outer=7,
                       defense_epsilon=1e-4, defense_max_iters=9),
        small_spec(synthetic=SyntheticSpec(d=3, n=40, true_weights=(0.1, -0.2, 0.3),
                                           true_bias=0.25, noise_std=0.05, seed=4),
                   defense="proda", gamma_grid=(4, 6)),
    ], ids=["csv", "synthetic"])
    def test_a_written_header_rebuilds_its_spec(self, tmp_path, spec):
        path = tmp_path / "records.jsonl"
        write_records(path, spec, [])
        (head,) = read_records(path)
        values = {f.name: head[f.name] for f in dataclasses.fields(ExperimentSpec)}
        values = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
        if values["synthetic"] is not None:
            synthetic = {k: tuple(v) if isinstance(v, list) else v
                         for k, v in values["synthetic"].items()}
            values["synthetic"] = SyntheticSpec(**synthetic)
        assert ExperimentSpec(**values) == spec

    @pytest.mark.parametrize("given, plain", [
        (dict(max_features=np.int64(2)), dict(max_features=2)),
        (dict(rho=np.float32(0.5)), dict(rho=0.5)),
        (dict(synthetic=SyntheticSpec(d=np.int64(2), n=60)),
         dict(synthetic=SyntheticSpec(d=2, n=60))),
        (dict(synthetic=None, csv_path=Path("data/houses.csv"), target_column="y"),
         dict(synthetic=None, csv_path="data/houses.csv", target_column="y")),
    ], ids=["int64", "float32", "int64-in-synthetic", "path"])
    def test_numpy_values_and_paths_write_plain_json(self, tmp_path, given, plain):
        texts = []
        for name, fields in (("given", given), ("plain", plain)):
            write_records(tmp_path / name, small_spec(**fields), [])
            texts.append((tmp_path / name).read_text(encoding="utf-8"))
        assert texts[0] == texts[1]
        head = json.loads(texts[0])
        for key, value in plain.items():
            assert head[key] == (dataclasses.asdict(value) if key == "synthetic" and value
                                 else value)


class TestSummaryCsv:
    def test_fixed_columns(self):
        text = summary_csv(aggregate([fake_record()]))
        header = text.splitlines()[0]
        assert header == (
            "dataset,family,attack,defense,alpha,alpha_assumed,gamma,"
            "mse_clean,mse_poisoned,mse_defended,time_attack_s,time_defense_s"
        )

    def test_byte_identical_across_runs(self):
        spec = small_spec(alpha_grid=(0.1, 0.2), repeats=2, attack="nopt",
                          attack_max_outer=2)
        a = summary_csv(aggregate(list(run_sweep(spec))))
        b = summary_csv(aggregate(list(run_sweep(spec))))
        assert a == b

    def test_missing_metrics_empty_cells(self):
        text = summary_csv(aggregate([fake_record()]))
        row = text.splitlines()[1].split(",")
        assert row[8] == "" and row[9] == ""  # no poisoned/defended metrics


class TestParallelJobs:
    def test_jobs_two_matches_serial(self):
        spec = small_spec(alpha_grid=(0.1, 0.2), repeats=2, attack="nopt",
                          attack_max_outer=2)
        serial = list(run_sweep(spec, jobs=1))
        parallel = list(run_sweep(spec, jobs=2))
        drop = ("wall_time_attack_s", "wall_time_defense_s")
        strip = lambda rs: [{k: v for k, v in r.items() if k not in drop} for r in rs]
        assert strip(serial) == strip(parallel)

    @pytest.mark.parametrize(
        "jobs, repeats, workers", [(64, 3, [3]), (2, 3, [2]), (1, 3, []), (4, 1, [])]
    )
    def test_pool_capped_at_cell_count(self, monkeypatch, jobs, repeats, workers):
        # a stand-in executor records its size and maps in this process
        opened = []

        class FakeExecutor:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        # run_sweep imports the pool where it opens one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
        spec = small_spec(repeats=repeats)
        records = list(run_sweep(spec, jobs=jobs))
        assert opened == workers
        assert [r["repeat"] for r in records] == list(range(repeats))
        assert all("error" not in r for r in records)

    def test_spawned_workers_match_serial(self, monkeypatch):
        # a spawn-context worker unpickles every task's spec and dataset
        spawn_pool = functools.partial(concurrent.futures.ProcessPoolExecutor,
                                       mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn_pool)
        spec = small_spec(alpha_grid=(0.1, 0.2), defense="trim", alpha_assumed=0.2)
        strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_time_defense_s"} for r in rs]
        assert strip(run_sweep(spec, jobs=2)) == strip(run_sweep(spec, jobs=1))


class TestRejectedSpecs:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(synthetic=None), "exactly one of csv_path and synthetic"),
        (dict(csv_path="a.csv"), "exactly one of csv_path and synthetic"),
        (dict(synthetic=None, csv_path="a.csv"), "target_column is required"),
        (dict(attack="flip"), "attack must be one of"),
        (dict(defense="sever"), "defense must be one of"),
        (dict(families=()), "families must be nonempty"),
        (dict(families=("ols", "Ridge")), r"unknown families \['Ridge'\]"),
        (dict(alpha_grid=()), "alpha_grid must be nonempty"),
        (dict(defense="proda"), "gamma_grid must be nonempty"),
        (dict(repeats=0), "repeats must be >= 1"),
        # a repeated value would run the same seeded cell twice
        (dict(families=("ols", "ols")), r"families repeats a value: \('ols', 'ols'\)"),
        (dict(alpha_grid=(0.2, 0.1, 0.2)), r"alpha_grid repeats a value: \(0.2, 0.1, 0.2\)"),
        (dict(alpha_grid=(0.1, np.float64(0.1))), r"alpha_grid repeats a value: \(0.1, 0.1\)"),
        (dict(defense="proda", gamma_grid=(3, 4, 3)), r"gamma_grid repeats a value"),
    ])
    def test_spec(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**kwargs)

    @pytest.mark.parametrize("kind", ["alpha", "gamma"])
    def test_emit_plot_with_nothing_to_plot(self, tmp_path, kind):
        # a row with no x value draws no point
        summary = [{"family": "ols", "alpha": None, "gamma": None, "mse_clean": 0.01}]
        with pytest.raises(ValueError, match=f"no plottable {kind} series"):
            emit_plot(summary, f"mse_vs_{kind}", tmp_path / "p.svg")

    @pytest.mark.parametrize("series", [{}, {"a": []}])
    def test_line_chart_with_nothing_to_plot(self, tmp_path, series):
        with pytest.raises(ValueError, match="nothing to plot"):
            write_line_chart(series, "x", "y", tmp_path / "p.svg")

    def test_scatter_with_nothing_to_plot(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to plot"):
            write_scatter_fit([], [], "x", "y", tmp_path / "s.svg")

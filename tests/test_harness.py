import json

import numpy as np
import pytest

from poisonbench import harness
from poisonbench.data import SyntheticSpec
from poisonbench.harness import (
    ExperimentSpec,
    aggregate,
    cell_seed,
    emit_plot,
    header_record,
    load_base_dataset,
    read_records,
    run_cell,
    run_sweep,
    summary_csv,
    write_records,
)
from poisonbench.svgplot import read_companion_csv, write_scatter_fit

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
        (dict(attack="nopt", attack_eps_conv=0.0), "eps_conv"),
        (dict(defense="proda", gamma_grid=(3, 0)), "gamma"),
        (dict(defense="proda", gamma_grid=(3,), defense_epsilon=1.5), "epsilon"),
        (dict(families=("ridge",), lambda_policy=-1.0), "lambda_policy"),
        (dict(families=("ridge",), lambda_policy="auto"), "lambda_policy"),
        (dict(families=("ridge",), lambda_policy=float("nan")), "lambda_policy"),
        (dict(families=("ridge",), lambda_policy=float("inf")), "lambda_policy"),
        (dict(families=("enet",), rho=1.5), "rho"),
        (dict(families=("enet",), rho=-0.1), "rho"),
        (dict(families=("enet",), rho=float("nan")), "rho"),
    ])
    def test_grid_value_a_cell_would_reject_is_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**kwargs)

    def test_alpha_assumed_zero_and_unset_accepted(self):
        assert small_spec(defense="trim", alpha_assumed=0.0).alpha_assumed == 0.0
        assert small_spec(defense="trim").alpha_assumed is None


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

    def test_failed_cell_records_error(self):
        # gamma below d+1 is a defense precondition failure
        spec = small_spec(defense="proda", gamma_grid=(2,))
        record = run_cell(spec, "ols", 0.2, 2, 0)
        assert "error" in record and "d+1" in record["error"]

    def test_surrogate_view_keeps_poison_budget(self):
        spec = small_spec(attack="nopt", surrogate_fraction=0.5, attack_max_outer=1)
        record = run_cell(spec, "ols", 0.2, None, 0)
        assert "error" not in record
        assert record["mse_poisoned"] > 0

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


class TestAggregate:
    def test_single_record_mean(self):
        rows = aggregate([fake_record()])
        assert len(rows) == 1
        assert rows[0]["mse_clean_mean"] == 0.01

    def test_two_record_mean(self):
        rows = aggregate([fake_record(mse_clean=0.02), fake_record(mse_clean=0.04, repeat=1)])
        assert rows[0]["mse_clean_mean"] == pytest.approx(0.03)
        assert rows[0]["mse_clean_median"] == pytest.approx(0.03)
        assert rows[0]["mse_clean_min"] == 0.02
        assert rows[0]["mse_clean_max"] == 0.04

    def test_sweep_rows(self):
        spec = small_spec(alpha_grid=(0.04, 0.08, 0.12, 0.16, 0.2), repeats=5)
        rows = aggregate(list(run_sweep(spec)))
        assert len(rows) == 5
        assert all(r["n_records"] == 5 for r in rows)

    def test_errors_counted_not_averaged(self):
        rows = aggregate([fake_record(), fake_record(repeat=1, error="boom", mse_clean=None)])
        assert rows[0]["n_errors"] == 1
        assert rows[0]["mse_clean_mean"] == 0.01

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no cell records"):
            aggregate([{"record_type": "header"}])


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
        series = read_companion_csv(csv_path)
        assert series["Unpoison"] == [(0.1, 0.0123456789012345), (0.2, 0.09876543210987654)]

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

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_plot([fake_record()], "nope", tmp_path / "x.svg")


class TestRecordsIO:
    def test_round_trip_with_header(self, tmp_path):
        spec = small_spec(alpha_grid=(0.1, 0.2), repeats=2)
        records = list(run_sweep(spec))
        path = tmp_path / "records.jsonl"
        n = write_records(path, spec, records)
        assert n == 4
        back = read_records(path)
        assert back[0]["record_type"] == "header"
        assert back[0]["schema_version"] == 1
        assert len(back) == 5

    def test_header_contents(self):
        spec = small_spec()
        head = header_record(spec)
        assert head["master_seed"] == 7
        assert head["attack"] == "none"


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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakeExecutor)
        spec = small_spec(repeats=repeats)
        records = list(run_sweep(spec, jobs=jobs))
        assert opened == workers
        assert [r["repeat"] for r in records] == list(range(repeats))
        assert all("error" not in r for r in records)

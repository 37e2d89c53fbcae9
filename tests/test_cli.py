import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poisonbench import attack as attack_module
from poisonbench import cli, data, defend, harness
from poisonbench.attack import AttackConfig
from poisonbench.cli import (
    OPTIONS,
    UsageError,
    _parse_bool,
    _parse_families,
    _parse_float_list,
    _parse_int_list,
    _parse_synthetic,
    main,
    parse_args,
)
from poisonbench.data import SyntheticSpec, generate_synthetic, load_csv
from poisonbench.defend import ProdaConfig, trim_defend
from poisonbench.harness import ExperimentSpec
from poisonbench.records import read_records
from poisonbench.regress import fit

from conftest import write_collinear_csv


def write_line_csv(path, n=12):
    xs = np.linspace(0.0, 1.0, n)
    rows = ["x,y"] + [f"{x},{x}" for x in xs]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_poisoned_csv(path, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=40)
    y = np.clip(0.3 * x + 0.4 + rng.normal(0, 0.02, 40), 0, 1)
    px = rng.uniform(size=8)
    py = np.where(0.3 * px + 0.4 < 0.5, 1.0, 0.0)
    rows = ["x,y"] + [f"{a},{b}" for a, b in zip(x, y)] + [f"{a},{b}" for a, b in zip(px, py)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestParsing:
    def test_alpha_range_five_points(self):
        assert _parse_float_list("0.04:0.20:0.04") == (0.04, 0.08, 0.12, 0.16, 0.2)

    @pytest.mark.parametrize("parse,text,want", [
        (_parse_int_list, "6:13:4", (6, 10)),
        (_parse_float_list, "0.1:0.2:0.06", (0.1, 0.16)),
        (_parse_float_list, "1:2:0.3", (1.0, 1.3, 1.6, 1.9)),
    ])
    def test_range_stops_at_the_last_point_not_past_stop(self, parse, text, want):
        assert parse(text) == want

    def test_range_of_max_grid_values_is_kept(self):
        assert _parse_int_list("1:1000:1") == tuple(range(1, 1001))

    def test_alpha_comma_list(self):
        assert _parse_float_list("0.1,0.2") == (0.1, 0.2)

    def test_synthetic_spec_fields(self):
        fields = _parse_synthetic("d=3,n=60,noise=0.05,seed=4,w=0.1;0.2;0.3,b=0.4")
        spec = SyntheticSpec(**fields)
        assert spec.d == 3 and spec.n == 60
        assert spec.true_weights == (0.1, 0.2, 0.3)
        assert spec.true_bias == 0.4

    def test_synthetic_default_weights_deterministic(self):
        a, _ = generate_synthetic(SyntheticSpec(**_parse_synthetic("d=4,n=50,noise=0.1,seed=2")))
        b, _ = generate_synthetic(SyntheticSpec(**_parse_synthetic("d=4,n=50,noise=0.1,seed=2")))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.responses.tobytes() == b.responses.tobytes()

    def test_repeated_synthetic_key_is_named(self, tmp_path, capsys):
        # the last d=3 used to win silently
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--synthetic", "d=2,n=40,d=3", "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "repeated --synthetic key 'd'" in err

    def test_sweep_config_resolution(self):
        cfg = parse_args(
            ["sweep", "--synthetic", "d=2,n=60,noise=0.1", "--attack", "nopt",
             "--alphas", "0.04:0.20:0.04"]
        )
        assert cfg.command == "sweep"
        assert cfg.options["alphas"] == (0.04, 0.08, 0.12, 0.16, 0.2)
        assert cfg.options["seed"] == 1337

    def test_missing_target_is_usage_error(self):
        with pytest.raises(UsageError, match="--target"):
            parse_args(["fit", "--csv", "data.csv"])

    def test_both_dataset_sources_rejected(self):
        with pytest.raises(UsageError, match="exactly one"):
            parse_args(["fit", "--csv", "a.csv", "--target", "y",
                        "--synthetic", "d=1,n=10,noise=0"])

    def test_defend_requires_method(self):
        with pytest.raises(UsageError, match="--method"):
            parse_args(["defend", "--synthetic", "d=1,n=10,noise=0.1"])

    def test_proda_requires_gamma(self):
        with pytest.raises(UsageError, match="--gamma"):
            parse_args(["defend", "--synthetic", "d=1,n=10,noise=0.1", "--method", "proda"])

    def test_config_file_overridden_by_flag(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("attack.alpha=0.12\nseed=9\n# comment\n", encoding="utf-8")
        cfg = parse_args(
            ["--config", str(cfg_file), "attack", "--synthetic", "d=1,n=20,noise=0.1",
             "--alpha", "0.2"]
        )
        assert cfg.options["alpha"] == 0.2  # flag wins
        assert cfg.options["seed"] == 9  # config beats default

    @pytest.mark.parametrize("text, lam", [("0.25", 0.25), ("auto", "auto")])
    def test_lambda_is_parsed_once_from_a_flag_or_a_config_key(self, tmp_path, text, lam):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"fit.lambda={text}\n", encoding="utf-8")
        data = ["fit", "--synthetic", "d=1,n=10,noise=0.1"]
        for argv in ([*data, "--lambda", text], ["--config", str(cfg_file), *data]):
            value = parse_args(argv).options["lambda"]
            assert value == lam and type(value) is type(lam)

    def test_config_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonsense=1\n", encoding="utf-8")
        with pytest.raises(UsageError, match="unknown config key"):
            parse_args(["--config", str(cfg_file), "fit",
                        "--synthetic", "d=1,n=10,noise=0.1"])

    def test_env_out_dir(self, monkeypatch):
        monkeypatch.setenv("POISONBENCH_OUT", "/tmp/envout")
        cfg = parse_args(["fit", "--synthetic", "d=1,n=10,noise=0.1"])
        assert cfg.options["out"] == "/tmp/envout"


def _resolved(argv):
    return parse_args([*argv, "--synthetic", "d=1,n=20"]).options


class TestDefaults:
    def test_the_cli_restates_the_librarys_defaults(self):
        # --help imports no numpy, so the option table restates the library's
        # defaults instead of reading them; this keeps the two in step
        attack = {f.name: f.default for f in dataclasses.fields(AttackConfig)}
        proda = {f.name: f.default for f in dataclasses.fields(ProdaConfig)}
        spec = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
        trim = {k: v.default for k, v in inspect.signature(trim_defend).parameters.items()}
        fitted = {k: v.default for k, v in inspect.signature(fit).parameters.items()}
        attack_cli = _resolved(["attack", "--alpha", "0.1"])
        proda_cli = _resolved(["defend", "--method", "proda", "--gamma", "3"])
        trim_cli = _resolved(["defend", "--method", "trim"])
        fit_cli = _resolved(["fit"])
        sweep_cli = _resolved(["sweep"])
        assert attack_cli["epsilon_conv"] == attack["eps_conv"]
        assert attack_cli["max_iters"] == attack["max_outer_iters"]
        assert proda_cli["epsilon"] == sweep_cli["epsilon"] == proda["epsilon"]
        assert proda["epsilon"] == spec["defense_epsilon"]
        assert trim_cli["max_iters"] == sweep_cli["max_iters"] == trim["max_iters"]
        assert trim["max_iters"] == spec["defense_max_iters"]
        assert fit_cli["rho"] == sweep_cli["rho"] == fitted["rho"] == spec["rho"]
        assert sweep_cli["repeats"] == spec["repeats"]
        assert fit_cli["family"] == fitted["family"]
        assert sweep_cli["families"] == spec["families"]
        assert sweep_cli["alphas"] == spec["alpha_grid"]
        assert fit_cli["seed"] == sweep_cli["seed"] == spec["master_seed"]
        assert proda_cli["alpha_assumed"] == trim_cli["alpha_assumed"] == proda["alpha_assumed"]
        # the one deliberate difference: the CLI fits at lambda 0 unless told
        # `--lambda auto`, where a spec selects lambda unless given a value
        assert fit_cli["lambda"] == sweep_cli["lambda"] == fitted["lam"] == 0.0
        assert spec["lambda_policy"] == "select"


class TestMainExitCodes:
    def test_usage_error_exits_2(self, tmp_path, capsys):
        code = main(["fit", "--csv", str(tmp_path / "a.csv")])
        assert code == 2
        assert "--target" in capsys.readouterr().err

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,config", [
        # only sweep reports progress
        (["fit", "--synthetic", "d=1,n=20,noise=0.1", "--verbose"], ""),
        (["attack", "--synthetic", "d=1,n=20,noise=0.1", "--alpha", "0.1", "--max-iters", "1",
          "--verbose"], ""),
        (["defend", "--synthetic", "d=1,n=20,noise=0.1", "--method", "trim", "--verbose"], ""),
        (["report", "--records", "r.jsonl", "--verbose"], ""),
        # report draws no random numbers
        (["report", "--records", "r.jsonl", "--seed", "1"], ""),
        # TRIM reads no Proda setting, Proda no TRIM one
        (["defend", "--synthetic", "d=2,n=40,noise=0.1", "--method", "proda", "--gamma", "3",
          "--max-iters", "0"], ""),
        (["defend", "--synthetic", "d=2,n=40,noise=0.1", "--method", "trim", "--gamma", "3"], ""),
        (["defend", "--synthetic", "d=2,n=40,noise=0.1", "--method", "trim", "--epsilon", "0.5"],
         ""),
        (["defend", "--synthetic", "d=2,n=40,noise=0.1", "--method", "proda", "--gamma", "3"],
         "defend.max_iters=5\n"),
        # defend has no --alpha, as a flag or a defend. key: the attacker's rate is attack's
        (["defend", "--synthetic", "d=2,n=40,noise=0.1", "--method", "trim", "--alpha", "7",
          "--alpha-assumed", "0.3"], ""),
        (["defend", "--synthetic", "d=2,n=40,noise=0.1", "--method", "trim",
          "--alpha-assumed", "0.3"], "defend.alpha=0.2\n"),
        (["defend", "--synthetic", "d=2,n=40,noise=0.1", "--method", "proda", "--gamma", "3"],
         "defend.alpha=0.2\ndefend.alpha_assumed=0.3\n"),
    ])
    def test_flag_the_command_never_reads_exits_2(self, tmp_path, argv, config):
        try:
            code = main(["--config", _write_config(tmp_path, config), *argv,
                         "--out", str(tmp_path / "out")])
        except SystemExit as exc:  # argparse: the command has no such flag
            code = exc.code
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha_assumed", ["-0.5", "1.5"])
    @pytest.mark.parametrize("argv", [
        ["defend", "--method", "trim"],
        ["defend", "--method", "proda", "--gamma", "3"],
        ["sweep", "--defense", "trim"],
        ["sweep", "--defense", "proda", "--gammas", "3"],
    ])
    def test_alpha_assumed_out_of_range_exits_2(self, tmp_path, capsys, argv, alpha_assumed):
        code = main([*argv, "--synthetic", "d=2,n=40,noise=0.1",
                     "--alpha-assumed", alpha_assumed, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "alpha_assumed must be in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["defend", "--method", "proda", "--gamma", "3", "--epsilon", "1.5"], "epsilon"),
        (["defend", "--method", "proda", "--gamma", "0"], "gamma"),
        (["attack", "--alpha", "0"], "alpha"),
        (["attack", "--alpha", "0.5"], "alpha"),
        (["attack", "--alpha", "0.1", "--epsilon-conv", "0"], "eps_conv"),
        (["sweep", "--defense", "proda", "--gammas", "3", "--epsilon", "1.5", "--alphas", "0.2",
          "--repeats", "1"], "epsilon"),
        (["sweep", "--defense", "proda", "--gammas", "0", "--alphas", "0.2", "--repeats", "1"],
         "gamma"),
        (["sweep", "--attack", "nopt", "--alphas", "0.5", "--repeats", "1"], "alpha"),
        (["fit", "--lambda", "nan"], "lambda must be finite"),
        (["fit", "--lambda", "inf"], "lambda must be finite"),
        (["fit", "--family", "enet", "--rho", "1.5"], "rho must be in [0, 1]"),
        (["fit", "--family", "enet", "--rho", "nan"], "rho must be in [0, 1]"),
        (["attack", "--alpha", "0.1", "--lambda", "inf"], "lambda must be finite"),
        (["attack", "--alpha", "0.1", "--rho", "-0.5"], "rho must be in [0, 1]"),
        (["defend", "--method", "trim", "--lambda", "nan"], "lambda must be finite"),
        (["defend", "--method", "trim", "--family", "enet", "--rho", "1.5"], "rho must be in"),
        (["sweep", "--lambda", "inf", "--alphas", "0.2", "--repeats", "1"],
         "lambda_policy must be in [0, inf)"),
        (["sweep", "--families", "enet", "--lambda", "0.1", "--rho", "1.5", "--alphas", "0.2",
          "--repeats", "1"], "rho must be in [0, 1]"),
        (["sweep", "--max-features", "0", "--repeats", "1"], "max_features must be >= 1"),
        (["sweep", "--max-features", "-1", "--repeats", "1"], "max_features must be >= 1"),
        (["sweep", "--train-subsample", "0", "--repeats", "1"], "train_subsample must be >= 1"),
        (["sweep", "--surrogate-fraction", "nan", "--repeats", "1"], "surrogate_fraction"),
        (["sweep", "--surrogate-fraction", "0", "--repeats", "1"], "surrogate_fraction"),
        (["sweep", "--surrogate-fraction", "1.5", "--repeats", "1"], "surrogate_fraction"),
        (["sweep", "--defense", "trim", "--max-iters", "0", "--repeats", "1"],
         "defense_max_iters must be >= 1"),
        (["defend", "--method", "trim", "--max-iters", "0"], "max_iters must be >= 1"),
        (["fit", "--lambda", "auto", "--family", "ridge", "--seed", "-1"], "seed must be >= 0"),
        (["attack", "--alpha", "0.1", "--seed", "-1"], "seed must be >= 0"),
        (["defend", "--method", "trim", "--seed", "-1"], "seed must be >= 0"),
        (["defend", "--method", "proda", "--gamma", "3", "--seed", "-1"], "seed must be >= 0"),
        (["defend", "--method", "proda", "--gamma", "60", "--alpha-assumed", "0.5"], "underflowed"),
        (["sweep", "--defense", "proda", "--gammas", "60", "--alpha-assumed", "0.5", "--alphas",
          "0.2", "--repeats", "1"], "underflowed"),
        (["defend", "--method", "proda", "--gamma", "1" + "0" * 400], "underflowed"),
        (["attack", "--alpha", "0.1", "--epsilon-conv", "nan"], "eps_conv must be in (0, inf)"),
        (["attack", "--alpha", "0.1", "--epsilon-conv", "inf"], "eps_conv must be in (0, inf)"),
        (["sweep", "--alphas", "0.1,0.1", "--repeats", "1"],
         "invalid sweep settings: alpha_grid repeats a value: (0.1, 0.1)"),
        (["sweep", "--families", "ols,ols", "--alphas", "0.2", "--repeats", "1"],
         "families repeats a value: ('ols', 'ols')"),
        (["sweep", "--defense", "proda", "--gammas", "3,3", "--alphas", "0.2", "--repeats", "1"],
         "gamma_grid repeats a value: (3, 3)"),
        (["sweep", "--defense", "trim", "--gammas", "0", "--alphas", "0.2", "--repeats", "1"],
         "gamma must be >= 1"),
    ])
    def test_out_of_range_setting_exits_2_before_output(self, tmp_path, capsys, argv, message):
        code = main([*argv, "--synthetic", "d=2,n=40,noise=0.1", "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2
        assert message in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_computational_failure_exits_1(self, tmp_path, capsys):
        # proda gamma below d+1 passes usage validation, fails in the defense
        csv = write_poisoned_csv(tmp_path / "p.csv")
        code = main(["defend", "--csv", str(csv), "--target", "y", "--method", "proda",
                     "--gamma", "1", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_repeated_column_name_exits_1(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        csv.write_text("a,y,y\n1,0,0\n2,1,1\n3,0,0\n", encoding="utf-8")
        code = main(["fit", "--csv", str(csv), "--target", "y", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "repeated column names ['y']" in capsys.readouterr().err

    def test_name_repeated_by_one_hot_expansion_exits_1(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        csv.write_text("c,c=red,y\nred,1,0\nblue,2,1\nred,3,0\n", encoding="utf-8")
        code = main(["fit", "--csv", str(csv), "--target", "y", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "repeated column names ['c=red'] after one-hot" in capsys.readouterr().err

    def test_invalid_config_creates_no_files(self, tmp_path):
        out = tmp_path / "fresh"
        code = main(["defend", "--csv", str(tmp_path / "missing.csv"), "--target", "y",
                     "--out", str(out)])
        assert code == 2  # --method missing
        assert not out.exists()

    @pytest.mark.parametrize("synthetic", [
        "d=0,n=10,noise=0.1",
        "d=3,n=3,noise=0.1",
        "d=2,n=40,noise=0.1,w=0.5",
        "d=2,n=40,noise=-0.1",
        "d=2,n=40,noise=nan",
        "d=2,n=40,noise=inf",
        "d=2,n=40,noise=0.1,w=nan;0.5",
        "d=2,n=40,noise=0.1,w=0.5;inf",
        "d=2,n=40,noise=0.1,b=nan",
        "d=2,n=40,noise=0.1,b=-inf",
        "d=2,n=40,noise=0.1,seed=-1,w=0.1;0.2,b=0.3",
    ])
    @pytest.mark.parametrize("argv", [
        ["fit"], ["attack", "--alpha", "0.1"], ["defend", "--method", "trim"], ["sweep"],
    ])
    def test_synthetic_spec_the_generator_rejects_exits_2(self, tmp_path, capsys, argv, synthetic):
        code = main([*argv, "--synthetic", synthetic, "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2
        assert f"invalid {argv[0]} settings" in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alphas", "0.1:0.2"],
        ["sweep", "--alphas", "0.2:0.1:0.05"],
        ["sweep", "--alphas", "0.1:0.2:0"],
        # grid values must be finite, list items and range ends alike
        ["sweep", "--alphas", "0.1:inf:0.1"],
        ["sweep", "--alphas=-inf:0.1:0.1"],
        ["sweep", "--alphas", "nan"],
        ["sweep", "--alphas", "inf"],
        ["sweep", "--defense", "proda", "--gammas", "3:inf:1"],
        ["sweep", "--defense", "proda", "--gammas", "inf"],
        ["sweep", "--defense", "proda", "--gammas", "3,4.5"],
        # a range expands to at most MAX_GRID_VALUES values
        ["sweep", "--alphas", "0.01:0.2:1e-7"],
        ["sweep", "--defense", "proda", "--gammas", "1:1001:1"],
        # a subnormal step: the value count overflows a float (exit 1 before)
        ["sweep", "--alphas", "0.01:0.2:1e-320"],
        ["sweep", "--families", "ols,bogus"],
        ["fit", "--synthetic", "d=2,n=40,noise"],
        ["fit", "--synthetic", "n=40,noise=0.1"],
        ["fit", "--synthetic", "d=two,n=40"],
        ["fit", "--synthetic", "d=2,n=40,colour=red"],
        ["fit", "--synthetic", "d=2,n=40,d=3"],
    ])
    def test_bad_flag_value_exits_2(self, tmp_path, argv):
        if "--synthetic" not in argv:
            argv = [*argv, "--synthetic", "d=2,n=40,noise=0.1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["attack"], "--alpha is required"),
        (["sweep", "--defense", "proda"], "--gammas is required"),
        (["fit", "--lambda", "small"], "--lambda must be a number or 'auto'"),
    ])
    def test_missing_or_malformed_setting_exits_2(self, tmp_path, capsys, argv, message):
        code = main([*argv, "--synthetic", "d=2,n=40,noise=0.1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--alphas", "abc", "expected numbers, got 'abc'"),
        ("--gammas", "abc", "expected numbers, got 'abc'"),
        ("--alphas", "0.1,,0.2", "expected numbers, got '0.1,,0.2'"),
        ("--synthetic", "d=2", "--synthetic needs n"),
        ("--synthetic", "n=60,noise=0.1", "--synthetic needs d"),
    ])
    def test_a_bad_grid_or_source_value_is_described(self, tmp_path, capsys, flag, value,
                                                      message):
        out = tmp_path / "out"
        data = [] if flag == "--synthetic" else ["--synthetic", "d=2,n=40,noise=0.1"]
        argv = ["sweep", "--defense", "proda", *data, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"error: argument {flag}: {message}\n" in capsys.readouterr().err
        key = flag[2:]
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={value}\n", encoding="utf-8")
        assert main(["--config", str(config), *argv]) == 2
        assert capsys.readouterr().err == (
            f"poisonbench: {config}:1: bad value for {key!r}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        (None, "cannot read --config file"),
        ("seed 9\n", "expected key=value"),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.cfg"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        code = main(["--config", str(path), "fit", "--synthetic", "d=2,n=40,noise=0.1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


_BUILT = ("AttackConfig", "ProdaConfig", "SyntheticSpec", "ExperimentSpec")


@pytest.mark.parametrize("argv,built", [
    (["fit"], ("SyntheticSpec",)),
    (["attack", "--alpha", "0.2", "--max-iters", "1"], ("SyntheticSpec", "AttackConfig")),
    (["defend", "--method", "proda", "--gamma", "3"], ("SyntheticSpec", "ProdaConfig")),
    (["defend", "--method", "trim"], ("SyntheticSpec",)),
    (["sweep", "--alphas", "0.2", "--repeats", "1"], ("SyntheticSpec", "ExperimentSpec")),
])
def test_each_library_object_is_built_once(tmp_path, monkeypatch, argv, built):
    calls = dict.fromkeys(_BUILT, 0)

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    # cli imports each at the call that builds it, from the module that owns it
    count(attack_module, "AttackConfig")
    count(defend, "ProdaConfig")
    count(data, "SyntheticSpec")
    count(harness, "ExperimentSpec")
    assert main([*argv, "--synthetic", "d=2,n=40,noise=0.1", "--out", str(tmp_path / "out")]) == 0
    assert calls == {name: int(name in built) for name in _BUILT}


class TestFitCommand:
    def test_noiseless_line_prints_zero_mse(self, tmp_path, capsys):
        csv = write_line_csv(tmp_path / "line.csv")
        out = tmp_path / "out"
        code = main(["fit", "--csv", str(csv), "--target", "y", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "train_mse=" in printed
        assert float(printed.split("train_mse=")[1].split()[0]) <= 1e-18
        model = json.loads((out / "line_model.json").read_text())
        assert model["family"] == "ols"
        assert abs(model["weights"][0] - 1.0) <= 1e-8
        assert (out / "line_fit.svg").exists()  # d=1 scatter+line view

    @pytest.mark.parametrize("lam", ["0.5", "auto"])
    def test_ols_prints_the_lambda_it_fits_with(self, tmp_path, capsys, lam):
        out = tmp_path / "out"
        code = main(["fit", "--synthetic", "d=2,n=40,noise=0.1", "--family", "ols",
                     "--lambda", lam, "--out", str(out)])
        assert code == 0
        assert "family=ols lambda=0.0 " in capsys.readouterr().out
        assert json.loads((out / "synthetic_model.json").read_text())["lambda"] == 0.0

    @pytest.mark.parametrize("config,flags", [("", ["--family", " Ridge"]), ("family= Ridge\n", [])],
                             ids=["flag", "config"])
    def test_family_takes_the_spellings_families_takes(self, tmp_path, capsys, config, flags):
        out = tmp_path / "out"
        assert main(["--config", _write_config(tmp_path, config), "fit", *flags,
                     "--synthetic", "d=2,n=40,noise=0.1", "--lambda", "0.1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("family=ridge lambda=0.1 ")
        assert json.loads((out / "synthetic_model.json").read_text())["family"] == "ridge"

    def test_an_unknown_family_exits_2_and_help_lists_the_four(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--synthetic", "d=2,n=40,noise=0.1", "--family", "bogus",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--family {ols,ridge,lasso,enet}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_auto_lambda(self, tmp_path, capsys):
        code = main(["fit", "--synthetic", "d=2,n=60,noise=0.1", "--family", "ridge",
                     "--lambda", "auto", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "lambda=" in capsys.readouterr().out

    def test_fit_that_does_not_converge_exits_1_and_writes_no_model(self, tmp_path, capsys):
        csv = write_collinear_csv(tmp_path / "collinear.csv")
        assert not fit(load_csv(csv, "y")[0], "lasso", 1e-4).converged
        out = tmp_path / "out"
        code = main(["fit", "--csv", str(csv), "--target", "y", "--family", "lasso",
                     "--lambda", "0.0001", "--out", str(out)])
        assert code == 1
        assert "fit did not converge" in capsys.readouterr().err
        assert not (out / "collinear_model.json").exists()


class TestAttackCommand:
    def test_writes_poison_and_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["attack", "--synthetic", "d=2,n=40,noise=0.1", "--alpha", "0.2",
                     "--max-iters", "2", "--out", str(out)])
        assert code == 0
        poison = (out / "synthetic_poison.csv").read_text().strip().splitlines()
        assert poison[0] == "x0,x1,y"
        assert len(poison) == 11  # floor(0.2*40/0.8) = 10 points + header
        trace = [json.loads(l) for l in (out / "synthetic_attack_trace.jsonl").read_text().splitlines()]
        assert trace[0]["iter"] == 0
        summary = json.loads((out / "synthetic_attack.json").read_text())
        assert summary["method"] == "nopt"

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_json_names_the_settings_behind_it(self, tmp_path, source):
        settings = {"alpha": 0.15, "epsilon_conv": 1e-4, "max_iters": 2, "seed": 7}
        out = tmp_path / "out"
        argv = ["attack", "--synthetic", "d=2,n=40,noise=0.1", "--out", str(out)]
        if source == "flags":
            argv += [arg for key, value in settings.items()
                     for arg in (f"--{key.replace('_', '-')}", str(value))]
        else:
            lines = "".join(f"attack.{key}={value}\n" for key, value in settings.items())
            argv = ["--config", _write_config(tmp_path, lines), *argv]
        assert main(argv) == 0
        summary = json.loads((out / "synthetic_attack.json").read_text())
        assert {key: summary[key] for key in settings} == settings


class TestDefendCommand:
    def test_proda_beta_in_json(self, tmp_path):
        csv = write_poisoned_csv(tmp_path / "p.csv")
        out = tmp_path / "out"
        code = main(["defend", "--csv", str(csv), "--target", "y", "--method", "proda",
                     "--gamma", "6", "--alpha-assumed", "0.2", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "p_defense.json").read_text())
        assert doc["beta_used"] == 38
        assert doc["alpha_assumed"] == 0.2
        assert len(doc["group_mses"]) == 38

    def test_trim_reports_worst_case(self, tmp_path):
        csv = write_poisoned_csv(tmp_path / "p.csv")
        out = tmp_path / "out"
        code = main(["defend", "--csv", str(csv), "--target", "y", "--method", "trim",
                     "--alpha-assumed", "0.2", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "p_defense.json").read_text())
        assert "trim_worst_case_iterations" in doc
        assert doc["max_iters"] == 100
        assert doc["iterations"] <= 100

    @pytest.mark.parametrize("method", ["proda", "trim"])
    def test_writes_the_defense_wall_time(self, tmp_path, method):
        csv = write_poisoned_csv(tmp_path / "p.csv")
        out = tmp_path / "out"
        gamma = ["--gamma", "6"] if method == "proda" else []  # TRIM never reads gamma
        code = main(["defend", "--csv", str(csv), "--target", "y", "--method", method, *gamma,
                     "--alpha-assumed", "0.2", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "p_defense.json").read_text())
        assert isinstance(doc["wall_time_s"], float) and doc["wall_time_s"] >= 0.0

    @pytest.mark.parametrize("method,flags,settings", [
        ("proda", ["--gamma", "6", "--epsilon", "0.001"], {"gamma": 6, "epsilon": 0.001}),
        ("trim", ["--max-iters", "20"], {"max_iters": 20}),
    ])
    def test_json_names_the_settings_behind_it(self, tmp_path, method, flags, settings):
        csv = write_poisoned_csv(tmp_path / "p.csv")
        out = tmp_path / "out"
        assert main(["defend", "--csv", str(csv), "--target", "y", "--method", method, *flags,
                     "--alpha-assumed", "0.15", "--seed", "7", "--out", str(out)]) == 0
        doc = json.loads((out / "p_defense.json").read_text())
        want = {**settings, "alpha_assumed": 0.15, "seed": 7}
        assert {key: doc[key] for key in want} == want
        # the other method's settings stay out, as the CLI refuses them under this one
        assert not ({"gamma", "epsilon", "max_iters"} - set(settings)) & set(doc)

    def test_trim_bound_past_the_digit_limit(self, tmp_path):
        out = tmp_path / "out"
        code = main(["defend", "--synthetic", "d=1,n=20000,noise=0.1", "--method", "trim",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "synthetic_defense.json").read_text())
        assert doc["trim_worst_case_iterations"].startswith("10^4344.")


class TestJsonFiles:
    def test_fit_and_defend_files_parse_to_the_library_dicts(self, tmp_path):
        csv = tmp_path / "c.csv"
        rng = np.random.default_rng(3)
        xs, codes, noise = rng.uniform(size=30), rng.integers(0, 3, 30), rng.normal(0, 0.05, 30)
        rows = [f"{x},{'uvw'[c]},{0.5 * x + 0.1 * c + e}" for x, c, e in zip(xs, codes, noise)]
        csv.write_text("\n".join(["x,c,y", *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        data = ["--csv", str(csv), "--target", "y", "--family", "ridge", "--lambda", "0.01",
                "--out", str(out)]
        assert main(["fit", *data]) == 0
        assert main(["defend", *data, "--method", "trim", "--alpha-assumed", "0.2"]) == 0
        ds, norm = load_csv(csv, "y")
        model = fit(ds, "ridge", 0.01, rho=0.5).converged_model("fit")
        assert json.loads((out / "c_model.json").read_text()) == model.to_dict()
        assert json.loads((out / "c_normalization.json").read_text()) == norm.to_dict()
        result = defend.trim_defend(ds, 0.2, "ridge", 0.01, rho=0.5, max_iters=100, seed=1337)
        added = {"wall_time_s", "method", "alpha_assumed", "max_iters", "seed",
                 "trim_worst_case_iterations", "trim_worst_case_note"}
        doc = json.loads((out / "c_defense.json").read_text())
        assert added <= set(doc)
        assert {k: v for k, v in doc.items() if k not in added} == result.to_dict()


class TestSweepAndReport:
    def test_sweep_writes_records_summary_and_plot(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--attack", "nopt",
                     "--alphas", "0.1,0.2", "--repeats", "1", "--out", str(out),
                     "--seed", "3"])
        assert code == 0
        assert (out / "records.jsonl").exists()
        assert (out / "summary.csv").exists()
        assert (out / "mse_vs_alpha.svg").exists()
        assert (out / "mse_vs_alpha.csv").exists()

    def test_report_from_records(self, tmp_path):
        out1 = tmp_path / "a"
        main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--alphas", "0.1,0.2",
              "--repeats", "1", "--out", str(out1), "--seed", "3"])
        out2 = tmp_path / "b"
        code = main(["report", "--records", str(out1 / "records.jsonl"), "--out", str(out2)])
        assert code == 0
        assert (out2 / "summary.csv").read_text() == (out1 / "summary.csv").read_text()
        assert (out2 / "report.txt").exists()

    def test_report_does_not_depend_on_record_order(self, tmp_path):
        # the cells of two sweeps share their coordinates, so each summary
        # row averages both sweeps' repeats, whichever file comes first
        texts = []
        for seed in ("3", "4"):
            out = tmp_path / f"seed{seed}"
            assert main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--attack", "nopt",
                         "--alphas", "0.1,0.2", "--repeats", "2", "--out", str(out),
                         "--seed", seed]) == 0
            texts.append((out / "records.jsonl").read_text(encoding="utf-8"))
        written = []
        for name, text in (("ab", texts[0] + texts[1]), ("ba", texts[1] + texts[0])):
            path = tmp_path / f"{name}.jsonl"
            path.write_text(text, encoding="utf-8")
            assert main(["report", "--records", str(path), "--out", str(tmp_path / name)]) == 0
            written.append([(tmp_path / name / f).read_bytes()
                            for f in ("summary.csv", "mse_vs_alpha.csv", "report.txt")])
        assert written[0] == written[1]

    def test_report_counts_the_cell_records_not_the_header(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--alphas", "0.1,0.2",
              "--repeats", "1", "--out", str(out1), "--seed", "3"])
        assert "wrote 2 records" in capsys.readouterr().out
        code = main(["report", "--records", str(out1 / "records.jsonl"), "--out", str(out2)])
        assert code == 0
        assert "wrote summary for 2 records" in capsys.readouterr().out

    def test_report_counts_every_cell_record_and_the_failed_ones(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--alphas", "0.1,0.2",
                     "--repeats", "3", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "report.txt").read_text().splitlines()[1] == "cells: 6 (0 failed)"
        # gamma=2 is below d+1, so its two cells carry an error
        out = tmp_path / "proda"
        code = main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--defense", "proda",
                     "--gammas", "2,3", "--alphas", "0.1", "--repeats", "2",
                     "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "report.txt").read_text().splitlines()[1] == "cells: 4 (2 failed)"

    def test_every_cell_failed_still_writes_the_summary_and_the_report(self, tmp_path):
        # gamma=2 is below d+1, so every cell carries an error and no chart has a point
        out, again = tmp_path / "out", tmp_path / "again"
        code = main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--defense", "proda",
                     "--gammas", "2", "--alphas", "0.1,0.2", "--repeats", "1", "--out", str(out)])
        assert code == 1
        assert main(["report", "--records", str(out / "records.jsonl"), "--out", str(again)]) == 0
        for path in (out, again):
            assert (path / "report.txt").read_text().splitlines()[1] == "cells: 2 (2 failed)"
            assert (path / "summary.csv").read_text() == (out / "summary.csv").read_text()
            assert not list(path.glob("mse_vs_*"))

    def test_report_names_the_failures_of_a_sweep_whose_every_cell_failed(self, tmp_path):
        # noiseless data leaves Nopt a zero clean reference loss in every cell
        out = tmp_path / "out"
        assert main(["sweep", "--synthetic", "d=2,n=60,noise=0", "--attack", "nopt",
                     "--alphas", "0.2", "--repeats", "2", "--out", str(out)]) == 1
        assert (out / "report.txt").read_text().splitlines()[1:] == [
            "cells: 2 (2 failed)",
            "failed nopt none ols: 2 DegenerateCleanLossError; first: clean reference loss is "
            "zero; add noise to the data or use a relative floor",
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_sweep_with_no_good_cell_writes_its_files_and_exits_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert main(["sweep", "--synthetic", "d=2,n=60,noise=0", "--attack", "nopt",
                     "--alphas", "0.2", "--repeats", "2", "--jobs", jobs, "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert printed.out == f"wrote 2 records to {out / 'records.jsonl'}\n"
        assert printed.err == ("poisonbench: error: all 2 cells failed; first: "
                               "DegenerateCleanLossError: clean reference loss is zero; "
                               "add noise to the data or use a relative floor\n")
        assert all((out / name).exists() for name in ("records.jsonl", "summary.csv", "report.txt"))

    def test_a_small_surrogate_view_runs_its_nopt_cells(self, tmp_path):
        # a 0.1 view of the 20-row training fold is floored at d+2 = 4 rows;
        # OLS interpolates d+1 rows, which leaves Nopt no clean loss
        out = tmp_path / "out"
        assert main(["sweep", "--synthetic", "d=2,n=60,noise=0.1", "--attack", "nopt",
                     "--surrogate-fraction", "0.1", "--alphas", "0.2", "--repeats", "2",
                     "--out", str(out)]) == 0
        assert (out / "report.txt").read_text().splitlines()[1] == "cells: 2 (0 failed)"

    def test_report_on_a_file_cut_off_mid_line_names_the_file_and_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--attack", "nopt",
                     "--alphas", "0.1,0.2", "--repeats", "2", "--out", str(out)]) == 0
        text = (out / "records.jsonl").read_text()
        last = text.splitlines()[-1]
        assert text.count("\n") == 5  # the header and four cells
        cut = tmp_path / "cut.jsonl"
        cut.write_text(text[: len(text) - 1 - len(last) // 2])  # the last line loses its second half
        capsys.readouterr()
        assert main(["report", "--records", str(cut), "--out", str(tmp_path / "report")]) == 1
        assert f"poisonbench: error: ValueError: {cut}:5: " in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["3", "[1, 2]", '"cell"', "null"])
    def test_report_on_a_line_that_is_not_an_object_names_the_file_and_line(
            self, tmp_path, capsys, line):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"record_type": "header"}) + "\n" + line + "\n")
        capsys.readouterr()
        assert main(["report", "--records", str(records), "--out", str(tmp_path / "report")]) == 1
        assert (f"poisonbench: error: ValueError: {records}:2: a record is a JSON object, "
                f"got {line}") in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["family", "attack"])
    @pytest.mark.parametrize("error", [None, "ValueError: x"])
    def test_report_refuses_a_cell_record_without_family_or_attack(
            self, tmp_path, capsys, key, error):
        cell = {"record_type": "cell", "family": "ols", "attack": "nopt", "defense": "none",
                "alpha": 0.1, "repeat": 0, "mse_clean": 0.01, "mse_poisoned": 0.02,
                "error": error}
        del cell[key]
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"record_type": "header"}) + "\n"
                           + json.dumps({k: v for k, v in cell.items() if v is not None}) + "\n")
        capsys.readouterr()
        assert main(["report", "--records", str(records), "--out", str(tmp_path / "report")]) == 1
        assert capsys.readouterr().err == (
            f"poisonbench: error: ValueError: {records}:2: a cell record needs {key!r}\n")
        assert not (tmp_path / "report").exists()

    def test_report_on_a_file_with_no_cell_record_creates_nothing(self, tmp_path, capsys):
        # a sweep whose dataset fails to load leaves only the header
        sweep = tmp_path / "sweep"
        assert main(["sweep", "--csv", str(tmp_path / "missing.csv"), "--target", "y",
                     "--out", str(sweep)]) == 1
        assert len((sweep / "records.jsonl").read_text().splitlines()) == 1
        capsys.readouterr()
        report = tmp_path / "report"
        assert main(["report", "--records", str(sweep / "records.jsonl"),
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            "poisonbench: error: ValueError: no cell records to aggregate\n")
        assert not report.exists()

    def test_a_records_file_may_start_with_a_bom(self, tmp_path):
        sweep = tmp_path / "sweep"
        assert main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--attack", "nopt",
                     "--alphas", "0.1,0.2", "--repeats", "1", "--out", str(sweep)]) == 0
        plain = sweep / "records.jsonl"
        marked = tmp_path / "marked.jsonl"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_records(marked) == read_records(plain)
        assert main(["report", "--records", str(marked), "--out", str(tmp_path / "report")]) == 0
        for name in ("summary.csv", "mse_vs_alpha.csv", "report.txt"):
            assert (tmp_path / "report" / name).read_bytes() == (sweep / name).read_bytes()

    def test_sweeps_of_two_synthetic_sources_write_different_headers(self, tmp_path):
        heads = []
        for synthetic in ("d=2,n=60,noise=0.1", "d=5,n=300,noise=0.3"):
            out = tmp_path / synthetic
            assert main(["sweep", "--synthetic", synthetic, "--alphas", "0.1",
                         "--repeats", "1", "--out", str(out)]) == 0
            heads.append(json.loads((out / "records.jsonl").read_text().splitlines()[0]))
        assert [(h["synthetic"]["d"], h["synthetic"]["n"], h["synthetic"]["noise_std"])
                for h in heads] == [(2, 60, 0.1), (5, 300, 0.3)]

    def test_report_says_how_each_attack_ended(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code = main(["sweep", "--synthetic", "d=2,n=60,noise=0.1", "--attack", "opt",
                     "--families", "ols,ridge", "--alphas", "0.1,0.2", "--repeats", "2",
                     "--out", str(out1), "--seed", "3"])
        assert code == 0
        assert main(["report", "--records", str(out1 / "records.jsonl"), "--out", str(out2)]) == 0
        cells = [json.loads(line) for line in (out1 / "records.jsonl").read_text().splitlines()[1:]]
        want = []
        for family in ("ols", "ridge"):
            group = [r for r in cells if r["family"] == family]
            assert len(group) == 4
            converged = sum(r["attack_converged"] for r in group)
            sweeps = np.median([r["attack_iterations"] for r in group])
            refits = np.median([r["attack_refits"] for r in group])
            want.append(f"attack opt {family}: {converged}/4 converged; "
                        f"median {sweeps:g} sweeps, {refits:g} refits")
        for out in (out1, out2):
            assert (out / "report.txt").read_text().splitlines()[2:] == want

    def test_verbose_prints_one_stderr_line_per_record(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--defense", "proda",
                     "--gammas", "2,3", "--alphas", "0.1", "--repeats", "2", "--verbose",
                     "--out", str(out), "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4
        # gamma=2 is below d+1, so its cells carry an error
        for i, line in enumerate(lines[:2]):
            assert line.startswith(f"[{i + 1}] ols alpha=0.1 gamma=2 repeat={i} error=ValueError: ")
            assert "d+1" in line
        assert lines[2:] == ["[3] ols alpha=0.1 gamma=3 repeat=0 ok",
                             "[4] ols alpha=0.1 gamma=3 repeat=1 ok"]
        cells = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()[1:]]
        assert len(cells) == len(lines)

    @pytest.mark.parametrize("k", [1, 3])
    def test_interrupted_sweep_keeps_finished_records(self, tmp_path, monkeypatch, k):
        run_cell = harness.run_cell
        calls = []

        def interrupt_at_k(*args):
            calls.append(args)
            if len(calls) == k:
                raise KeyboardInterrupt
            return run_cell(*args)

        monkeypatch.setattr(harness, "run_cell", interrupt_at_k)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--alphas", "0.1,0.2",
                  "--repeats", "2", "--jobs", "1", "--out", str(out), "--seed", "3"])
        text = (out / "records.jsonl").read_text()
        assert text.endswith("\n")
        records = [json.loads(line) for line in text.splitlines()]
        assert records[0]["record_type"] == "header"
        assert [(r["alpha"], r["repeat"]) for r in records[1:]] == \
            [(0.1, 0), (0.1, 1), (0.2, 0)][: k - 1]
        assert not (out / "summary.csv").exists()

    def test_report_requires_records(self):
        with pytest.raises(UsageError, match="--records"):
            parse_args(["report"])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, jobs):
        assert main(["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_load_exits_1_for_any_jobs(self, tmp_path, jobs, capsys):
        code = main(["sweep", "--csv", str(tmp_path / "missing.csv"), "--target", "y",
                     "--repeats", "2", "--jobs", jobs, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FileNotFoundError" in capsys.readouterr().err

    @pytest.mark.parametrize("preset,openblas", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
    def test_sweep_workers_run_blas_on_one_thread_unless_set(self, tmp_path, preset, openblas):
        # numpy reads the variables once, on import, so only a fresh
        # process shows what the command sets; its pool records what each
        # worker's environment holds
        script = tmp_path / "sweep.py"
        script.write_text(RECORDING_SWEEP, encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
        env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["sweep", "--synthetic", "d=2,n=45,noise=0.1", "--alphas", "0.1,0.2",
                "--repeats", "1", "--jobs", "2", "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, str(script), str(tmp_path), *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seen = [json.loads(p.read_text()) for p in tmp_path.glob("worker-*.json")]
        assert 1 <= len(seen) <= 2
        want = {"OPENBLAS_NUM_THREADS": openblas, "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        assert seen == [want] * len(seen)


# `sweep` in a fresh process whose pool workers each write their BLAS thread
# variables to <argv[1]>/worker-<pid>.json when they start
RECORDING_SWEEP = """\
import concurrent.futures, json, os, sys

NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def record_environment():
    path = os.path.join(sys.argv[1], f"worker-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump({name: os.environ.get(name) for name in NAMES}, f)


class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers=None):
        super().__init__(max_workers, initializer=record_environment)


if __name__ == "__main__":
    concurrent.futures.ProcessPoolExecutor = RecordingPool  # before harness imports it
    from poisonbench import cli

    assert "numpy" not in sys.modules
    sys.exit(cli.main(sys.argv[2:]))
"""


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigFile:
    @pytest.mark.parametrize("line,argv", [
        ("attack.method=bogus", ["attack", "--alpha", "0.2", "--max-iters", "1"]),
        ("defend.method=bogus", ["defend"]),
        ("family=foo", ["fit"]),
    ])
    def test_bad_choice_exits_2_before_output(self, tmp_path, line, argv):
        out = tmp_path / "out"
        code = main(["--config", _write_config(tmp_path, line + "\n"), *argv,
                     "--synthetic", "d=1,n=20,noise=0.1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_sections_apply_to_their_command_only(self, tmp_path):
        path = _write_config(tmp_path, "attack.method=nopt\ndefend.method=proda\ndefend.gamma=6\n"
                                       "attack.alpha=0.15\nalpha=0.1\n")
        data = ["--synthetic", "d=1,n=20,noise=0.1"]
        attack = parse_args(["--config", path, "attack", *data]).options
        defend = parse_args(["--config", path, "defend", *data]).options
        assert (attack["method"], attack["alpha"]) == ("nopt", 0.15)  # the section beats a bare key
        # a bare alpha is the attacker's rate, which defend does not read
        assert (defend["method"], defend["gamma"], defend["alpha_assumed"]) == ("proda", 6, 0.2)

    @pytest.mark.parametrize("config,alpha_assumed", [
        ("alpha=0.3\nalpha_assumed=0.1\n", 0.1),  # a bare alpha is attack's alone
        ("", 0.2),
    ])
    def test_alias_takes_the_value_of_the_higher_layer(self, tmp_path, config, alpha_assumed):
        opts = parse_args(["--config", _write_config(tmp_path, config), "defend", "--method",
                           "trim", "--synthetic", "d=2,n=40,noise=0.1"]).options
        assert opts["alpha_assumed"] == alpha_assumed

    def test_one_file_holds_the_attackers_and_the_defenders_rate(self, tmp_path):
        data = ["--synthetic", "d=2,n=40,noise=0.1"]
        path = _write_config(tmp_path, "alpha=0.1\nalpha_assumed=0.3\n")
        assert parse_args(["--config", path, "attack", *data]).options["alpha"] == 0.1
        for argv in (["defend", "--method", "trim"], ["sweep"]):
            assert parse_args(["--config", path, *argv, *data]).options["alpha_assumed"] == 0.3
        path = _write_config(tmp_path, "alpha=0.1\n")
        opts = parse_args(["--config", path, "defend", "--method", "trim", *data]).options
        assert opts["alpha_assumed"] == 0.2

    def test_a_config_file_may_start_with_a_bom(self, tmp_path):
        text = "seed=9\nfit.lambda=0.5\n"
        argv = ["fit", "--synthetic", "d=2,n=40,noise=0.1", "--family", "ridge"]
        read = []
        for prefix in ("", "\ufeff"):
            read.append(parse_args(["--config", _write_config(tmp_path, prefix + text),
                                    *argv]).options)
        assert read[0] == read[1]
        assert (read[1]["seed"], read[1]["lambda"]) == (9, 0.5)

    @pytest.mark.parametrize("method", ["proda", "trim"])
    def test_bare_key_the_defense_never_reads_is_ignored(self, tmp_path, method):
        path = _write_config(tmp_path, "max_iters=5\ngamma=3\nepsilon=0.5\n")
        opts = parse_args(["--config", path, "defend", "--method", method,
                           "--synthetic", "d=2,n=40,noise=0.1"]).options
        assert (opts["max_iters"], opts["gamma"], opts["epsilon"]) == (5, 3, 0.5)

    def test_bare_key_of_another_command_is_checked_then_ignored(self, tmp_path):
        path = _write_config(tmp_path, "verbose=yes\nseed=9\n")
        assert parse_args(["--config", path, "sweep", "--synthetic", "d=1,n=10,noise=0.1"]
                          ).options["verbose"] is True
        report = parse_args(["--config", path, "report", "--records", "r.jsonl"]).options
        assert "verbose" not in report and "seed" not in report

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # only a line whose first non-blank character is '#' is a comment, so
        # out=.../run#3 means what --out .../run#3 means
        out = tmp_path / "run#3"
        path = _write_config(tmp_path, f"  # where to write\nout={out}\n")
        assert main(["--config", path, "fit", "--synthetic", "d=1,n=20,noise=0.1"]) == 0
        assert (out / "synthetic_model.json").exists()

    @pytest.mark.parametrize("line,match", [
        ("verbose=maybe", "verbose"),
        ("nosuchcommand.alpha=0.1", "unknown config key"),
        ("fit.alpha=0.1", "unknown config key"),
    ])
    def test_usage_errors(self, tmp_path, line, match):
        with pytest.raises(UsageError, match=match):
            parse_args(["--config", _write_config(tmp_path, line + "\n"), "fit",
                        "--synthetic", "d=1,n=10,noise=0.1"])


class TestOneNamePerSetting:
    # defend reads only --alpha-assumed, the config key of --lambda is lambda,
    # and a flag matches by its full name only
    @pytest.mark.parametrize("argv,config", [
        (["defend", "--method", "trim", "--alpha", "0.2"], ""),
        (["defend", "--method", "trim"], "defend.alpha=0.2\n"),
        (["fit"], "lam=0.5\n"),
        (["fit"], "fit.lam=0.5\n"),
        (["sweep", "--rep", "3"], ""),
        (["defend", "--method", "trim", "--alpha", "7", "--alpha-assumed", "0.3"], ""),
    ])
    def test_a_spelling_that_is_not_the_name_exits_2_before_output(
            self, tmp_path, capsys, argv, config):
        out = tmp_path / "out"
        try:
            code = main(["--config", _write_config(tmp_path, config), *argv,
                         "--synthetic", "d=2,n=40,noise=0.1", "--out", str(out)])
        except SystemExit as exc:  # argparse: the command has no such flag
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_help_names_lambda_by_its_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--lambda LAMBDA" in capsys.readouterr().out


_SAMPLE_TEXT = {
    str: "0.25", float: "0.15", int: "7", _parse_bool: "true",
    _parse_float_list: "0.1,0.2", _parse_int_list: "6,8", _parse_families: "ridge,lasso",
    _parse_synthetic: "d=2,n=30,noise=0.2",
}


def _sample_text(option):
    """A valid value for the option that differs from its default."""
    if option.choices:
        return next(c for c in option.choices if c != option.default)
    if option.dest == "categorical":
        return "a,b"
    return _SAMPLE_TEXT[option.type]


def _base_argv(command, dest):
    """The fewest arguments `command` accepts, leaving `dest` unset."""
    if command == "report":
        base = {"records": "r.jsonl"}
    elif dest in ("csv", "target"):
        base = {"csv": "a.csv", "target": "y"}
    else:
        base = {"synthetic": "d=1,n=10,noise=0.1"}
    defend = {"method": "trim"} if dest == "max_iters" else {"method": "proda", "gamma": "6"}
    base.update({"attack": {"alpha": "0.1"}, "defend": defend}.get(command, {}))
    base.pop(dest, None)
    return [command] + [arg for key, value in base.items() for arg in (f"--{key}", value)]


@pytest.mark.parametrize(
    "option,command",
    [(o, c) for o in OPTIONS for c in o.commands],
    ids=[f"{c}{o.flag}" for o in OPTIONS for c in o.commands],
)
def test_flag_and_config_key_give_the_same_option(tmp_path, option, command):
    base = _base_argv(command, option.dest)
    text = _sample_text(option)
    flag = [option.flag] if option.type is _parse_bool else [option.flag, text]
    by_flag = parse_args(base + flag).options
    path = _write_config(tmp_path, f"{command}.{option.flag[2:]}={text}\n")
    assert parse_args(["--config", path] + base).options == by_flag
    assert by_flag[option.dest] != option.default
    with pytest.raises(SystemExit) as exc:  # a flag matches by its full name only
        parse_args(base + [option.flag[:-1], *flag[1:]])
    assert exc.value.code == 2

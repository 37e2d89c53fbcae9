"""`report`, `--help` and the CLI's usage errors, none of which loads numpy
or a compute module. This module imports only the standard library, pytest
and poisonbench's cli, records and svgplot, and needs no conftest:
test_package runs it with numpy blocked, and CI runs it on the package's
oldest Python with numpy absent:

    python -m pytest -q --noconftest tests/test_report.py
"""

import json

import pytest

from poisonbench.cli import UsageError, main, parse_args
from poisonbench.records import read_records, write_report

_SYN = ["--synthetic", "d=2,n=40,noise=0.1"]


def _write_args(tmp_path, text):
    """An argument file holding `text`, as the `@FILE` argument that reads it."""
    path = tmp_path / "run.args"
    path.write_text(text, encoding="utf-8")
    return f"@{path}"


def _write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


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


HEADER = {"record_type": "header", "schema_version": 1}

RECORDS_FOR_REPORT = [
    HEADER,
    *({"record_type": "cell", "dataset": "synthetic", "family": "ols", "attack": "nopt",
       "defense": "none", "alpha": alpha, "gamma": None, "repeat": repeat,
       "mse_clean": 0.01 + repeat / 1000, "mse_poisoned": alpha + repeat / 100,
       "attack_converged": True, "attack_iterations": 3 + repeat, "attack_refits": 40 + repeat}
      for alpha in (0.1, 0.2) for repeat in (0, 1)),
]

# two good cells and a failed third
CELL = {"record_type": "cell", "family": "ols", "attack": "nopt", "defense": "none",
        "alpha": 0.1, "repeat": 0, "mse_clean": 0.01, "mse_poisoned": 0.02}
RECORDS_WITH_A_FAILED_CELL = [
    HEADER,
    CELL,
    {**CELL, "alpha": 0.2, "mse_poisoned": 0.04},
    {"record_type": "cell", "family": "ols", "attack": "nopt", "defense": "none", "alpha": 0.2,
     "repeat": 1, "error": "DegenerateCleanLossError: clean reference loss is zero"},
]


def test_report_help_and_usage_errors_load_no_numpy(tmp_path):
    # report reads JSON lines and writes CSV, text and SVG; numpy and the
    # compute modules would cost most of its process time. Run with numpy
    # blocked, a command that imports either fails
    path = _write_records(tmp_path / "records.jsonl", RECORDS_FOR_REPORT)
    out = tmp_path / "out"
    runs = [(["report", "--records", str(path), "--out", str(out)], 0), (["--help"], 0),
            (["report", "--help"], 0), (["report", "--out", str(out)], 2)]
    for argv, expected in runs:
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's --help
            status = exc.code
        assert status == expected, argv
    assert (out / "mse_vs_alpha.svg").exists()
    assert "median 3.5 sweeps, 40.5 refits" in (out / "report.txt").read_text(encoding="utf-8")


def test_report_draws_the_good_cells_and_counts_the_failed_one(tmp_path):
    path = _write_records(tmp_path / "records.jsonl", RECORDS_WITH_A_FAILED_CELL)
    out = tmp_path / "report"
    assert main(["report", "--records", str(path), "--out", str(out)]) == 0
    assert (out / "mse_vs_alpha.svg").stat().st_size > 0
    lines = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    assert "cells: 3 (1 failed)" in lines
    assert ("failed nopt none ols: 1 DegenerateCleanLossError; first: clean reference loss is "
            "zero") in lines


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_help_names_lambda_by_its_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--lambda LAMBDA" in capsys.readouterr().out


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--nonsense"])
    assert exc.value.code == 2


def test_report_requires_records():
    with pytest.raises(UsageError, match="--records"):
        parse_args(["report"])


def test_report_without_records_exits_2_before_output(tmp_path, capsys):
    out = tmp_path / "unused"
    assert main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "poisonbench: --records is required for report\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["fit", *_SYN], "argument --lambda: expected a number or 'auto', got 'small'"),
    (["report", "--records", "r.jsonl"], "unrecognized arguments: --lambda small"),
])
def test_a_file_lambda_is_checked_like_the_flag(tmp_path, capsys, argv, message):
    # a later flag overrides the file's --lambda, and report has no --lambda,
    # yet the file's value is checked as the flag's is
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, _write_args(tmp_path, "--lambda small\n"), "--lambda", "0.1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "--records 'sale price/r.jsonl' --out runs/#3\n",
    '--records="sale price/r.jsonl"\n--out=runs/#3\n',
    # an editor may save the file with a UTF-8 byte-order mark
    "\ufeff--records sale\\ price/r.jsonl\n--out runs/#3\n",
    # only a line whose first non-blank character is '#' is a comment
    "\n  # the records\n\n   \n--records 'sale price/r.jsonl'\n#--out elsewhere\n--out runs/#3",
], ids=["one-line", "equals", "bom", "comments"])
def test_an_argument_file_line_reads_as_shell_words(tmp_path, text):
    by_flags = parse_args(["report", "--records", "sale price/r.jsonl", "--out", "runs/#3"])
    assert parse_args(["report", _write_args(tmp_path, text)]).options == by_flags.options


def test_an_argument_file_with_a_bom_sets_report_out(tmp_path):
    path = _write_records(tmp_path / "records.jsonl", RECORDS_WITH_A_FAILED_CELL[:2])
    out = tmp_path / "run #3"
    args = _write_args(tmp_path, f"\ufeff# where to write\n--out '{out}'\n")
    assert main(["report", args, "--records", str(path)]) == 0
    assert (out / "summary.csv").stat().st_size > 0


def test_a_value_that_starts_with_at_names_an_argument_file(tmp_path, monkeypatch, capsys):
    # --out @runs reads the arguments in the file runs; --out=@runs is a value
    monkeypatch.chdir(tmp_path)
    path = _write_records(tmp_path / "records.jsonl", RECORDS_WITH_A_FAILED_CELL[:2])
    with pytest.raises(SystemExit) as exc:
        main(["report", "--records", str(path), "--out", "@runs"])
    assert exc.value.code == 2
    assert "error: [Errno 2] No such file or directory: 'runs'\n" in capsys.readouterr().err
    assert main(["report", "--records", str(path), "--out=@runs"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["@runs", "records.jsonl"]
    assert (tmp_path / "@runs" / "summary.csv").stat().st_size > 0


@pytest.mark.parametrize("line", ["3", "[1, 2]", '"cell"', "null"])
def test_report_on_a_line_that_is_not_an_object_names_the_file_and_line(tmp_path, capsys, line):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({"record_type": "header"}) + "\n" + line + "\n")
    capsys.readouterr()
    assert main(["report", "--records", str(records), "--out", str(tmp_path / "report")]) == 1
    assert (f"poisonbench: error: ValueError: {records}:2: a record is a JSON object, "
            f"got {line}") in capsys.readouterr().err


@pytest.mark.parametrize("key", ["family", "attack"])
@pytest.mark.parametrize("error", [None, "ValueError: x"])
def test_report_refuses_a_cell_record_without_family_or_attack(tmp_path, capsys, key, error):
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


def test_report_on_a_header_only_records_file_creates_nothing(tmp_path, capsys):
    # what a sweep whose dataset fails to load leaves
    path = _write_records(tmp_path / "records.jsonl", [HEADER])
    report = tmp_path / "report"
    assert main(["report", "--records", str(path), "--out", str(report)]) == 1
    assert capsys.readouterr().err == (
        "poisonbench: error: ValueError: no cell records to aggregate\n")
    assert not report.exists()


class TestReportText:
    @staticmethod
    def report_lines(tmp_path, records):
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        write_report(tmp_path, read_records(path))
        return (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("bounds, largest", [
        (("4598126", "131282477347802347061316958640"), "131282477347802347061316958640"),
        (("999", "1000", "998"), "1000"),
        (("5", "10^4000.500", "10^4100.123", "9" * 3999), "10^4100.123"),
    ])
    def test_trim_line_shows_the_largest_bound(self, tmp_path, bounds, largest):
        cells = [fake_record(defense="trim", alpha=0.04 * (i + 1), defense_iterations=i + 2,
                             trim_worst_case_iterations=b, mse_defended=0.01)
                 for i, b in enumerate(bounds)]
        lines = self.report_lines(tmp_path, cells)
        assert lines[2] == (f"trim iterations: max {len(bounds) + 1} (bounded by max_iters); "
                            f"worst case C(N, n) = {largest} subset traversals")

    def test_trim_line_says_n_a_when_no_cell_has_a_bound(self, tmp_path):
        failed = fake_record(defense="trim", error="ValueError: subset size n=2 smaller than d+1")
        lines = self.report_lines(tmp_path, [failed])
        assert lines[3] == ("trim iterations: max n/a (bounded by max_iters); "
                            "worst case C(N, n) = n/a subset traversals")

    def test_one_failure_line_per_attack_defense_family_and_exception_type(self, tmp_path):
        cells = [
            fake_record(attack="nopt", error="DegenerateCleanLossError: clean loss is zero"),
            fake_record(attack="nopt", defense="trim", error="ValueError: subset n=2"),
            fake_record(attack="nopt", defense="trim", repeat=1, error="ValueError: subset n=3"),
            fake_record(attack="nopt", defense="trim", family="ridge", error="ValueError: n=2"),
            fake_record(attack="nopt", defense="trim", repeat=2, error="FloatingPointError: "),
            fake_record(attack="nopt", defense="trim", repeat=3, mse_defended=0.01),
        ]
        assert self.report_lines(tmp_path, cells)[1:6] == [
            "cells: 6 (5 failed)",
            "failed nopt none ols: 1 DegenerateCleanLossError; first: clean loss is zero",
            "failed nopt trim ols: 1 FloatingPointError; first: ",
            "failed nopt trim ols: 2 ValueError; first: subset n=2",
            "failed nopt trim ridge: 1 ValueError; first: n=2",
        ]

    def test_records_of_two_datasets_keep_them_apart(self, tmp_path):
        # the records of two sweeps `cat`-ed together: each dataset has its
        # own chart series and its own report lines
        cells = [fake_record(dataset=name, attack="nopt", alpha=alpha, mse_clean=clean,
                             mse_poisoned=poisoned, attack_converged=True, attack_iterations=3,
                             attack_refits=40)
                 for name, clean, poisoned in (("a", 0.01, 0.02), ("b", 0.03, 0.05))
                 for alpha in (0.1, 0.2)]
        cells.append(fake_record(dataset="b", attack="nopt", repeat=1, error="ValueError: x"))
        assert self.report_lines(tmp_path, cells) == [
            "poisonbench report",
            "cells: 5 (1 failed)",
            "failed nopt none ols b: 1 ValueError; first: x",
            "attack nopt ols a: 2/2 converged; median 3 sweeps, 40 refits",
            "attack nopt ols b: 2/2 converged; median 3 sweeps, 40 refits",
        ]
        chart = (tmp_path / "mse_vs_alpha.csv").read_text(encoding="utf-8").splitlines()
        assert chart[1:] == [f"{name},{alpha},{y}" for name, y in (
            ("a Unpoison", 0.01), ("a Nopt", 0.02), ("b Unpoison", 0.03), ("b Nopt", 0.05))
            for alpha in (0.1, 0.2)]

    def test_one_recovery_line_per_attack_defense_and_family(self, tmp_path):
        def cell(family, defense, clean, poisoned, defended, **kwargs):
            return fake_record(family=family, attack="nopt", defense=defense, mse_clean=clean,
                               mse_poisoned=poisoned, mse_defended=defended,
                               attack_converged=True, attack_iterations=3, attack_refits=40,
                               **kwargs)

        cells = [
            # at 1.1x clean: recovered
            cell("ols", "proda", 0.010, 0.040, 0.011, gamma=3, defense_converged=True),
            cell("ols", "proda", 0.010, 0.050, 0.020, gamma=3, repeat=1, defense_converged=False),
            cell("ols", "proda", 0.010, 0.020, 0.010, gamma=4),  # records from before the key
            fake_record(family="ols", attack="nopt", defense="proda", gamma=4, repeat=1,
                        error="ValueError: gamma"),
            cell("ridge", "proda", 0.010, 0.030, 0.030, gamma=3, defense_converged=True),
            cell("ols", "none", 0.010, 0.040, None),
            fake_record(defense="trim", mse_defended=0.0105, defense_iterations=2,
                        trim_worst_case_iterations="12"),
        ]
        lines = self.report_lines(tmp_path, [{k: v for k, v in c.items() if v is not None}
                                             for c in cells])
        assert lines == [
            "poisonbench report",
            "cells: 7 (1 failed)",
            "failed nopt proda ols: 1 ValueError; first: gamma",
            "attack nopt ols: 4/4 converged; median 3 sweeps, 40 refits",
            "attack nopt ridge: 1/1 converged; median 3 sweeps, 40 refits",
            "trim iterations: max 2 (bounded by max_iters); "
            "worst case C(N, n) = 12 subset traversals",
            "recovery none trim ols: 1/1 cells within 1.1x clean MSE; "
            "median defended/poisoned MSE n/a",
            # defended/poisoned ratios 0.275, 0.4 and 0.5; the failed cell counts as not
            # recovered, and the convergence count is over the cells that record it
            "recovery nopt proda ols: 2/4 cells within 1.1x clean MSE; "
            "median defended/poisoned MSE 0.4; 1/2 converged",
            "recovery nopt proda ridge: 0/1 cells within 1.1x clean MSE; "
            "median defended/poisoned MSE 1; 1/1 converged",
        ]

    def test_the_whole_report_from_hand_built_records(self, tmp_path):
        # plain dicts that reach every kind of line, checked as one text
        def cell(family, attack, defense, repeat, **keys):
            return {"record_type": "cell", "dataset": "synthetic", "family": family,
                    "attack": attack, "defense": defense, "alpha": 0.1, "repeat": repeat,
                    "mse_clean": 0.01, **keys}

        records = [
            {"record_type": "header", "schema_version": 1},
            cell("ridge", "opt", "trim", 0, error="ValueError: subset size n=2 smaller than d+1"),
            cell("ols", "nopt", "trim", 0,
                 error="DegenerateCleanLossError: clean reference loss is zero"),
            cell("ols", "nopt", "trim", 1, attack_converged=True, attack_iterations=4,
                 attack_refits=50, mse_poisoned=0.04, mse_defended=0.01, defense_iterations=3,
                 defense_converged=True, trim_worst_case_iterations="4598126"),
            cell("ols", "nopt", "trim", 2, attack_converged=False, attack_iterations=30,
                 attack_refits=90, mse_poisoned=0.05, mse_defended=0.02, defense_iterations=7,
                 defense_converged=False, trim_worst_case_iterations="10^4100.123"),
            cell("ridge", "opt", "trim", 1, attack_converged=True, attack_iterations=2,
                 attack_refits=8, mse_poisoned=0.03, mse_defended=0.012, defense_iterations=5,
                 trim_worst_case_iterations="9" * 40),  # from before defense_converged
            cell("ridge", "opt", "trim", 2, error="ValueError: subset size n=1 smaller than d+1"),
            cell("lasso", "none", "proda", 0, gamma=4, alpha_assumed=0.0, mse_defended=0.009,
                 defense_iterations=162, defense_converged=True),  # no attack, no mse_poisoned
        ]
        assert write_report(tmp_path, records) is not None
        assert (tmp_path / "report.txt").read_text(encoding="utf-8") == "\n".join([
            "poisonbench report",
            "cells: 7 (3 failed)",
            "failed nopt trim ols: 1 DegenerateCleanLossError; first: clean reference loss is zero",
            "failed opt trim ridge: 2 ValueError; first: subset size n=2 smaller than d+1",
            "attack nopt ols: 1/2 converged; median 17 sweeps, 70 refits",
            "attack opt ridge: 1/1 converged; median 2 sweeps, 8 refits",
            "trim iterations: max 7 (bounded by max_iters); "
            "worst case C(N, n) = 10^4100.123 subset traversals",
            "recovery none proda lasso: 1/1 cells within 1.1x clean MSE; "
            "median defended/poisoned MSE n/a; 1/1 converged",
            "recovery nopt trim ols: 1/3 cells within 1.1x clean MSE; "
            "median defended/poisoned MSE 0.325; 1/2 converged",
            "recovery opt trim ridge: 0/3 cells within 1.1x clean MSE; "
            "median defended/poisoned MSE 0.4",
        ]) + "\n"

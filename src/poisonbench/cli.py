"""Command-line entry point: fit, attack, defend, sweep, and report.

Precedence for every option: command-line flag > built-in default; --out
alone falls back to $POISONBENCH_OUT before its default. An argument @FILE
stands for the flags its lines hold. All randomness flows from --seed
(default 1337, never wall clock).

Exit codes: 0 success, 1 computational failure (a sweep none of whose cells
succeeded included), 2 usage error. Diagnostics go to stderr; data goes to
files under the output directory.

numpy and the compute modules are imported by the functions that use them:
`report`, `--help` and the CLI's flag checks load neither. The library's
rules and objects, loaded by the data commands, check every value's range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from . import records, svgplot
from .records import DEFAULT_SEED, FAMILIES

DEFAULT_OUT = "poisonbench-out"
MAX_GRID_VALUES = 1000  # values one start:stop:step range may expand to
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class UsageError(ValueError):
    """Invalid configuration; reported on stderr with exit code 2."""


@dataclass
class CliConfig:
    command: str
    options: dict
    # the library objects `_validate` builds from the options, each once
    built: dict = field(default_factory=dict)


def _parse_float_list(text: str) -> tuple[float, ...]:
    """Comma list or start:stop:step range (stop inclusive, never passed,
    at most MAX_GRID_VALUES values) of finite values."""
    text = text.strip()
    parts = text.split(":" if ":" in text else ",")
    if ":" in text and len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"grid values must be finite, got {text!r}")
    if ":" in text:
        start, stop, step = values
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        # a few ulps of the endpoints' size, so rounding cannot drop stop itself
        slack = 4 * sys.float_info.epsilon * max(abs(start), abs(stop))
        steps = (stop - start + slack) / step  # inf for a subnormal step
        if not steps < MAX_GRID_VALUES:
            raise argparse.ArgumentTypeError(f"range {text!r} has over {MAX_GRID_VALUES} values")
        return tuple(round(start + i * step, 12) for i in range(math.floor(steps) + 1))
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    values = _parse_float_list(text)
    out = []
    for v in values:
        if v != int(v):
            raise argparse.ArgumentTypeError(f"expected integers, got {v}")
        out.append(int(v))
    return tuple(out)


def _family_name(text: str) -> str:
    """A family as `--family` and `--families` take it: any case, spaces around."""
    return text.strip().lower()


def _parse_families(text: str) -> tuple[str, ...]:
    families = tuple(map(_family_name, text.split(",")))
    for f in families:
        if f not in FAMILIES:
            raise argparse.ArgumentTypeError(f"unknown family {f!r} (choose from {FAMILIES})")
    return families


# --synthetic key: (SyntheticSpec field, converter), in conversion order
_SYNTHETIC_KEYS = {
    "d": ("d", int), "n": ("n", int), "noise": ("noise_std", float), "seed": ("seed", int),
    "w": ("true_weights", lambda v: tuple(map(float, v.split(";")))), "b": ("true_bias", float),
}


def _parse_synthetic(text: str) -> dict:
    """d=5,n=300[,noise=0.1][,seed=0][,w=0.3;0.2;...][,b=0.25] as SyntheticSpec
    fields; the generator draws w and b from the seed when they are left out."""
    fields = {}
    for item in text.split(","):
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected key=value in --synthetic, got {item!r}")
        key, value = (s.strip() for s in item.split("=", 1))
        if key in fields:
            raise argparse.ArgumentTypeError(f"repeated --synthetic key {key!r}")
        fields[key] = value
    missing = [key for key in ("d", "n") if key not in fields]
    if missing:
        raise argparse.ArgumentTypeError(f"--synthetic needs {' and '.join(missing)}")
    try:
        spec = {field: convert(fields.pop(key))
                for key, (field, convert) in _SYNTHETIC_KEYS.items() if key in fields}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --synthetic value: {exc}") from exc
    if fields:
        raise argparse.ArgumentTypeError(f"unknown --synthetic keys: {sorted(fields)}")
    return spec


def _parse_lambda(text: str) -> float | str:
    try:
        return text if text == "auto" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


@dataclass(frozen=True)
class Option:
    """One flag of `commands`, on the command line or in an @FILE alike."""

    flag: str
    help: str
    commands: tuple[str, ...]
    group: str | None = None
    type: Callable = str
    choices: tuple | None = None
    default: object = None
    reads: tuple[str, ...] = ()  # the attacks or defenses under which it is read; () is always
    required: bool = False  # the command needs it wherever it reads it
    action: str | None = None  # argparse's, for a flag that takes no value

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_DATA = ("fit", "attack", "defend", "sweep")
_ONE = ("fit", "attack", "defend")
_ALL = (*_DATA, "report")

# Each command's rows, in table order, give its usage line and help.
OPTIONS = (
    Option("--csv", "path to a headered CSV dataset", _DATA, "dataset"),
    Option("--target", "target column name (required with --csv)", _DATA, "dataset"),
    Option("--categorical", "comma list of categorical columns", _DATA, "dataset",
           lambda s: tuple(p.strip() for p in s.split(","))),
    Option("--synthetic", "synthetic spec, e.g. d=5,n=300,noise=0.1[,seed=0][,w=..;..][,b=..]",
           _DATA, "dataset", _parse_synthetic),
    Option("--family", "model family (default ols)", _ONE, "model", _family_name, FAMILIES, "ols"),
    Option("--families", f"comma list from {FAMILIES} (default ols)", ("sweep",), "model",
           _parse_families, default=("ols",)),
    Option("--lambda", "regularization strength, or 'auto' for validation-grid selection", _DATA,
           "model", _parse_lambda, default=0.0),
    Option("--rho", "elastic-net l1 mix in [0, 1] (default 0.5)", _DATA, "model", float, default=0.5),
    Option("--method", "attack algorithm (default nopt)", ("attack",), choices=("opt", "nopt"),
           default="nopt"),
    Option("--alpha", "poisoning rate in (0, 0.2]", ("attack",), type=float, required=True),
    Option("--epsilon-conv", "stop when a sweep changes E (nopt) or the mean clean loss (opt) "
           "by less than this (default 1e-6)", ("attack",), type=float, default=1e-6),
    Option("--max-iters", "max outer iterations (default 100)", ("attack",), type=int, default=100),
    Option("--attack", "attack to sweep (default none)", ("sweep",), choices=records.ATTACKS,
           default="none"),
    Option("--defense", "defense to sweep (default none)", ("sweep",), choices=records.DEFENSES,
           default="none"),
    Option("--alphas", "alpha grid: comma list or start:stop:step (default 0.04:0.20:0.04)",
           ("sweep",), type=_parse_float_list, default=records.DEFAULT_ALPHA_GRID),
    Option("--gammas", "gamma grid for proda", ("sweep",), type=_parse_int_list, reads=("proda",),
           required=True),
    Option("--alpha-assumed", "fixed assumed alpha (default: the cell's real alpha)", ("sweep",),
           type=float, reads=("proda", "trim")),
    Option("--method", "defense algorithm (required)", ("defend",), choices=("proda", "trim"),
           required=True),
    Option("--gamma", "proda group size (>= d+1)", ("defend",), type=int, reads=("proda",),
           required=True),
    Option("--epsilon", "proda failure budget (default 1e-5)", ("defend", "sweep"), type=float,
           default=1e-5, reads=("proda",)),
    Option("--alpha-assumed", "defender's poisoning-rate estimate (default 0.2)", ("defend",),
           type=float, default=0.2),
    Option("--max-iters", "trim iteration cap (default 100)", ("defend", "sweep"), type=int,
           default=100, reads=("trim",)),
    Option("--repeats", "repeats per cell (default 5)", ("sweep",), type=int, default=5),
    Option("--jobs", "parallel cell workers (default 1)", ("sweep",), type=int, default=1),
    Option("--max-features", "keep only the first K feature columns", ("sweep",), type=int),
    Option("--train-subsample", "subsample the training fold to this size", ("sweep",), type=int),
    Option("--surrogate-fraction", "grey-box attacker view as a fraction of the training fold "
           "(read under --attack opt or nopt)", ("sweep",), type=float, reads=("opt", "nopt")),
    Option("--records", "records.jsonl produced by sweep (required)", ("report",), required=True),
    Option("--seed", f"master seed (default {DEFAULT_SEED})", _DATA, type=int, default=DEFAULT_SEED),
    Option("--out", "output directory (default $POISONBENCH_OUT or ./poisonbench-out)", _ALL),
    Option("--verbose", "chatty progress on stderr", ("sweep",), default=False, action="store_true"),
)


class _ArgumentParser(argparse.ArgumentParser):
    """Reads each @FILE line as POSIX shell words, after a leading UTF-8 BOM;
    a blank line, or one whose first non-blank character is '#', holds none."""

    def convert_arg_line_to_args(self, arg_line):
        line = arg_line.removeprefix("\ufeff")
        try:
            return [] if line.lstrip().startswith("#") else shlex.split(line)
        except ValueError as exc:  # an unclosed quote
            self.error(f"cannot split argument file line {line!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    common = dict(argument_default=argparse.SUPPRESS, allow_abbrev=False, fromfile_prefix_chars="@")
    parser = _ArgumentParser(
        prog="poisonbench",
        description="Poisoning attacks (Nopt, Opt) and defenses (Proda, TRIM) for linear regression.",
        **common,
    )
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers share the class
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, **common)
        groups = {None: p}
        for o in (row for row in OPTIONS if command in row.commands):
            if o.group not in groups:
                groups[o.group] = p.add_argument_group(o.group)
            kind = dict(action=o.action) if o.action else dict(type=o.type, choices=o.choices)
            groups[o.group].add_argument(o.flag, dest=o.dest, help=o.help, **kind)
    return parser


def parse_args(argv) -> CliConfig:
    """Resolve the full configuration: flags > defaults."""
    given = vars(build_parser().parse_args(argv))
    command = given.pop("command")
    options = {o.dest: o.default for o in OPTIONS if command in o.commands and o.default is not None}
    options.update(given)
    options.setdefault("out", os.environ.get("POISONBENCH_OUT", DEFAULT_OUT))
    cfg = CliConfig(command=command, options=options)
    _validate(cfg, given=given.keys())
    return cfg


def _validate(cfg: CliConfig, given: set):
    """Check the options; `given` names those a flag set."""
    opts = cfg.options
    if cfg.command in _DATA:
        if ("csv" in opts) == ("synthetic" in opts):
            raise UsageError("exactly one of --csv and --synthetic is required")
        if "csv" in opts and "target" not in opts:
            raise UsageError("--target is required with --csv")
    rows = [o for o in OPTIONS if cfg.command in o.commands]
    for o in rows:  # in table order, so a selector (--method, --defense, --attack) comes first
        pick = next(p for p in rows if set(o.reads) <= set(p.choices or ()))
        when = f"{pick.flag} {opts[pick.dest]}" if o.reads else cfg.command
        reads = not o.reads or opts[pick.dest] in o.reads
        if o.required and reads and o.dest not in opts:
            choices = f" ({' or '.join(o.choices)})" if o.choices else ""
            raise UsageError(f"{o.flag} is required for {when}{choices}")
        if not reads and o.dest in given:
            raise UsageError(f"{when} never reads {o.flag}")
    lam, built = opts.get("lambda"), cfg.built
    try:  # the library checks every range: its objects, or its rules where none is built yet
        if cfg.command in _DATA:
            from .data import _integer
            from .defend import subset_size
            from .regress import _check_settings
        if cfg.command in _ONE:
            _check_settings(opts["family"], 0.0 if lam == "auto" else lam, opts["rho"])
            _integer("seed", opts["seed"], 0)
        if cfg.command == "defend" and opts["method"] == "trim":  # TRIM builds no config object
            subset_size(0, opts["alpha_assumed"])  # its alpha_assumed rule
            _integer("max_iters", opts["max_iters"], 1)
        if cfg.command == "sweep":  # run_sweep's rule, which it applies only when iterated
            _integer("jobs", opts["jobs"], 1)
        if cfg.command in _DATA:
            built["source"] = _dataset_source(opts)
        if cfg.command == "attack":
            from .attack import AttackConfig

            built["config"] = AttackConfig(
                opts["alpha"], opts["epsilon_conv"], opts["max_iters"], opts["seed"]
            )
        if cfg.command == "defend" and opts["method"] == "proda":
            from .defend import ProdaConfig

            built["config"] = ProdaConfig(
                opts["gamma"], opts["epsilon"], opts["alpha_assumed"], opts["seed"]
            )
        if cfg.command == "sweep":
            built["spec"] = _build_experiment_spec(opts, built["source"])
    except ValueError as exc:
        raise UsageError(f"invalid {cfg.command} settings: {exc}") from exc


def _dataset_source(opts) -> dict:
    """The CSV fields or synthetic spec, as ExperimentSpec fields."""
    if "csv" in opts:
        return dict(csv_path=opts["csv"], target_column=opts["target"],
                    categorical=opts.get("categorical", ()))
    from .data import SyntheticSpec

    return dict(synthetic=SyntheticSpec(**opts["synthetic"]))


def _load_dataset(cfg: CliConfig):
    """fit, attack and defend's preamble: the dataset, its normalization,
    name and target column, and lambda: 0 for OLS, else --lambda, where
    'auto' selects on the validation fold of the --seed split."""
    from .data import load_source, source_name, split_three
    from .regress import select_lambda

    opts, source = cfg.options, cfg.built["source"]
    ds, norm = load_source(**source)
    lam = 0.0 if opts["family"] == "ols" else opts["lambda"]
    if lam == "auto":
        split = split_three(ds, opts["seed"])
        lam = select_lambda(split.train, split.validation, opts["family"], rho=opts["rho"])
    return ds, norm, source_name(source.get("csv_path")), source.get("target_column", "y"), lam


def _out_dir(cfg: CliConfig) -> Path:
    out = Path(cfg.options["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_fit(cfg: CliConfig) -> int:
    from .regress import fit, mse

    ds, norm, name, _, lam = _load_dataset(cfg)
    family = cfg.options["family"]
    model = fit(ds, family, lam, rho=cfg.options["rho"]).converged_model("fit")
    out = _out_dir(cfg)
    for suffix, doc in (("model", model.to_dict()), ("normalization", norm.to_dict())):
        (out / f"{name}_{suffix}.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(f"family={family} lambda={model.lam} train_mse={mse(ds, model)}")
    if ds.d == 1:
        line = {"name": family, "weight": float(model.weights[0]), "bias": model.bias}
        svgplot.write_scatter_fit(
            list(zip(ds.features[:, 0], ds.responses)), [line], "x", "y", out / f"{name}_fit.svg"
        )
    return 0


def _cmd_attack(cfg: CliConfig) -> int:
    from .attack import nopt_attack, opt_attack, poison_to_csv

    opts = cfg.options
    ds, _, name, target, lam = _load_dataset(cfg)
    attack_fn = nopt_attack if opts["method"] == "nopt" else opt_attack
    state = attack_fn(ds, cfg.built["config"], opts["family"], lam, rho=opts["rho"])
    out = _out_dir(cfg)
    (out / f"{name}_poison.csv").write_text(poison_to_csv(state, target), encoding="utf-8")
    (out / f"{name}_attack_trace.jsonl").write_text(state.to_jsonl(), encoding="utf-8")
    summary = {
        "method": opts["method"],
        "objective": state.objective_name,
        "final_objective": state.e_trace[-1],
        "clean_ref_loss": state.clean_ref_loss,
        "iterations": state.iterations,
        "converged": state.converged,
        "n_poison": state.poison.n,
        "model": state.model.to_dict(),
        **{key: opts[key] for key in ("alpha", "epsilon_conv", "max_iters", "seed")},
    }
    (out / f"{name}_attack.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    print(
        f"method={opts['method']} n_poison={state.poison.n} "
        f"final_objective={state.e_trace[-1]} converged={state.converged}"
    )
    return 0


def _cmd_defend(cfg: CliConfig) -> int:
    from .defend import proda_defend, subset_size, trim_defend

    opts = cfg.options
    ds, _, name, _, lam = _load_dataset(cfg)
    family = opts["family"]
    alpha_assumed = opts["alpha_assumed"]
    start = time.perf_counter()
    if opts["method"] == "proda":
        result = proda_defend(ds, cfg.built["config"], family, lam, rho=opts["rho"])
    else:
        result = trim_defend(
            ds, alpha_assumed, family, lam, rho=opts["rho"],
            max_iters=opts["max_iters"], seed=opts["seed"],
        )
    elapsed = time.perf_counter() - start
    out = _out_dir(cfg)
    doc = result.to_dict() | {"wall_time_s": elapsed}
    doc["method"] = opts["method"]
    doc["alpha_assumed"] = alpha_assumed
    n = subset_size(ds.n, alpha_assumed)
    doc["trim_worst_case_iterations"] = records.trim_worst_case_text(ds.n, n)
    doc["trim_worst_case_note"] = (
        f"iterative trimming may traverse C({ds.n}, {n}) subsets in the worst case"
    )
    reads = [o.dest for o in OPTIONS if "defend" in o.commands and opts["method"] in o.reads]
    doc |= {key: opts[key] for key in (*reads, "seed")}
    (out / f"{name}_defense.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    beta = f"beta_used={doc['beta_used']} " if "beta_used" in doc else ""
    print(f"method={opts['method']} subset_mse={result.subset_mse} "
          f"{beta}iterations={result.iterations}")
    return 0


def _build_experiment_spec(opts, source: dict):
    from .harness import ExperimentSpec

    return ExperimentSpec(
        **source,
        families=opts["families"],
        lambda_policy="select" if opts["lambda"] == "auto" else opts["lambda"],
        rho=opts["rho"],
        attack=opts["attack"],
        defense=opts["defense"],
        alpha_grid=opts["alphas"],
        gamma_grid=opts.get("gammas", ()),
        alpha_assumed=opts.get("alpha_assumed"),
        repeats=opts["repeats"],
        master_seed=opts["seed"],
        max_features=opts.get("max_features"),
        train_subsample=opts.get("train_subsample"),
        surrogate_fraction=opts.get("surrogate_fraction"),
        defense_epsilon=opts["epsilon"],
        defense_max_iters=opts["max_iters"],
    )


def _cmd_sweep(cfg: CliConfig) -> int:
    from . import harness

    spec = cfg.built["spec"]
    out = _out_dir(cfg)
    path = out / "records.jsonl"
    cells = harness.run_sweep(spec, jobs=cfg.options["jobs"])
    if cfg.options["verbose"]:
        cells = _echo(cells)
    records.write_records(path, spec, cells)
    count, errors = records.write_report(out, records.read_records(path))
    print(f"wrote {count} records to {path}")
    if len(errors) == count:
        print(f"poisonbench: error: all {count} cells failed; first: {errors[0]}", file=sys.stderr)
        return 1
    return 0


def _echo(cells):
    """Pass cell records through, printing a progress line for each on stderr."""
    for i, record in enumerate(cells, 1):
        print(
            f"[{i}] {record['family']} alpha={record['alpha']} "
            f"gamma={record['gamma']} repeat={record['repeat']} "
            f"{'error=' + record['error'] if 'error' in record else 'ok'}",
            file=sys.stderr,
        )
        yield record


def _cmd_report(cfg: CliConfig) -> int:
    loaded = records.read_records(cfg.options["records"])
    out = Path(cfg.options["out"])
    cells, _ = records.write_report(out, loaded)
    print(f"wrote summary for {cells} records to {out / 'summary.csv'}")
    return 0


_COMMANDS = {  # name: (handler, help)
    "fit": (_cmd_fit, "fit one model and write it as JSON"),
    "attack": (_cmd_attack, "poison a dataset with nopt or opt"),
    "defend": (_cmd_defend, "run the proda or trim defense"),
    "sweep": (_cmd_sweep, "run a seeded experiment grid"),
    "report": (_cmd_report, "aggregate a records file into CSV + SVGs"),
}


def main(argv=None) -> int:
    """Run one command: 2 on a usage error, 1 on any other failure.

    BLAS runs on one thread unless the caller's environment says otherwise:
    the products here are small, and OpenBLAS's helper thread busy-waits,
    taking the core of a `sweep --jobs` worker. The setting reaches numpy
    only when no command has imported it yet, as in a `poisonbench`
    process, and pool workers inherit it."""
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    try:
        cfg = parse_args(argv if argv is not None else sys.argv[1:])
        handler, _ = _COMMANDS[cfg.command]
        return handler(cfg)
    except UsageError as exc:
        print(f"poisonbench: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - computational failure -> exit 1
        print(f"poisonbench: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

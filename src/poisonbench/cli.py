"""Command-line entry point: fit, attack, defend, sweep, and report.

Precedence for every option: command-line flag > config file (key=value
lines, optionally with a command prefix, e.g. attack.alpha=0.2) > built-in
default; --out alone falls back to $POISONBENCH_OUT before its default. All
randomness flows from --seed (default 1337, never wall clock).

Exit codes: 0 success, 1 computational failure, 2 usage error. Diagnostics
go to stderr; data goes to files under the output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import harness, svgplot
from .attack import AttackConfig, nopt_attack, opt_attack, poison_to_csv
from .data import SyntheticSpec, generate_synthetic, load_csv, split_three
from .defend import ProdaConfig, proda_defend, subset_size, trim_defend, trim_worst_case_text
from .regress import FAMILIES, fit, mse, select_lambda

DEFAULT_SEED = 1337
DEFAULT_OUT = "poisonbench-out"


class UsageError(ValueError):
    """Invalid configuration; reported on stderr with exit code 2."""


@dataclass
class CliConfig:
    command: str
    options: dict
    # the library objects `_validate` builds from the options, each once
    built: dict = field(default_factory=dict)


def _parse_float_list(text: str) -> tuple[float, ...]:
    """Comma list or start:stop:step range (stop inclusive, never passed)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        # a few ulps of the endpoints' size, so rounding cannot drop stop itself
        slack = 4 * sys.float_info.epsilon * max(abs(start), abs(stop))
        count = math.floor((stop - start + slack) / step) + 1
        return tuple(round(start + i * step, 12) for i in range(count))
    return tuple(float(p) for p in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    values = _parse_float_list(text)
    out = []
    for v in values:
        if v != int(v):
            raise argparse.ArgumentTypeError(f"expected integers, got {v}")
        out.append(int(v))
    return tuple(out)


def _parse_families(text: str) -> tuple[str, ...]:
    families = tuple(f.strip().lower() for f in text.split(","))
    for f in families:
        if f not in FAMILIES:
            raise argparse.ArgumentTypeError(f"unknown family {f!r} (choose from {FAMILIES})")
    return families


def _parse_synthetic(text: str) -> dict:
    """d=5,n=300,noise=0.1[,seed=0][,w=0.3;0.2;...][,b=0.25]"""
    fields = {}
    for item in text.split(","):
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected key=value in --synthetic, got {item!r}")
        key, value = item.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        spec = {
            "d": int(fields.pop("d")),
            "n": int(fields.pop("n")),
            "noise": float(fields.pop("noise", "0.1")),
            "seed": int(fields.pop("seed", "0")),
        }
        if "w" in fields:
            spec["w"] = tuple(float(v) for v in fields.pop("w").split(";"))
        if "b" in fields:
            spec["b"] = float(fields.pop("b"))
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad --synthetic value: {exc}") from exc
    if fields:
        raise argparse.ArgumentTypeError(f"unknown --synthetic keys: {sorted(fields)}")
    return spec


def build_synthetic_spec(fields: dict) -> SyntheticSpec:
    d, n = fields["d"], fields["n"]
    w = fields.get("w")
    if w is None:
        rng = np.random.default_rng(np.random.SeedSequence([fields["seed"], 0xC0FFEE]))
        w = tuple(rng.uniform(-1.0, 1.0, size=max(d, 0)))
    b = fields.get("b")
    if b is None:
        rng = np.random.default_rng(np.random.SeedSequence([fields["seed"], 0xB1A5]))
        b = float(rng.uniform(0.0, 1.0))
    return SyntheticSpec(
        d=d, n=n, true_weights=w, true_bias=b, noise_std=fields["noise"], seed=fields["seed"]
    )


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return value in ("1", "true", "yes")


@dataclass(frozen=True)
class Option:
    """One flag of `commands`, also read as a config-file key (the flag name
    or `dest`, with '-' or '_'). A config value goes through the same `type`
    and `choices` as the flag; a `_parse_bool` option is a store_true flag."""

    flag: str
    help: str
    commands: tuple[str, ...]
    group: str | None = None
    type: Callable = str
    choices: tuple | None = None
    default: object = None
    dest: str = ""

    def __post_init__(self):
        if not self.dest:
            object.__setattr__(self, "dest", self.flag[2:].replace("-", "_"))


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
    Option("--family", "model family (default ols)", _ONE, "model", choices=FAMILIES, default="ols"),
    Option("--families", f"comma list from {FAMILIES} (default ols)", ("sweep",), "model",
           _parse_families, default=("ols",)),
    Option("--lambda", "regularization strength, or 'auto' for validation-grid selection", _DATA,
           "model", default="0.0", dest="lam"),
    Option("--rho", "elastic-net l1 mix in [0, 1] (default 0.5)", _DATA, "model", float, default=0.5),
    Option("--method", "attack algorithm (default nopt)", ("attack",), choices=("opt", "nopt"),
           default="nopt"),
    Option("--alpha", "poisoning rate in (0, 0.2]", ("attack",), type=float),
    Option("--epsilon-conv", "stop when a sweep changes E (nopt) or the mean clean loss (opt) "
           "by less than this (default 1e-6)", ("attack",), type=float, default=1e-6),
    Option("--max-iters", "max outer iterations (default 100)", ("attack",), type=int, default=100),
    Option("--attack", "attack to sweep (default none)", ("sweep",), choices=harness.ATTACKS,
           default="none"),
    Option("--defense", "defense to sweep (default none)", ("sweep",), choices=harness.DEFENSES,
           default="none"),
    Option("--alphas", "alpha grid: comma list or start:stop:step (default 0.04:0.20:0.04)",
           ("sweep",), type=_parse_float_list, default=harness.DEFAULT_ALPHA_GRID),
    Option("--gammas", "gamma grid for proda", ("sweep",), type=_parse_int_list),
    Option("--alpha-assumed", "fixed assumed alpha (default: the cell's real alpha)", ("sweep",),
           type=float),
    Option("--method", "defense algorithm (required)", ("defend",), choices=("proda", "trim")),
    Option("--gamma", "proda group size (>= d+1)", ("defend",), type=int),
    Option("--epsilon", "proda failure budget (default 1e-5)", ("defend", "sweep"), type=float,
           default=1e-5),
    Option("--alpha-assumed", "defender's poisoning-rate estimate (default 0.2)", ("defend",),
           type=float),
    Option("--alpha", "alias for --alpha-assumed", ("defend",), type=float),
    Option("--max-iters", "trim iteration cap (default 100)", ("defend", "sweep"), type=int,
           default=100),
    Option("--repeats", "repeats per cell (default 5)", ("sweep",), type=int, default=5),
    Option("--jobs", "parallel cell workers (default 1)", ("sweep",), type=int, default=1),
    Option("--max-features", "keep only the first K feature columns", ("sweep",), type=int),
    Option("--train-subsample", "subsample the training fold to this size", ("sweep",), type=int),
    Option("--surrogate-fraction", "grey-box attacker view as a fraction of the training fold",
           ("sweep",), type=float),
    Option("--records", "records.jsonl produced by sweep (required)", ("report",)),
    Option("--seed", f"master seed (default {DEFAULT_SEED})", _DATA, type=int, default=DEFAULT_SEED),
    Option("--out", "output directory (default $POISONBENCH_OUT or ./poisonbench-out)", _ALL),
    Option("--verbose", "chatty progress on stderr", ("sweep",), type=_parse_bool, default=False),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisonbench",
        description="Poisoning attacks (Nopt, Opt) and defenses (Proda, TRIM) for linear regression.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="key=value config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        groups = {None: p}
        for o in (row for row in OPTIONS if command in row.commands):
            if o.group not in groups:
                groups[o.group] = p.add_argument_group(o.group)
            kind = dict(type=o.type, choices=o.choices)
            if o.type is _parse_bool:
                kind = dict(action="store_true")
            groups[o.group].add_argument(o.flag, dest=o.dest, help=o.help, **kind)
    return parser


def _load_config_file(path, command: str) -> dict:
    """Read key=value lines. `section.key` is checked against that command's
    option and applies only when it is running; a bare key applies to every
    command that has the option, and for the others must be a valid value
    of some command's option. A section key wins over a bare one."""
    bare, sectioned = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read --config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        section, _, name = key.rpartition(".")
        known = [o for o in OPTIONS if name.replace("-", "_") in (o.dest, o.flag[2:].replace("-", "_"))]
        option = next((o for o in known if (section or command) in o.commands), None)
        if not known or (section and option is None):
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        for candidate in [option] if option else known:
            try:
                converted = candidate.type(value)
                if candidate.choices is not None and converted not in candidate.choices:
                    raise ValueError(f"{value!r} not in {candidate.choices}")
                break
            except (ValueError, argparse.ArgumentTypeError) as exc:
                error = exc
        else:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {error}") from error
        if option is not None and section in ("", command):
            (sectioned if section else bare)[option.dest] = converted
    return {**bare, **sectioned}


def parse_args(argv) -> CliConfig:
    """Resolve the full configuration: flags > config file > defaults."""
    explicit = vars(build_parser().parse_args(argv))
    command = explicit.pop("command")
    options = {o.dest: o.default for o in OPTIONS if command in o.commands and o.default is not None}
    if "config" in explicit:
        options.update(_load_config_file(explicit.pop("config"), command))
    options.update(explicit)
    options.setdefault("out", os.environ.get("POISONBENCH_OUT", DEFAULT_OUT))
    cfg = CliConfig(command=command, options=options)
    _validate(cfg)
    return cfg


def _validate(cfg: CliConfig):
    opts = cfg.options
    if cfg.command in _DATA:
        has_csv = "csv" in opts
        has_syn = "synthetic" in opts
        if has_csv == has_syn:
            raise UsageError("exactly one of --csv and --synthetic is required")
        if has_csv and "target" not in opts:
            raise UsageError("--target is required with --csv")
    if cfg.command == "attack" and "alpha" not in opts:
        raise UsageError("--alpha is required for attack")
    if cfg.command == "defend":
        if "method" not in opts:
            raise UsageError("--method is required for defend (proda or trim)")
        if opts["method"] == "proda" and "gamma" not in opts:
            raise UsageError("--gamma is required for the proda defense")
        if opts["method"] == "trim" and opts["max_iters"] < 1:
            raise UsageError(f"--max-iters must be >= 1, got {opts['max_iters']}")
        opts.setdefault("alpha_assumed", opts.get("alpha", 0.2))
    if opts.get("alpha_assumed") is not None and not 0.0 <= opts["alpha_assumed"] < 1.0:
        raise UsageError(f"--alpha-assumed must be in [0, 1), got {opts['alpha_assumed']}")
    if cfg.command == "sweep" and opts["defense"] == "proda" and "gammas" not in opts:
        raise UsageError("--gammas is required when sweeping the proda defense")
    if cfg.command in _ONE and opts["seed"] < 0:
        raise UsageError(f"--seed must be >= 0, got {opts['seed']}")
    if cfg.command == "sweep" and opts["jobs"] < 1:
        raise UsageError("--jobs must be >= 1")
    if cfg.command == "report" and "records" not in opts:
        raise UsageError("--records is required for report")
    if "lam" in opts and opts["lam"] != "auto":
        try:
            lam = float(opts["lam"])
        except ValueError as exc:
            raise UsageError(f"--lambda must be a number or 'auto', got {opts['lam']!r}") from exc
        if not 0.0 <= lam < math.inf:
            raise UsageError(f"--lambda must be finite and >= 0, got {opts['lam']}")
    if "rho" in opts and not 0.0 <= opts["rho"] <= 1.0:
        raise UsageError(f"--rho must be in [0, 1], got {opts['rho']}")
    built = cfg.built
    try:  # the library objects check their own ranges; the commands use these
        if cfg.command in _DATA:
            built["source"] = _dataset_source(opts)
        if cfg.command == "attack":
            built["config"] = AttackConfig(
                opts["alpha"], opts["epsilon_conv"], opts["max_iters"], opts["seed"]
            )
        if cfg.command == "defend" and opts["method"] == "proda":
            built["config"] = ProdaConfig(
                opts["gamma"], opts["epsilon"], opts["alpha_assumed"], opts["seed"]
            )
        if cfg.command == "sweep":
            built["spec"] = _build_experiment_spec(opts, built["source"])
    except ValueError as exc:
        raise UsageError(f"invalid {cfg.command} settings: {exc}") from exc


def _dataset_source(opts) -> dict:
    """The dataset name and the CSV fields or synthetic spec, as ExperimentSpec fields."""
    if "csv" in opts:
        return dict(dataset_name=Path(opts["csv"]).stem, csv_path=opts["csv"],
                    target_column=opts["target"], categorical=opts.get("categorical", ()))
    return dict(dataset_name="synthetic", synthetic=build_synthetic_spec(opts["synthetic"]))


def _load_dataset(cfg: CliConfig):
    source = cfg.built["source"]
    if "csv_path" in source:
        ds, norm = load_csv(source["csv_path"], source["target_column"], source["categorical"])
    else:
        ds, norm = generate_synthetic(source["synthetic"])
    return ds, norm, source["dataset_name"], source.get("target_column", "y")


def _resolve_lambda_cli(cfg, ds):
    opts = cfg.options
    family = opts["family"]
    if opts["lam"] == "auto":
        if family == "ols":
            return 0.0
        split = split_three(ds, opts["seed"])
        return select_lambda(split.train, split.validation, family, rho=opts["rho"])
    return float(opts["lam"])


def _out_dir(cfg: CliConfig) -> Path:
    out = Path(cfg.options["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_fit(cfg: CliConfig) -> int:
    ds, norm, name, _ = _load_dataset(cfg)
    lam = _resolve_lambda_cli(cfg, ds)
    family = cfg.options["family"]
    report = fit(ds, family, lam, rho=cfg.options["rho"])
    out = _out_dir(cfg)
    (out / f"{name}_model.json").write_text(report.model.to_json(), encoding="utf-8")
    (out / f"{name}_normalization.json").write_text(norm.to_json(), encoding="utf-8")
    print(f"family={family} lambda={report.model.lam} train_mse={report.train_mse}")
    if ds.d == 1:
        line = {"name": family, "weight": float(report.model.weights[0]), "bias": report.model.bias}
        svgplot.write_scatter_fit(
            list(zip(ds.features[:, 0], ds.responses)), [line], "x", "y", out / f"{name}_fit.svg"
        )
    return 0


def _cmd_attack(cfg: CliConfig) -> int:
    opts = cfg.options
    ds, _, name, target = _load_dataset(cfg)
    lam = _resolve_lambda_cli(cfg, ds)
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
        "model": json.loads(state.model.to_json()),
    }
    (out / f"{name}_attack.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    print(
        f"method={opts['method']} n_poison={state.poison.n} "
        f"final_objective={state.e_trace[-1]} converged={state.converged}"
    )
    return 0


def _cmd_defend(cfg: CliConfig) -> int:
    opts = cfg.options
    ds, _, name, _ = _load_dataset(cfg)
    lam = _resolve_lambda_cli(cfg, ds)
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
    doc = json.loads(result.to_json()) | {"wall_time_s": elapsed}
    doc["method"] = opts["method"]
    doc["alpha_assumed"] = alpha_assumed
    n = subset_size(ds.n, alpha_assumed)
    doc["trim_worst_case_iterations"] = trim_worst_case_text(ds.n, n)
    doc["trim_worst_case_note"] = (
        f"iterative trimming may traverse C({ds.n}, {n}) subsets in the worst case"
    )
    if opts["method"] == "trim":
        doc["max_iters"] = opts["max_iters"]
    (out / f"{name}_defense.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(
        f"method={opts['method']} subset_mse={result.subset_mse} "
        f"beta_used={result.beta_used} iterations={result.iterations}"
    )
    return 0


def _build_experiment_spec(opts, source: dict) -> harness.ExperimentSpec:
    return harness.ExperimentSpec(
        **source,
        families=opts["families"],
        lambda_policy="select" if opts["lam"] == "auto" else float(opts["lam"]),
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


def _write_report(out: Path, records) -> int:
    """Write summary.csv, report.txt and the charts; return the cell count."""
    summary = harness.aggregate(records)
    (out / "summary.csv").write_text(harness.summary_csv(summary), encoding="utf-8")
    alphas = {r.get("alpha") for r in summary if r.get("alpha") is not None}
    gammas = {r.get("gamma") for r in summary if r.get("gamma") is not None}
    if len(alphas) > 1:
        harness.emit_plot(summary, "mse_vs_alpha", out / "mse_vs_alpha.svg")
    if len(gammas) > 1:
        harness.emit_plot(summary, "mse_vs_gamma", out / "mse_vs_gamma.svg")
    cells = [r for r in records if r.get("record_type") == "cell"]
    failed = sum("error" in r for r in cells)
    lines = ["poisonbench report", f"cells: {len(cells)} ({failed} failed)"]
    attacked = {}
    for r in cells:
        if "attack_converged" in r:
            attacked.setdefault((r["attack"], r["family"]), []).append(r)
    for (attack, family), group in sorted(attacked.items()):
        lines.append(
            f"attack {attack} {family}: {sum(r['attack_converged'] for r in group)}/{len(group)} "
            f"converged; median {np.median([r['attack_iterations'] for r in group]):g} sweeps, "
            f"{np.median([r['attack_refits'] for r in group]):g} refits"
        )
    trims = [r for r in cells if r.get("defense") == "trim"]
    if trims:
        iters = [r.get("defense_iterations", 0) for r in trims if "defense_iterations" in r]
        bound = next((r["trim_worst_case_iterations"] for r in trims
                      if "trim_worst_case_iterations" in r), None)
        lines.append(
            f"trim iterations: max {max(iters) if iters else 'n/a'} (bounded by max_iters); "
            f"worst case C(N, n) = {bound} subset traversals"
        )
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(cells)


def _cmd_sweep(cfg: CliConfig) -> int:
    spec = cfg.built["spec"]
    out = _out_dir(cfg)
    path = out / "records.jsonl"
    records = harness.run_sweep(spec, jobs=cfg.options["jobs"])
    if cfg.options["verbose"]:
        records = _echo(records)
    count = harness.write_records(path, spec, records)
    _write_report(out, harness.read_records(path))
    print(f"wrote {count} records to {path}")
    return 0


def _echo(records):
    """Pass records through, printing a progress line for each on stderr."""
    for i, record in enumerate(records, 1):
        print(
            f"[{i}] {record['family']} alpha={record['alpha']} "
            f"gamma={record['gamma']} repeat={record['repeat']} "
            f"{'error=' + record['error'] if 'error' in record else 'ok'}",
            file=sys.stderr,
        )
        yield record


def _cmd_report(cfg: CliConfig) -> int:
    records = harness.read_records(cfg.options["records"])
    out = _out_dir(cfg)
    cells = _write_report(out, records)
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
    """Run one command: 2 on a usage error, 1 on any other failure."""
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

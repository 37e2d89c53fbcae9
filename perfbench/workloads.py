"""The benchmark's four workloads, driven through poisonbench's public API.

Each workload turns the benchmark seed into a fixed list of units, split in
groups. A unit is one sweep cell or one defense call. `build` makes the
inputs (this is what set-up time measures), `run` executes one pass over
them, and `evaluate` turns the raw results into the numbers the checks
and metrics read. Calls go through module attributes (`harness.run_sweep`,
not a name imported from it), so the tracer's patches see every one.

Why each workload exists is written down in METRICS.md.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from poisonbench import data, defend, harness, regress

PROTOCOL_WEIGHTS = (0.4, -0.3, 0.2, 0.5, -0.2)

# Seconds one group takes at the seed commit on a 2-vCPU Xeon VM in a slow
# stretch, with some margin, so that a run of --seconds 20, set-up
# included, ends within about 30 s. A run sizes its fixed list as
# round(seconds * share / GROUP_SECONDS) groups, so the list depends only
# on --seconds, never on how fast the code runs.
GROUP_SECONDS = {"attack-closed": 7.2, "attack-cd": 4.5, "defend-proda": 20.0, "sweep-cli": 3.4}
WORKLOADS = tuple(GROUP_SECONDS)

# pool workers of sweep-cli (the machine it was sized on has nproc = 2)
CLI_JOBS = 2
CLI_CELLS = 25  # 5 alphas x 5 repeats x 1 gamma
LASSO_LAMBDA = 1e-2
# (gamma, calls) of the OLS Proda sweep, each call with its own seed. With
# the LASSO and two TRIM calls a group has 12 calls, and sorted by time
# the 4 gamma=24 calls hold ranks 5-8 and the 3 gamma=30 calls ranks
# 10-12. So the median lands inside the gamma=24 block and the 90th
# percentile inside the gamma=30 block. When a percentile fell between
# two kinds of call (0.04 s and 0.12 s), the host's noise moved it by
# 15-40%; inside a block of 0.12-s gamma=18 calls, by 12-15%.
PRODA_OLS_CALLS = ((12, 1), (18, 1), (24, 4), (30, 3))
PRODA_GAMMA_LASSO = 8
POISON_ALPHA = 0.2
EPSILON = 1e-5
WARM_UP_SECONDS = 1.0
# master seeds of the attack workloads' fixed cells derive from this
ATTACK_CORPUS_SEED = 0


def derive(seed: int, *keys: int) -> int:
    """Stable 31-bit seed for one part of the workload."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


def groups_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / GROUP_SECONDS[workload]))


def synthetic(n: int) -> data.SyntheticSpec:
    # the acceptance protocol's generator; attack-closed only triples n
    return data.SyntheticSpec(
        d=5, n=n, true_weights=PROTOCOL_WEIGHTS, true_bias=0.4, noise_std=0.1, seed=3
    )


# -- inputs ------------------------------------------------------------------


def build(workload: str, seed: int, groups: int, out_dir: Path) -> dict:
    """Everything a pass needs, generated from the seed.

    The attack workloads run a fixed list of cells, and the seed only sets
    their order. A cell's line search does a number of refits that depends
    on its split and poison start, so cells drawn from the seed changed a
    run's work by up to 18% from seed to seed, which is a bound's worth.
    The other workloads draw their inputs from the seed: their work does
    not depend on it (Proda's beta, the CLI's 25 cells) or barely does.
    """
    if workload in ("attack-closed", "attack-cd"):
        cells = [(g, spec) for g in range(groups) for spec in _cell_specs(workload, g)]
        order = np.random.default_rng(derive(seed)).permutation(len(cells))
        return {"cells": [cells[i] for i in order]}
    if workload == "defend-proda":
        clean, _ = data.generate_synthetic(synthetic(300))
        return {"clean": clean, "groups": [_defense_calls(clean, seed, g) for g in range(groups)]}
    if workload == "sweep-cli":
        return {"groups": [_cli_argvs(derive(seed, g), out_dir / f"g{g}") for g in range(groups)]}
    raise ValueError(f"unknown workload {workload!r}")


def _cell_specs(workload: str, g: int) -> list:
    """One single-cell ExperimentSpec per cell of group g, so the cells of
    a run can be interleaved; a cell's seed does not depend on the other
    families of its spec."""
    master = derive(ATTACK_CORPUS_SEED, g)
    common = dict(alpha_grid=(POISON_ALPHA,), repeats=1)
    if workload == "attack-closed":
        # N=900: 300 train rows, 75 poison points. Opt cells run undefended:
        # TRIM started from a random subset often ends worse than no defense
        # against Opt poison, so defended <= poisoned would not hold there.
        # Nopt cells (0.5-1.1 s) run for two master seeds and Opt cells
        # (0.3-0.5 s) for one, so the median falls among Nopt cells; with as
        # many of each it fell in the gap between the two kinds.
        spec = synthetic(900)
        cells = [("nopt", "trim", master), ("nopt", "trim", derive(ATTACK_CORPUS_SEED, g, 1)),
                 ("opt", "none", master)]
        return [
            harness.ExperimentSpec(synthetic=spec, families=(family,), attack=attack, defense=defense,
                                   master_seed=m, **common)
            for attack, defense, m in cells for family in ("ols", "ridge")
        ]
    return [
        harness.ExperimentSpec(synthetic=synthetic(300), families=(family,), attack="nopt",
                               defense="trim", master_seed=master, **common)
        for family in ("lasso", "enet")
    ]


def _defense_calls(clean, seed: int, g: int) -> dict:
    """A label-flip poisoned set (N=375, alpha=0.2) and the defense calls on it."""
    rng = np.random.default_rng(derive(seed, g))
    n_poison = data.poison_count(clean.n, POISON_ALPHA)
    idx = rng.choice(clean.n, size=n_poison, replace=False)
    poison = data.Dataset(
        clean.features[idx], 1.0 - np.round(clean.responses[idx]), clean.feature_names, "poisoned"
    )
    poisoned, _ = data.merge(clean, poison)
    calls = [("proda", "ols", gamma) for gamma, n in PRODA_OLS_CALLS for _ in range(n)]
    calls += [("proda", "lasso", PRODA_GAMMA_LASSO), ("trim", "ols", None), ("trim", "lasso", None)]
    calls = [c + (derive(seed, g, k),) for k, c in enumerate(calls)]
    # in seeded order, so calls of one kind sample different stretches of
    # the host's speed rather than one (see refclock.py)
    return {"poisoned": poisoned, "calls": [calls[i] for i in rng.permutation(len(calls))]}


def _cli_argvs(master: int, out: Path) -> list[list[str]]:
    sweep = [
        "sweep", "--synthetic", "d=5,n=300,noise=0.1", "--attack", "nopt", "--defense", "proda",
        "--gammas", "6", "--alphas", "0.04:0.20:0.04", "--repeats", "5", "--jobs", str(CLI_JOBS),
        "--seed", str(master), "--out", str(out),
    ]
    report = ["report", "--records", str(out / "records.jsonl"), "--out", str(out / "report")]
    return [sweep, report]


# -- one pass ------------------------------------------------------------------


def run(workload: str, inputs: dict, clock, on_unit, trace_dir: Path | None = None) -> list[dict]:
    """Execute every unit once, each step timed by `clock`; on_unit(i) is
    called before unit i starts.

    Returns one raw dict per unit with its group, name, reference seconds
    `s`, raw seconds `raw_s` and either a sweep record, a defense result or
    a CLI group's records.
    """
    units = []
    if workload in ("attack-closed", "attack-cd"):
        for g, spec in inputs["cells"]:
            on_unit(len(units))
            sweep = harness.run_sweep(spec)
            record, raw, factor = clock.time(next, sweep)
            sweep.close()
            units.append({"group": g, "name": f"{record['family']}/{record['attack']}",
                          "s": raw * factor, "raw_s": raw, "record": record})
        return units
    for g, group in enumerate(inputs["groups"]):
        if workload == "defend-proda":
            for call in group["calls"]:
                on_unit(len(units))
                (result, error), raw, factor = clock.time(_defend, group["poisoned"], *call)
                kind, family, gamma, _ = call
                units.append({"group": g, "name": f"{kind}/{family}/{gamma}", "family": family,
                              "lam": _lam(family), "s": raw * factor, "raw_s": raw,
                              "result": result, "error": error})
        else:
            units.extend(_run_cli_group(g, group, clock, trace_dir))
    return units


def _lam(family: str) -> float:
    return LASSO_LAMBDA if family == "lasso" else 0.0


def _defend(poisoned, kind: str, family: str, gamma, dseed: int):
    """(result, error) of one defense call; a failed call is counted, not fatal."""
    try:
        if kind == "proda":
            cfg = defend.ProdaConfig(gamma=gamma, epsilon=EPSILON, alpha_assumed=POISON_ALPHA, seed=dseed)
            return defend.proda_defend(poisoned, cfg, family, _lam(family)), None
        return defend.trim_defend(poisoned, POISON_ALPHA, family, _lam(family), seed=dseed), None
    except Exception as exc:  # noqa: BLE001
        return None, f"{type(exc).__name__}: {exc}"


def _run_cli_group(g: int, argvs: list, clock, trace_dir: Path | None) -> list[dict]:
    """The user's path: `sweep` then `report`, each a child process."""
    child = Path(__file__).with_name("child.py")
    factors = []
    for argv in argvs:
        cmd = [sys.executable, str(child), "cli", str(trace_dir / f"g{g}") if trace_dir else "-", *argv]
        (code, _, err), _, factor = clock.time(run_child, cmd, 150, in_process=False)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}: {err.strip()}")
        factors.append(factor)
    out = Path(argvs[0][argvs[0].index("--out") + 1])
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines() if line]
    cells = [r for r in records if r.get("record_type") == "cell"]
    summary = (out / "summary.csv").read_bytes()
    units = []
    for r in cells:
        # a cell runs in a pool worker; its time is the attack and defense
        # wall clock the worker recorded, scaled by the sweep step's factor
        raw = r.get("wall_time_attack_s", 0.0) + r.get("wall_time_defense_s", 0.0)
        units.append({"group": g, "name": f"cell/{r['alpha']}/{r['repeat']}", "s": raw * factors[0],
                      "raw_s": raw, "record": r})
    units[0]["summary"] = summary
    units[0]["report_summary"] = (out / "report" / "summary.csv").read_bytes()
    units[0]["n_records"] = len(cells)
    return units


def run_child(cmd: list[str], timeout: float) -> tuple[int, str, str]:
    """Run a child in its own process group; on timeout kill the group, so
    no pool worker outlives it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


# -- evaluation ----------------------------------------------------------------


def evaluate(workload: str, inputs: dict, units: list[dict]) -> list[dict]:
    """Per unit: MSEs, error and deterministic work counts."""
    if workload != "defend-proda":
        return [_from_record(u) for u in units]
    clean = inputs["clean"]
    ref = {}
    out = []
    for u in units:
        row = {"group": u["group"], "name": u["name"], "s": u["s"], "raw_s": u["raw_s"], "error": u["error"], "counts": {}}
        if u["result"] is not None:
            poisoned = inputs["groups"][u["group"]]["poisoned"]
            key = (u["group"], u["family"])
            if key not in ref:
                clean_model = regress.fit(clean, u["family"], u["lam"]).model
                poisoned_model = regress.fit(poisoned, u["family"], u["lam"]).model
                ref[key] = {
                    "mse_clean": regress.mse(clean, clean_model),
                    "mse_poisoned": regress.mse(clean, poisoned_model),
                    "mse_poisoned_set": regress.mse(poisoned, poisoned_model),
                }
            row.update(ref[key])
            row["mse_defended"] = regress.mse(clean, u["result"].model)
            if u["name"].startswith("proda"):
                row["counts"] = {"proda_trials": u["result"].beta_used}
            else:
                row["counts"] = {"trim_iters": u["result"].iterations}
        out.append(row)
    return out


def _from_record(u: dict) -> dict:
    r = u["record"]
    row = {"group": u["group"], "name": u["name"], "s": u["s"], "raw_s": u["raw_s"], "error": r.get("error")}
    row["mse_clean"] = r.get("mse_clean")
    row["mse_poisoned"] = r.get("mse_poisoned")
    row["mse_poisoned_set"] = r.get("mse_poisoned_trainset")
    row["mse_defended"] = r.get("mse_defended")
    counts = row["counts"] = {}
    if "attack_refits" in r:
        counts["refits"] = r["attack_refits"]
        counts["outer_iters"] = r["attack_iterations"]
    if r.get("defense") == "proda" and "beta_used" in r:
        counts["proda_trials"] = r["beta_used"]
    elif r.get("defense") == "trim" and "defense_iterations" in r:
        counts["trim_iters"] = r["defense_iterations"]
    for key in ("summary", "report_summary", "n_records"):
        if key in u:
            row[key] = u[key]
    return row


def warm_up(workload: str) -> None:
    """Fill numpy's lazy state and let the CPU leave its idle clock before
    timing starts. In sizing, a first timed pass without it ran 10-40%
    slower than the passes after it."""
    if workload == "sweep-cli":
        return  # its work runs in fresh child processes, as a user's does
    ds, _ = data.generate_synthetic(synthetic(60))
    until = time.perf_counter() + WARM_UP_SECONDS
    while time.perf_counter() < until:
        for family in regress.FAMILIES:
            regress.fit(ds, family, LASSO_LAMBDA)


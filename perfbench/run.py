#!/usr/bin/env python3
"""Outside-in benchmark of poisonbench.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                 # every workload, untraced then traced

Run it from anywhere; it imports poisonbench from the `src/` directory next
to `perfbench/` and nowhere else. With --trace 0 it measures the end-to-end
metrics; with --trace 1 it runs the same units untraced and then traced and
reports per-layer metrics. End-to-end times are in reference seconds,
which cancel the host's changes of speed (refclock.py); raw seconds are
printed beside them. Every run checks the outputs. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Files go to `.perfbench-out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import refclock
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_SPAWNS = 7
# share of --seconds one traced run spends on each of its two passes
TRACE_SHARE = 0.4

# metric names, units and order, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MSE_KEYS = ("mse_clean", "mse_poisoned", "mse_poisoned_set", "mse_defended")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_program():
    """Put this checkout's src/ first on the path and import from it only."""
    if not (SRC / "poisonbench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no poisonbench sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import poisonbench

    if Path(poisonbench.__file__).resolve().parent != SRC / "poisonbench":
        sys.exit(f"perfbench: imported poisonbench from {poisonbench.__file__}, not {SRC}")
    import workloads

    return workloads


# -- environment ---------------------------------------------------------------


def digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception:  # noqa: BLE001 - older numpy: report what is known
        return "unknown"


def environment(load_before) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "commit": git_commit(),
        "src_sha256": digest(SRC / "poisonbench"),
    }


# -- checks --------------------------------------------------------------------


def check_units(units: list[dict]) -> list[str]:
    """Every MSE finite and positive, the attack raises the MSE, the defense
    does not make the clean-row MSE worse than the poisoned fit."""
    problems = []
    for u in units:
        if u["error"]:
            continue
        where = f"unit {u['group']}/{u['name']}"
        values = {k: u[k] for k in MSE_KEYS if u.get(k) is not None}
        if "mse_clean" not in values or "mse_poisoned_set" not in values:
            problems.append(f"{where}: missing MSEs {sorted(values)}")
            continue
        bad = {k: v for k, v in values.items() if not (math.isfinite(v) and v > 0)}
        if bad:
            problems.append(f"{where}: non-finite or non-positive MSE {bad}")
            continue
        if not values["mse_poisoned_set"] > values["mse_clean"]:
            problems.append(f"{where}: attack did not raise the MSE")
        if "mse_defended" in values and not values["mse_defended"] <= values["mse_poisoned"]:
            problems.append(
                f"{where}: defended MSE {values['mse_defended']} > poisoned {values['mse_poisoned']}"
            )
    return problems


def check_cli_groups(units: list[dict], expected_cells: int) -> list[str]:
    problems = []
    for u in units:
        if "summary" not in u:
            continue
        if u["n_records"] != expected_cells:
            problems.append(f"group {u['group']}: {u['n_records']} cell records, expected {expected_cells}")
        if u["summary"] != u["report_summary"]:
            problems.append(f"group {u['group']}: report's summary.csv differs from the sweep's")
    return problems


def check_box(bounds) -> list[str]:
    lo, hi = bounds
    if math.isfinite(lo) and not (0.0 <= lo and hi <= 1.0):
        return [f"poison points leave the unit box: range [{lo}, {hi}]"]
    return []


# -- numbers -------------------------------------------------------------------


def ratios(units, num):
    return [u[num] / u["mse_clean"] for u in units if not u["error"] and u.get(num) is not None]


def group_counts(units: list[dict]) -> dict:
    """Deterministic work counts summed per group."""
    out: dict = {}
    for u in units:
        counts = out.setdefault(f"g{u['group']}", {})
        for k, v in u["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return out


def total_counts(by_group: dict) -> dict:
    out: dict = {}
    for counts in by_group.values():
        for k, v in counts.items():
            out[k] = out.get(k, 0) + v
    return out


def summary_digest(units: list[dict]) -> str | None:
    parts = [u["summary"] for u in units if "summary" in u]
    return hashlib.sha256(b"".join(parts)).hexdigest() if parts else None


def compare_counts(workload: str, seed: int, entries: dict) -> list[str]:
    """Work counts must repeat exactly for the same program, benchmark,
    workload and seed, across runs and across traced and untraced passes."""
    path = OUT / "counts" / digest(SRC / "poisonbench", HERE)[:16] / f"{workload}-seed{seed}.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    problems = []
    for key, counts in entries.items():
        old = known.get(key, {})
        for k in counts.keys() & old.keys():
            if counts[k] != old[k]:
                problems.append(f"work count {key}.{k} = {counts[k]}, an earlier run counted {old[k]}")
        known[key] = {**old, **counts}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def setup_seconds(wl, workload: str, seed: int, groups: int, run_dir: Path) -> tuple[float, float]:
    """Median raw and reference seconds of SETUP_SPAWNS fresh set-up
    processes. Each child probes its speed when its set-up is done; one
    probe is too short to scale one set-up by, so the median set-up is
    scaled by the median probe."""
    child = HERE / "child.py"
    cmd = [sys.executable, str(child), "setup", workload, str(seed), str(groups), str(run_dir / "setup")]
    raw, probes = [], []
    for _ in range(SETUP_SPAWNS):
        code, out, err = wl.run_child(cmd, timeout=60)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: {err.strip()}")
        seconds, probe = map(float, out.split())
        raw.append(seconds)
        probes.append(probe)
    median = statistics.median(raw)
    return median, median * refclock.REF_PROBE_S / statistics.median(probes)


def peak_rss_mb(workload: str) -> float:
    # sweep-cli's work happens in the CLI child and its pool workers; the
    # children's figure is the largest of those processes
    who = resource.RUSAGE_CHILDREN if workload == "sweep-cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(spans, wall_untraced: float, wall_traced: float, jobs: int) -> dict:
    ATTACK_ENTRIES, GRADIENTS = tracer.ATTACK_ENTRIES, tracer.GRADIENTS
    c, calls, total, self_s = spans.counters, spans.calls, spans.total, spans.self_s
    fits = calls.get("regress.fit", 0)
    trials = c.get("attack.refits", 0) - 2 * c.get("attack.calls", 0)
    grads = spans.sum_of(calls, GRADIENTS)
    proda_trials = c.get("proda.trials", 0)
    sweep_wait = total.get("harness.run_sweep", 0.0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "regress.fit.calls": fits,
        "regress.fit.self_s": self_s.get("regress.fit", 0.0),
        "regress.fit.us_per_call": per(total.get("regress.fit", 0.0), fits, 1e6),
        "regress.cd_sweeps": c.get("fit.cd_sweeps", 0),
        "regress.cd_sweeps_per_fit": per(c.get("fit.cd_sweeps", 0), c.get("fit.cd_fits", 0)),
        "regress.fit.nonconverged": c.get("fit.nonconverged", 0),
        "regress.fit.fallback": c.get("fit.fallback", 0),
        "regress.select_lambda.s": total.get("regress.select_lambda", 0.0),
        "attack.self_s": spans.sum_of(self_s, ATTACK_ENTRIES),
        "attack.objective_gradient.calls": grads,
        "attack.objective_gradient.self_s": spans.sum_of(self_s, GRADIENTS),
        "attack.theta_jacobian.calls": calls.get("attack.theta_jacobian", 0),
        "attack.theta_jacobian.self_s": self_s.get("attack.theta_jacobian", 0.0),
        "attack.refits": c.get("attack.refits", 0),
        "attack.outer_iters": c.get("attack.outer_iters", 0),
        "attack.trials_per_gradient": per(trials, grads),
        "attack.us_per_trial": per(
            spans.sum_of(total, ATTACK_ENTRIES) - spans.sum_of(total, GRADIENTS), trials, 1e6
        ),
        "defend.proda.trials": proda_trials,
        "defend.proda.us_per_trial": per(total.get("defend.proda_defend", 0.0), proda_trials, 1e6),
        "defend.self_s": spans.layer_self("defend"),
        "defend.trim.iters": c.get("trim.iters", 0),
        "defend.trim.s": total.get("defend.trim_defend", 0.0),
        "data.self_s": spans.layer_self("data"),
        "harness.run_cell.s": total.get("harness.run_cell", 0.0),
        # with a pool, run_sweep's own time in the CLI is waiting on workers
        "harness.self_s": spans.layer_self("harness") - (jobs > 1) * self_s.get("harness.run_sweep", 0.0),
        # cell time over the time the sweep's consumer waited on run_sweep
        "harness.parallel_eff": per(total.get("harness.run_cell", 0.0), jobs * sweep_wait),
        "harness.aggregate.s": total.get("harness.aggregate", 0.0),
        "harness.write_records.s": total.get("harness.write_records", 0.0),
        "cli.main.s": total.get("cli.main", 0.0),
        "svgplot.write_line_chart.s": total.get("svgplot.write_line_chart", 0.0),
        "trace_overhead": wall_traced / wall_untraced - 1.0,
    }


# -- one run -------------------------------------------------------------------


def untraced_pass(wl, workload: str, inputs: dict):
    clock = refclock.Clock()
    raw = wl.run(workload, inputs, clock, on_unit=lambda i: None)
    return raw, clock


def traced_pass(wl, workload: str, inputs: dict, span_dir: Path):
    span_dir.mkdir(parents=True, exist_ok=True)
    t = tracer.Tracer(span_dir)
    t.install()
    t.errors.extend(f"not patched: {name}" for name in t.missed())

    def on_unit(i):
        t.unit_id = i

    clock = refclock.Clock(sample=False)
    try:
        raw = wl.run(workload, inputs, clock, on_unit=on_unit, trace_dir=span_dir)
    finally:
        t.uninstall()
    t.flush()
    spans = tracer.SpanSummary()
    for path in sorted(span_dir.rglob("spans-*.npz")):
        spans.add_file(path)
    return raw, clock, spans


def end_to_end_metrics(wl, workload, seed, groups, run_dir, units, clock, problems):
    rss = peak_rss_mb(workload)  # before the set-up children run
    setup_raw, setup_ref = setup_seconds(wl, workload, seed, groups, run_dir)
    times = [u["s"] for u in units]
    raw_times = [u["raw_s"] for u in units]
    attack = ratios(units, "mse_poisoned_set")
    defense = ratios(units, "mse_defended")
    if not attack or not defense:
        problems.append("no unit produced an attack or a defense ratio")
    failed = sum(1 for u in units if u["error"])
    metrics = {
        "wall_s": clock.ref_s,
        "unit_s_p50": statistics.median(times),
        "unit_s_p90": float(np.percentile(times, 90)),
        "setup_s": setup_ref,
        "peak_rss_mb": rss,
        "ok_frac": (len(units) - failed) / len(units),
        "attack_mse_ratio": statistics.median(attack) if attack else 0.0,
        "defense_mse_ratio": statistics.median(defense) if defense else 0.0,
    }
    raw = {
        "wall_s": clock.raw_s,
        "unit_s_p50": statistics.median(raw_times),
        "unit_s_p90": float(np.percentile(raw_times, 90)),
        "setup_s": setup_raw,
    }
    notes = {"unit_s_p50": f"n={len(times)}", "unit_s_p90": f"n={len(times)}",
             "setup_s": f"median of {SETUP_SPAWNS} fresh processes",
             "attack_mse_ratio": f"n={len(attack)}", "defense_mse_ratio": f"n={len(defense)}"}
    for k, v in raw.items():
        notes[k] = f"{notes[k]}, " if k in notes else ""
        notes[k] += f"raw {v:.6g} s"
    return metrics, notes, {"raw_metrics": raw}


def layer_run(wl, workload, seed, groups, run_dir, units, clock, problems):
    """Run the same units again, traced, and check that tracing changed
    nothing but the time. Inputs are rebuilt so the CLI writes elsewhere."""
    inputs = wl.build(workload, seed, groups, run_dir / "traced")
    raw, clock_t, spans = traced_pass(wl, workload, inputs, run_dir / "spans")
    # raw seconds: the traced pass does not probe inside steps, so its
    # reference seconds are not comparable with the untraced pass's
    wall, wall_t = clock.raw_s, clock_t.raw_s
    units_t = wl.evaluate(workload, inputs, raw)
    problems += check_units(units_t) + check_box(spans.poison_bounds)
    problems += check_cli_groups(units_t, wl.CLI_CELLS)
    problems += [f"self-test: {e}" for e in spans.errors]
    problems += transparency(units, units_t)
    problems += self_test(spans, total_counts(group_counts(units)))
    jobs = wl.CLI_JOBS if workload == "sweep-cli" else 1
    metrics = layer_metrics(spans, wall, wall_t, jobs)
    notes = {"trace_overhead": f"traced {wall_t:.3f} s / untraced {wall:.3f} s (raw), {spans.spans} spans"}
    extra = {"traced_wall_s": clock_t.ref_s, "traced_wall_raw_s": wall_t, "traced_work_counts": trace_counts(spans),
             "traced_failed": sum(1 for u in units_t if u["error"]), "spans": spans.table()}
    return metrics, notes, extra


def run_once(wl, workload: str, seed: int, seconds: float, trace: bool, load_before) -> int:
    run_dir = OUT / workload / f"seed{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    groups = wl.groups_for(workload, seconds * (TRACE_SHARE if trace else 1.0))
    inputs = wl.build(workload, seed, groups, run_dir / "untraced")
    wl.warm_up(workload)
    raw, clock = untraced_pass(wl, workload, inputs)
    units = wl.evaluate(workload, inputs, raw)
    problems = check_units(units) + check_cli_groups(units, wl.CLI_CELLS)
    measure = layer_run if trace else end_to_end_metrics
    metrics, notes, extra = measure(wl, workload, seed, groups, run_dir, units, clock, problems)

    by_group = group_counts(units)
    entries = dict(by_group)
    if trace:
        entries[f"trace-{groups}groups"] = extra["traced_work_counts"]
    problems += compare_counts(workload, seed, entries)
    failed = sum(1 for u in units if u["error"]) + extra.get("traced_failed", 0)
    env = environment(load_before)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "groups": groups,
        "units": len(units),
        "wall_s": clock.ref_s,
        "wall_raw_s": clock.raw_s,
        "probes_s": clock.probes,
        "work_counts": total_counts(by_group),
        "summary_sha256": summary_digest(units),
        **extra,
        "problems": problems,
        "environment": env,
        "metrics": metrics,
        "unit_times": [[u["group"], u["name"], u["s"], u["raw_s"]] for u in units],
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))

    table = PER_LAYER if trace else END_TO_END
    work = " ".join(f"{k}={v}" for k, v in sorted(result["work_counts"].items()))
    print(f"# {workload} seed={seed} trace={int(trace)} groups={groups} units={len(units)} "
          f"wall={clock.ref_s:.3f} s (raw {clock.raw_s:.3f} s)  work: {work}")
    if trace:
        work = " ".join(f"{k}={v}" for k, v in extra["traced_work_counts"].items()
                        if not k.startswith("calls."))
        print(f"# traced wall={extra['traced_wall_s']:.3f} s (raw {extra['traced_wall_raw_s']:.3f} s)  work: {work}")
    for name, unit in table.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    print("environment " + json.dumps(env, sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(units) * (2 if trace else 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in table.items()},
    }))
    return 0 if not problems else 1


def trace_counts(spans) -> dict:
    keep = ("fit.calls", "fit.cd_sweeps", "fit.nonconverged", "fit.fallback", "attack.refits",
            "attack.outer_iters", "proda.trials", "trim.iters")
    out = {k: spans.counters.get(k, 0) for k in keep}
    out.update({f"calls.{k}": v for k, v in spans.calls.items()})
    return out


def transparency(units: list[dict], units_t: list[dict]) -> list[str]:
    """The traced pass must do the same work and produce the same numbers,
    bit for bit, as the untraced pass."""
    problems = []
    if group_counts(units) != group_counts(units_t):
        problems.append(f"traced work counts {group_counts(units_t)} != untraced {group_counts(units)}")
    for num in ("mse_poisoned_set", "mse_defended"):
        if ratios(units, num) != ratios(units_t, num):
            problems.append(f"traced {num} ratios differ from the untraced pass")
    if summary_digest(units) != summary_digest(units_t):
        problems.append("traced summary.csv differs from the untraced one")
    return problems


def self_test(spans, counts: dict) -> list[str]:
    """The tracer saw every call: what the traced calls returned adds up to
    the work counts in the untraced pass's records and results. (Per call,
    the tracer itself checks fits inside attack spans against refit_count
    and Proda's fits against compute_beta.)"""
    c = spans.counters
    problems = []
    pairs = (("refits", "attack.refits"), ("proda_trials", "proda.trials"), ("trim_iters", "trim.iters"))
    for mine, theirs in pairs:
        if counts.get(mine, 0) != c.get(theirs, 0):
            problems.append(f"{mine}: results say {counts.get(mine, 0)}, traced calls say {c.get(theirs, 0)}")
    return problems


# -- every workload ------------------------------------------------------------


def run_all(wl, seed: int, seconds: float) -> int:
    bad = 0
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            code, out, err = wl.run_child(cmd, timeout=600)
            sys.stdout.write(out)
            sys.stderr.write(err)
            sys.stdout.flush()
            if code != 0:
                print(f"# {workload} trace={trace}: FAILED (exit {code})")
                bad += 1
    print(f"# {'all checks passed' if not bad else f'{bad} run(s) failed'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_before = list(os.getloadavg())
    wl = import_program()
    if args.workload == "all":
        return run_all(wl, args.seed, args.seconds)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    return run_once(wl, args.workload, args.seed, args.seconds, bool(args.trace), load_before)


if __name__ == "__main__":
    sys.exit(main())

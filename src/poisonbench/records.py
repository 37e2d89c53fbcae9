"""Sweep records and what is built from them: the JSON-lines records file,
the summary's rows and CSV, the charts and the text report.

This module and `svgplot` import only the standard library, so `report`
runs without numpy. It also holds the vocabularies the CLI's option table
reads at import: the model families, attacks, defenses, alpha grid and seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import TYPE_CHECKING

from . import svgplot

if TYPE_CHECKING:
    from .harness import ExperimentSpec

SCHEMA_VERSION = 1

FAMILIES = ("ols", "ridge", "lasso", "enet")
ATTACKS = ("none", "opt", "nopt")
DEFENSES = ("none", "trim", "proda")

DEFAULT_ALPHA_GRID = (0.04, 0.08, 0.12, 0.16, 0.20)
DEFAULT_SEED = 1337
# report.txt counts a defended cell as recovered when its MSE is within this
# factor of the clean model's
RECOVERED_RATIO = 1.1

SUMMARY_COLUMNS = (
    "dataset",
    "family",
    "attack",
    "defense",
    "alpha",
    "alpha_assumed",
    "gamma",
    "mse_clean",
    "mse_poisoned",
    "mse_defended",
    "time_attack_s",
    "time_defense_s",
)


def _pairwise_sum(values: list[float]) -> float:
    """numpy's float64 sum in its order: sequential below 8 values, eight
    running sums up to 128, and halves cut at a multiple of 8 above."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total, tail = 0.0, 0
    if n >= 8:
        tail = n - n % 8
        r = values[:8]
        for i in range(8, tail, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[tail:]:
        total += v
    return total


def _mean(values) -> float:
    """float(np.mean(values)) bit for bit: numpy's add reduction starts from
    0.0 (so -0.0 values mean 0.0) and adds the values pairwise."""
    values = [float(v) for v in values]
    return (0.0 + _pairwise_sum(values)) / len(values)


def _median(values) -> float:
    """np.median: the mean of the one or two middle values."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return _mean(ordered[mid - 1 + len(ordered) % 2 : mid + 1])


def header_record(spec: ExperimentSpec) -> dict:
    return {
        "record_type": "header",
        "schema_version": SCHEMA_VERSION,
        "dataset": spec.dataset_name,
        "attack": spec.attack,
        "defense": spec.defense,
        "families": list(spec.families),
        "alpha_grid": list(spec.alpha_grid),
        "gamma_grid": list(spec.gamma_grid),
        "repeats": spec.repeats,
        "master_seed": spec.master_seed,
    }


def write_records(path, spec: ExperimentSpec, records) -> int:
    """JSON-lines file: header record first, then one record per line,
    dropping None values. Each line is flushed as it is written, so when
    `records` is a running sweep, a sweep stopped at any point leaves the
    header and every record it finished. Returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header_record(spec)) + "\n")
        fh.flush()
        for record in records:
            fh.write(json.dumps({k: v for k, v in record.items() if v is not None}) + "\n")
            fh.flush()
            count += 1
    return count


def read_records(path) -> list[dict]:
    """The records of a JSON-lines file; a line that is not JSON (a file cut
    off mid-line) raises a ValueError naming `path:line`."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


# a summary row: the cell coordinates, then the means over its repeats
_CELL_KEYS, _AVERAGED = SUMMARY_COLUMNS[:7], SUMMARY_COLUMNS[7:]


def aggregate(records) -> list[dict]:
    """The summary's rows: cell records grouped by coordinates (everything
    but the repeat), each row the seven cell keys plus the mean of every
    other summary column over the group's error-free records that hold it;
    deterministic row order."""
    cells = {}
    for rec in records:
        if rec.get("record_type") == "cell":
            cells.setdefault(tuple(rec.get(k) for k in _CELL_KEYS), []).append(rec)
    if not cells:
        raise ValueError("no cell records to aggregate")
    rows = []
    for key in sorted(cells, key=lambda k: tuple((v is None, v) for v in k)):
        ok = [r for r in cells[key] if "error" not in r]
        row = dict(zip(_CELL_KEYS, key))
        for column in _AVERAGED:
            values = [r[column] for r in ok if column in r]
            if values:
                row[column] = _mean(values)
        rows.append(row)
    return rows


def summary_csv(summary: list[dict]) -> str:
    """The `aggregate` rows as fixed-column CSV, a missing value empty;
    floats via repr for bit-exact round trips."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, SUMMARY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(summary)
    return buf.getvalue()


_SERIES_LABELS = {"opt": "Opt", "nopt": "Nopt", "trim": "TRIM", "proda": "Proda"}
_AXES = {"mse_vs_alpha": ("alpha", "poisoning rate alpha"),  # kind: (x key, x axis label)
         "mse_vs_gamma": ("gamma", "group size gamma")}


def _series_for(summary, x_key):
    """name -> [(x, mean y), ...] in x order, names in first-appearance order.
    Summaries from combined record files repeat an x (one clean baseline per
    sweep), so each point averages the rows that share its x."""
    multi = len({r["family"] for r in summary}) > 1
    table: dict = {}
    for row in summary:
        x = row.get(x_key)
        prefix = f"{row['family']} " if multi else ""
        for name, column in (("Unpoison", "mse_clean"), (row.get("attack"), "mse_poisoned"),
                             (row.get("defense"), "mse_defended")):
            y = row.get(column)
            if name not in (None, "none") and x is not None and y is not None:
                label = prefix + _SERIES_LABELS.get(name, name)
                table.setdefault(label, {}).setdefault(float(x), []).append(float(y))
    return {name: [(x, sum(ys) / len(ys)) for x, ys in sorted(by_x.items())]
            for name, by_x in table.items()}


def emit_plot(summary, kind: str, path):
    """Render an aggregated summary as an SVG chart plus companion CSV.

    kind: mse_vs_alpha | mse_vs_gamma. Returns (svg_path, csv_path).
    """
    if kind not in _AXES:
        raise ValueError(f"unknown plot kind {kind!r}")
    x_key, x_label = _AXES[kind]
    series = _series_for([r for r in summary if r.get(x_key) is not None], x_key)
    if not series:
        raise ValueError(f"summary has no plottable {x_key} series")
    return svgplot.write_line_chart(series, x_label, "MSE", path)


def trim_worst_case_text(n_rows: int, n_subset: int) -> str:
    """TRIM's worst-case subset traversals, C(N, n), as exact digits, or as
    10^X.XXX past about 4,000 digits, where str() hits Python's int-to-str
    digit limit and comb gets slow; `_bound_rank` orders the two forms."""
    lg = math.lgamma
    log10 = (lg(n_rows + 1) - lg(n_subset + 1) - lg(n_rows - n_subset + 1)) / math.log(10)
    if log10 < 4000:
        return str(math.comb(n_rows, n_subset))
    return f"10^{log10:.3f}"


def _bound_rank(text: str):
    """Sort key of a `trim_worst_case_text` bound: exact digit strings by
    length then value, and every 10^X.XXX above them, by X."""
    if text.startswith("10^"):
        return (1, float(text[3:]))
    return (0, len(text), text)


def write_report(out, records) -> int:
    """Write summary.csv, report.txt and the charts into the directory Path
    `out`; return the cell count. A chart is drawn when its axis has two or
    more x values and some row on it has an MSE to plot. report.txt has the
    cell count, a line per (attack, family) on how the attacks ended, TRIM's
    largest worst-case bound, and a recovery line per (attack, defense,
    family): the cells whose defended MSE is within RECOVERED_RATIO of clean,
    out of all its cells, and the median defended/poisoned MSE ratio."""
    summary = aggregate(records)
    (out / "summary.csv").write_text(summary_csv(summary), encoding="utf-8")
    for kind, (x_key, _) in _AXES.items():
        rows = [r for r in summary if r.get(x_key) is not None]
        if len({r[x_key] for r in rows}) > 1 and _series_for(rows, x_key):
            emit_plot(summary, kind, out / f"{kind}.svg")
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
            f"converged; median {_median([r['attack_iterations'] for r in group]):g} sweeps, "
            f"{_median([r['attack_refits'] for r in group]):g} refits"
        )
    trims = [r for r in cells if r.get("defense") == "trim"]
    if trims:
        iters = [r.get("defense_iterations", 0) for r in trims if "defense_iterations" in r]
        bounds = [str(r["trim_worst_case_iterations"]) for r in trims
                  if "trim_worst_case_iterations" in r]
        lines.append(
            f"trim iterations: max {max(iters) if iters else 'n/a'} (bounded by max_iters); "
            f"worst case C(N, n) = {max(bounds, key=_bound_rank, default='n/a')} subset traversals"
        )
    defended = {}
    for r in cells:
        if r.get("defense", "none") != "none":
            defended.setdefault((r["attack"], r["defense"], r["family"]), []).append(r)
    for (attack, defense, family), group in sorted(defended.items()):
        done = [r for r in group if "mse_defended" in r]
        within = sum(r["mse_defended"] <= RECOVERED_RATIO * r["mse_clean"] for r in done)
        ratios = [r["mse_defended"] / r["mse_poisoned"] for r in done if r.get("mse_poisoned")]
        median = f"{_median(ratios):.4g}" if ratios else "n/a"
        lines.append(
            f"recovery {attack} {defense} {family}: {within}/{len(group)} cells within "
            f"{RECOVERED_RATIO:g}x clean MSE; median defended/poisoned MSE {median}"
        )
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(cells)

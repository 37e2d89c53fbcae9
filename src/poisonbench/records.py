"""Sweep records and what is built from them: the JSON-lines records file,
the summary's rows and CSV, the charts and the text report.

This module and `svgplot` import only the standard library, so `report`
runs without numpy. It also holds the vocabularies the CLI's option table
reads at import: the model families, attacks, defenses, alpha grid and seed.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from typing import TYPE_CHECKING

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


def _mean(values) -> float:
    """The exactly rounded sum (`math.fsum`) over the count: one mean for a
    set of values, whatever their order."""
    return math.fsum(values) / len(values)


def _median(values) -> float:
    """The mean of the one or two middle values, as np.median."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return _mean(ordered[mid - 1 + len(ordered) % 2 : mid + 1])


def header_record(spec: ExperimentSpec) -> dict:
    """Type, schema version, dataset name, then every spec field by name in field order."""
    return {"record_type": "header", "schema_version": SCHEMA_VERSION,
            "dataset": spec.dataset_name, **dataclasses.asdict(spec)}


def _plain(value):
    """A numpy number or array as the JSON value it holds, a path as its string."""
    return value.tolist() if hasattr(value, "tolist") else os.fspath(value)


def write_records(path, spec: ExperimentSpec, records) -> None:
    """JSON-lines file: header record first, then one record per line,
    dropping None values. Each line is flushed as it is written, so when
    `records` is a running sweep, a sweep stopped at any point leaves the
    header and every record it finished."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header_record(spec), default=_plain) + "\n")
        fh.flush()
        for record in records:
            fh.write(json.dumps({k: v for k, v in record.items() if v is not None},
                                default=_plain) + "\n")
            fh.flush()


def read_records(path) -> list[dict]:
    """The records of a JSON-lines file; a line that is not JSON (a file cut
    off mid-line), not a JSON object, or a cell record without a `family` or
    an `attack` raises a ValueError naming `path:line`."""
    records = []
    with open(path, encoding="utf-8-sig") as fh:  # drops a leading BOM
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                if not isinstance(records[-1], dict):
                    raise ValueError(f"{path}:{lineno}: a record is a JSON object, got {line}")
                for key in ("family", "attack"):
                    if records[-1].get("record_type") == "cell" and key not in records[-1]:
                        raise ValueError(f"{path}:{lineno}: a cell record needs {key!r}")
    return records


# a summary row: the cell coordinates, then the means over its repeats
_CELL_KEYS, _AVERAGED = SUMMARY_COLUMNS[:7], SUMMARY_COLUMNS[7:]


def aggregate(records) -> list[dict]:
    """The summary's rows: cell records grouped by coordinates (everything
    but the repeat), each row the seven cell keys plus the mean of every
    other summary column over the group's error-free records that hold it;
    rows and values do not depend on the records' order."""
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
    return {name: [(x, _mean(ys)) for x, ys in sorted(by_x.items())]
            for name, by_x in table.items()}


def emit_plot(summary, kind: str, path):
    """Render an aggregated summary as an SVG chart plus companion CSV.

    kind: mse_vs_alpha | mse_vs_gamma. Returns (svg_path, csv_path).
    """
    from . import svgplot  # loaded only where a chart is drawn

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


def write_report(out, records) -> tuple[int, list[str]]:
    """Write summary.csv, report.txt and the charts into the directory Path
    `out`, created once the records hold a cell to aggregate; return the cell
    count and the failed cells' `error` strings in record order. A chart is
    drawn when its axis has two or more x values and some row on it has an
    MSE to plot. report.txt prints from one pass's groups of the cells: their
    count, a line per (attack, defense, family, exception type) of failures
    with their count and first message, a line per (attack, family) on how
    the attacks ended, TRIM's largest worst-case bound, and a recovery line
    per (attack, defense, family): its cells with defended MSE within
    RECOVERED_RATIO of clean, of all, the median defended/poisoned MSE ratio,
    and how many of those that record `defense_converged` converged."""
    summary = aggregate(records)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.csv").write_text(summary_csv(summary), encoding="utf-8")
    for kind, (x_key, _) in _AXES.items():
        rows = [r for r in summary if r.get(x_key) is not None]
        if len({r[x_key] for r in rows}) > 1 and _series_for(rows, x_key):
            emit_plot(summary, kind, out / f"{kind}.svg")
    cells, errors, failures, attacked, defended = 0, [], {}, {}, {}
    for r in records:
        if r.get("record_type") != "cell":
            continue
        cells += 1
        if "error" in r:
            errors.append(r["error"])
            kind, _, message = r["error"].partition(": ")
            key = (r["attack"], r.get("defense", "none"), r["family"], kind)
            failures.setdefault(key, []).append(message)
        if "attack_converged" in r:
            attacked.setdefault((r["attack"], r["family"]), []).append(r)
        if r.get("defense", "none") != "none":
            defended.setdefault((r["attack"], r["defense"], r["family"]), []).append(r)
    lines = ["poisonbench report", f"cells: {cells} ({len(errors)} failed)"]
    for (attack, defense, family, kind), messages in sorted(failures.items()):
        lines.append(f"failed {attack} {defense} {family}: {len(messages)} {kind}; "
                     f"first: {messages[0]}")
    for (attack, family), group in sorted(attacked.items()):
        lines.append(
            f"attack {attack} {family}: {sum(r['attack_converged'] for r in group)}/{len(group)} "
            f"converged; median {_median([r['attack_iterations'] for r in group]):g} sweeps, "
            f"{_median([r['attack_refits'] for r in group]):g} refits"
        )
    trims = [r for (_, defense, _), group in defended.items() if defense == "trim" for r in group]
    if trims:
        iters = [r["defense_iterations"] for r in trims if "defense_iterations" in r]
        bounds = [str(r["trim_worst_case_iterations"]) for r in trims
                  if "trim_worst_case_iterations" in r]
        lines.append(
            f"trim iterations: max {max(iters) if iters else 'n/a'} (bounded by max_iters); "
            f"worst case C(N, n) = {max(bounds, key=_bound_rank, default='n/a')} subset traversals"
        )
    for (attack, defense, family), group in sorted(defended.items()):
        done = [r for r in group if "mse_defended" in r]
        within = sum(r["mse_defended"] <= RECOVERED_RATIO * r["mse_clean"] for r in done)
        ratios = [r["mse_defended"] / r["mse_poisoned"] for r in done if r.get("mse_poisoned")]
        median = f"{_median(ratios):.4g}" if ratios else "n/a"
        flags = [r["defense_converged"] for r in group if "defense_converged" in r]
        converged = f"; {sum(flags)}/{len(flags)} converged" if flags else ""
        lines.append(
            f"recovery {attack} {defense} {family}: {within}/{len(group)} cells within "
            f"{RECOVERED_RATIO:g}x clean MSE; median defended/poisoned MSE {median}{converged}"
        )
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cells, errors

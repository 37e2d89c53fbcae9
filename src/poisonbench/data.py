"""Dataset container, CSV ingestion, preprocessing, splitting, synthetic generation.

All features and responses live in the unit box [0, 1] after preprocessing,
so attack projections and defense residual rankings share one feasible domain.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

PROVENANCES = ("clean", "poisoned", "mixed")


@dataclass(frozen=True)
class Dataset:
    """An immutable (features, responses) pair in normalized units.

    features: (N, d) float array, values in [0, 1] for preprocessed data.
    responses: (N,) float array, same convention.
    """

    features: np.ndarray
    responses: np.ndarray
    feature_names: tuple[str, ...] = ()
    provenance: str = "clean"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        resp = np.asarray(self.responses, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if resp.ndim != 1:
            raise ValueError("responses must be a 1-D array")
        if feats.shape[0] != resp.shape[0]:
            raise ValueError(
                f"row mismatch: {feats.shape[0]} feature rows vs {resp.shape[0]} responses"
            )
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        names = self.feature_names or tuple(f"x{j}" for j in range(feats.shape[1]))
        if len(names) != feats.shape[1]:
            raise ValueError("feature_names length does not match feature count")
        feats.setflags(write=False)
        resp.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "responses", resp)
        object.__setattr__(self, "feature_names", tuple(names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset (copy), preserving provenance."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.responses[idx], self.feature_names, self.provenance)


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-column min/max used for the affine map to [0, 1], plus bookkeeping
    for dropped constant columns and one-hot expansions.

    columns holds (name, min, max) for every retained feature column, in
    output order; one-hot columns carry (0, 1). min < max for every entry.
    """

    columns: tuple[tuple[str, float, float], ...]
    response: tuple[float, float]
    dropped: tuple[str, ...] = ()
    onehot: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        for name, lo, hi in self.columns:
            if not lo < hi:
                raise ValueError(f"column {name!r} has min >= max ({lo} >= {hi})")
        lo, hi = self.response
        if not lo < hi:
            raise ValueError(f"response has min >= max ({lo} >= {hi})")

    def apply(self, features: np.ndarray, responses: np.ndarray):
        """Raw retained-column values -> normalized [0, 1] values."""
        feats = np.asarray(features, dtype=float).copy()
        for j, (_, lo, hi) in enumerate(self.columns):
            feats[:, j] = (feats[:, j] - lo) / (hi - lo)
        lo, hi = self.response
        resp = (np.asarray(responses, dtype=float) - lo) / (hi - lo)
        return feats, resp

    def invert(self, features: np.ndarray, responses: np.ndarray):
        """Normalized values -> raw units (inverse of apply)."""
        feats = np.asarray(features, dtype=float).copy()
        for j, (_, lo, hi) in enumerate(self.columns):
            feats[:, j] = feats[:, j] * (hi - lo) + lo
        lo, hi = self.response
        resp = np.asarray(responses, dtype=float) * (hi - lo) + lo
        return feats, resp

    def to_json(self) -> str:
        doc = {
            "columns": [{"name": n, "min": lo, "max": hi} for n, lo, hi in self.columns],
            "response": {"min": self.response[0], "max": self.response[1]},
            "dropped": list(self.dropped),
            "onehot": [{"source": s, "levels": list(ls)} for s, ls in self.onehot],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NormalizationSpec":
        doc = json.loads(text)
        return cls(
            columns=tuple((c["name"], c["min"], c["max"]) for c in doc["columns"]),
            response=(doc["response"]["min"], doc["response"]["max"]),
            dropped=tuple(doc["dropped"]),
            onehot=tuple((o["source"], tuple(o["levels"])) for o in doc["onehot"]),
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """Linear-plus-Gaussian-noise generator settings."""

    d: int
    n: int
    true_weights: tuple[float, ...]
    true_bias: float
    noise_std: float
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.n < self.d + 1:
            raise ValueError(f"need n >= d+1 samples, got n={self.n}, d={self.d}")
        if len(self.true_weights) != self.d:
            raise ValueError(
                f"true_weights has {len(self.true_weights)} entries, expected d={self.d}"
            )
        if not all(map(math.isfinite, (*self.true_weights, self.true_bias))):
            raise ValueError("true_weights and true_bias must be finite")
        # NaN fails every comparison, so it would pass a plain `< 0` test
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SplitTriple:
    train: Dataset
    validation: Dataset
    test: Dataset


def _try_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _require_finite(path, name, cells, values) -> None:
    for i, (cell, v) in enumerate(zip(cells, values)):
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{path}: non-finite value {cell!r} in column {name!r}, row {i + 2}")


def load_csv(path, target_column, schema_hints=None):
    """Load a headered CSV into a normalized Dataset.

    Categorical columns (from schema_hints, or columns where no cell parses
    as a number) are one-hot encoded with levels in sorted order; numeric
    columns and the response are min-max normalized to [0, 1]. Constant
    columns are dropped and recorded in the returned NormalizationSpec.
    Non-finite numbers (nan, inf) are rejected with their row and column.

    Returns (Dataset, NormalizationSpec).
    """
    hints = set(schema_hints or ())
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    if len(body) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(body)}")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        for name, cell in zip(header, row):
            if cell.strip() == "":
                raise ValueError(f"{path}: missing value in column {name!r}, row {i + 2}")

    if isinstance(target_column, int):
        if not 0 <= target_column < len(header):
            raise ValueError(f"target column index {target_column} out of range")
        target_name = header[target_column]
    else:
        if target_column not in header:
            raise ValueError(f"target column {target_column!r} not found in header {header}")
        target_name = target_column
    target_idx = header.index(target_name)
    unknown = sorted(h for h in hints if h not in header or h == target_name)
    if unknown:
        raise ValueError(f"{path}: categorical columns {unknown} are not feature columns of {header}")

    target_cells = [row[target_idx].strip() for row in body]
    raw_target = [_try_float(c) for c in target_cells]
    if any(v is None for v in raw_target):
        raise ValueError(f"non-numeric cell in target column {target_name!r}")
    _require_finite(path, target_name, target_cells, raw_target)
    responses = np.array(raw_target, dtype=float)

    columns: list[tuple[str, float, float]] = []
    dropped: list[str] = []
    onehot: list[tuple[str, tuple[str, ...]]] = []
    out_cols: list[np.ndarray] = []

    for j, name in enumerate(header):
        if j == target_idx:
            continue
        cells = [row[j].strip() for row in body]
        parsed = [_try_float(c) for c in cells]
        n_numeric = sum(v is not None for v in parsed)
        categorical = name in hints or n_numeric == 0
        if not categorical and n_numeric != len(cells):
            bad = next(c for c, v in zip(cells, parsed) if v is None)
            raise ValueError(f"non-numeric cell {bad!r} in numeric column {name!r}")
        if categorical:
            levels = tuple(sorted(set(cells)))
            onehot.append((name, levels))
            for level in levels:
                col_name = f"{name}={level}"
                col = np.array([1.0 if c == level else 0.0 for c in cells])
                if col.min() == col.max():
                    dropped.append(col_name)
                    continue
                columns.append((col_name, 0.0, 1.0))
                out_cols.append(col)
        else:
            _require_finite(path, name, cells, parsed)
            col = np.array(parsed, dtype=float)
            lo, hi = float(col.min()), float(col.max())
            if lo == hi:
                dropped.append(name)
                continue
            columns.append((name, lo, hi))
            out_cols.append((col - lo) / (hi - lo))

    r_lo, r_hi = float(responses.min()), float(responses.max())
    if r_lo == r_hi:
        raise ValueError(f"constant response column {target_name!r} cannot be normalized")
    responses = (responses - r_lo) / (r_hi - r_lo)

    features = np.column_stack(out_cols) if out_cols else np.empty((len(body), 0))
    spec = NormalizationSpec(
        columns=tuple(columns),
        response=(r_lo, r_hi),
        dropped=tuple(dropped),
        onehot=tuple(onehot),
    )
    ds = Dataset(features, responses, tuple(n for n, _, _ in columns), "clean")
    return ds, spec


def generate_synthetic(spec: SyntheticSpec):
    """Draw features uniformly in [0, 1]^d and responses w.x + b + N(0, sigma^2).

    If noise pushes any response outside [0, 1] the whole response column is
    min-max rescaled (never clipped, to preserve the linear relationship).
    Returns (Dataset, NormalizationSpec); the spec un-normalizes responses.
    """
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(size=(spec.n, spec.d))
    w = np.asarray(spec.true_weights, dtype=float)
    y = x @ w + spec.true_bias
    if spec.noise_std > 0:
        y = y + rng.normal(0.0, spec.noise_std, size=spec.n)
    y_lo, y_hi = float(y.min()), float(y.max())
    if y_lo < 0.0 or y_hi > 1.0:
        if y_lo == y_hi:
            raise ValueError("constant responses outside [0, 1] cannot be rescaled")
        y = (y - y_lo) / (y_hi - y_lo)
        resp_range = (y_lo, y_hi)
    else:
        resp_range = (0.0, 1.0)
    names = tuple(f"x{j}" for j in range(spec.d))
    norm = NormalizationSpec(
        columns=tuple((n, 0.0, 1.0) for n in names),
        response=resp_range,
    )
    return Dataset(x, y, names, "clean"), norm


def split_three(ds: Dataset, seed: int) -> SplitTriple:
    """Seeded permutation then contiguous thirds; remainder rows go to the
    earlier folds (train first)."""
    n = ds.n
    if n < 3:
        raise ValueError(f"need at least 3 rows to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    return SplitTriple(*(ds.take(part) for part in np.array_split(perm, 3)))


def merge(clean: Dataset, poison: Dataset):
    """Concatenate clean and poison rows.

    Returns (merged, alpha) where alpha = n_p / (n_o + n_p). An empty poison
    set returns the clean rows unchanged with alpha 0.
    """
    if poison.d != clean.d:
        raise ValueError(f"feature dimension mismatch: {clean.d} vs {poison.d}")
    n_o, n_p = clean.n, poison.n
    alpha = n_p / (n_o + n_p)
    if n_p == 0:
        return clean, 0.0
    merged = Dataset(
        np.vstack([clean.features, poison.features]),
        np.concatenate([clean.responses, poison.responses]),
        clean.feature_names,
        "mixed",
    )
    return merged, alpha


def poison_count(n_clean: int, alpha: float) -> int:
    """The largest poison set size p with p / (n_clean + p) <= alpha, i.e.
    floor(alpha * n_clean / (1 - alpha)). Computed from the closed form then
    nudged by direct inequality checks, so a p that meets alpha exactly
    (18 of 207 + 18 at alpha = 0.08) is not lost to rounding."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n_clean < 0:
        raise ValueError(f"n_clean must be >= 0, got {n_clean}")
    p = math.floor(alpha * n_clean / (1.0 - alpha))
    while (p + 1) / (n_clean + p + 1) <= alpha:
        p += 1
    while p > 0 and p / (n_clean + p) > alpha:
        p -= 1
    return p

"""Dataset container, CSV ingestion, preprocessing, splitting, synthetic generation.

All features and responses live in the unit box [0, 1] after preprocessing,
so attack projections and defense residual rankings share one feasible domain.
"""

from __future__ import annotations

import csv
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

    def to_dict(self) -> dict:
        """The spec as a JSON-ready dict: columns, response, dropped, onehot."""
        return {
            "columns": [{"name": n, "min": lo, "max": hi} for n, lo, hi in self.columns],
            "response": {"min": self.response[0], "max": self.response[1]},
            "dropped": list(self.dropped),
            "onehot": [{"source": s, "levels": list(ls)} for s, ls in self.onehot],
        }


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


def _floats(path, kind, name, cells):
    """A target or numeric column's cells as a float array, or None for a numeric
    column with no number in it (it is categorical). Else a non-numeric cell
    raises, then a non-finite one (nan, inf) with its row."""
    values, text = [], []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            text.append(cell)
    if not values and kind == "numeric":
        return None
    if text:
        raise ValueError(f"non-numeric cell in {kind} column {name!r}: {text[0]!r}")
    for i, (cell, v) in enumerate(zip(cells, values)):
        if not math.isfinite(v):
            raise ValueError(f"{path}: non-finite value {cell!r} in column {name!r}, row {i + 2}")
    return np.array(values)


def load_csv(path, target_column: str, categorical=()):
    """Load a headered CSV into a normalized Dataset.

    target_column names the response column. Categorical columns (those
    named in `categorical`, and those where no cell parses as a number) are
    one-hot encoded with levels in sorted order; numeric columns and the
    response are min-max normalized to [0, 1]. Constant columns are dropped
    and recorded in the returned NormalizationSpec. An empty column name, a
    name repeated in the header or by one-hot expansion, a non-numeric cell
    in the target or a numeric column, and a non-finite number (nan, inf;
    named with its row and column) are rejected.

    Returns (Dataset, NormalizationSpec).
    """
    hints = set(categorical or ())
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if "" in header:
        raise ValueError(f"{path}: empty column name at column {header.index('') + 1}")
    body = rows[1:]
    if len(body) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(body)}")
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise ValueError(f"{path}: repeated column names {repeated} in header")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
    cells = {name: [c.strip() for c in col] for name, col in zip(header, zip(*body))}
    for name, col in cells.items():
        if "" in col:
            raise ValueError(f"{path}: missing value in column {name!r}, row {col.index('') + 2}")
    if target_column not in cells:
        raise ValueError(f"target column {target_column!r} not found in header {header}")
    unknown = sorted(h for h in hints if h not in cells or h == target_column)
    if unknown:
        raise ValueError(f"{path}: categorical columns {unknown} are not feature columns of {header}")
    responses = _floats(path, "target", target_column, cells.pop(target_column))

    columns: list[tuple[str, float, float]] = []
    dropped: list[str] = []
    onehot: list[tuple[str, tuple[str, ...]]] = []
    out_cols: list[np.ndarray] = []
    for name, col in cells.items():
        values = None if name in hints else _floats(path, "numeric", name, col)
        if values is None:
            levels = tuple(sorted(set(col)))
            onehot.append((name, levels))
            parts = [(f"{name}={level}", np.array([c == level for c in col], dtype=float))
                     for level in levels]
        else:
            parts = [(name, values)]
        for part_name, part in parts:
            lo, hi = float(part.min()), float(part.max())
            if lo == hi:
                dropped.append(part_name)
                continue
            columns.append((part_name, lo, hi))
            out_cols.append((part - lo) / (hi - lo))

    written = [n for n, _, _ in columns] + dropped + [target_column]
    repeated = sorted({n for n in written if written.count(n) > 1})
    if repeated:
        raise ValueError(f"{path}: repeated column names {repeated} after one-hot expansion")
    r_lo, r_hi = float(responses.min()), float(responses.max())
    if r_lo == r_hi:
        raise ValueError(f"constant response column {target_column!r} cannot be normalized")
    responses = (responses - r_lo) / (r_hi - r_lo)

    features = np.column_stack(out_cols) if out_cols else np.empty((len(body), 0))
    spec = NormalizationSpec(tuple(columns), (r_lo, r_hi), tuple(dropped), tuple(onehot))
    return Dataset(features, responses, tuple(n for n, _, _ in columns), "clean"), spec


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
    ds = Dataset(x, y)
    return ds, NormalizationSpec(tuple((n, 0.0, 1.0) for n in ds.feature_names), resp_range)


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

import hashlib
import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisonbench.data import (
    Dataset,
    NormalizationSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    merge,
    poison_count,
    split_three,
)
from poisonbench.regress import fit, mse


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestDataset:
    def test_a_pickled_copy_is_read_only(self):
        # a pool worker's dataset is such a copy; it is rebuilt through the
        # constructor, which validates it and freezes its arrays
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.arange(3.0), ("a", "b"), "poisoned")
        back = pickle.loads(pickle.dumps(ds))
        assert not back.features.flags.writeable and not back.responses.flags.writeable
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.responses, ds.responses)
        assert (back.feature_names, back.provenance) == (ds.feature_names, ds.provenance)

    @pytest.mark.parametrize("indices,dtype", [
        ([True, False, True, False], "bool"),  # a cast would read rows 1, 0, 1, 0
        ([0.7, 2.9], "float64"),  # a cast would truncate to rows 0 and 2
    ])
    def test_take_rejects_indices_that_are_not_integers(self, indices, dtype):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        with pytest.raises(TypeError, match=f"row indices must be integers, got dtype {dtype}"):
            ds.take(indices)

    @pytest.mark.parametrize("indices,rows", [
        ([], []), ([2, 0], [2, 0]), (np.array([3], dtype=np.uint8), [3]),
    ])
    def test_take_integer_indices(self, indices, rows):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0), provenance="poisoned")
        sub = ds.take(indices)
        assert sub.responses.tolist() == rows and sub.provenance == "poisoned"


class TestLoadCsv:
    def test_minmax_endpoints(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,y\n10,0\n30,1\n")
        ds, spec = load_csv(p, "y")
        assert ds.features[:, 0].tolist() == [0.0, 1.0]
        assert spec.columns == (("a", 10.0, 30.0),)

    def test_minmax_quarters(self, tmp_path):
        # hand computation: (x - 1) / (5 - 1)
        p = write_csv(tmp_path / "a.csv", "a,y\n1,0\n2,1\n3,2\n5,3\n")
        ds, _ = load_csv(p, "y")
        assert ds.features[:, 0].tolist() == [0.0, 0.25, 0.5, 1.0]

    def test_single_level_categorical_dropped(self, tmp_path):
        # its one level is the reference level, so it writes no column
        p = write_csv(tmp_path / "a.csv", "a,c,y\n1,only,0\n2,only,1\n")
        ds, spec = load_csv(p, "y")
        assert ds.feature_names == ("a",)
        assert spec.dropped == ()
        assert spec.onehot == (("c", ("only",)),)

    def test_onehot_levels_sorted(self, tmp_path):
        # the first level in sorted order, blue, is the reference level
        p = write_csv(tmp_path / "a.csv", "c,y\nred,0\nblue,1\nred,2\ngreen,3\n")
        ds, spec = load_csv(p, "y")
        assert ds.feature_names == ("c=green", "c=red")
        assert ds.features.tolist() == [[0.0, 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert spec.onehot == (("c", ("blue", "green", "red")),)

    def test_schema_hint_forces_categorical(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "code,y\n1,0\n2,1\n1,2\n")
        ds, spec = load_csv(p, "y", categorical=["code"])
        assert ds.feature_names == ("code=2",)
        assert spec.onehot == (("code", ("1", "2")),)

    @pytest.mark.parametrize("target,hints,names", [
        ("c", None, ("a", "y")),
        ("y", ["c"], ("c=2", "a")),
    ])
    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path, target, hints, names):
        # spreadsheet tools save UTF-8 CSVs with a leading byte-order mark
        text = "c,a,y\n1,10,0\n2,20,1\n1,30,3\n"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        ds, spec = load_csv(marked, target, hints)
        plain, plain_spec = load_csv(write_csv(tmp_path / "plain.csv", text), target, hints)
        assert ds.feature_names == plain.feature_names == names
        assert spec == plain_spec
        assert ds.provenance == plain.provenance
        np.testing.assert_array_equal(ds.features, plain.features)
        np.testing.assert_array_equal(ds.responses, plain.responses)

    def test_constant_numeric_column_dropped(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,b,y\n1,7,0\n2,7,1\n")
        ds, spec = load_csv(p, "y")
        assert ds.feature_names == ("a",)
        assert spec.dropped == ("b",)

    def test_missing_target_errors(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,y\n1,0\n2,1\n")
        with pytest.raises(ValueError, match="target column"):
            load_csv(p, "z")

    def test_mixed_numeric_column_errors(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,y\n1,0\noops,1\n2,2\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(p, "y")

    def test_constant_response_errors(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,y\n1,5\n2,5\n")
        with pytest.raises(ValueError, match="constant response"):
            load_csv(p, "y")

    def test_missing_value_errors(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,y\n1,0\n,1\n")
        with pytest.raises(ValueError, match="missing value"):
            load_csv(p, "y")

    @pytest.mark.parametrize("text", ["a,y\n1,2\n3,4\n5,7\n\n", "a,y\n1,2\n\n3,4\n5,7\n"])
    def test_an_empty_line_is_skipped(self, tmp_path, text):
        # a trailing or a middle empty line; the file without it gives the same
        ds, norm = load_csv(write_csv(tmp_path / "e.csv", text), "y")
        want_ds, want_norm = load_csv(write_csv(tmp_path / "a.csv", "a,y\n1,2\n3,4\n5,7\n"), "y")
        assert norm == want_norm
        assert ds.feature_names == want_ds.feature_names
        np.testing.assert_array_equal(ds.features, want_ds.features)
        np.testing.assert_array_equal(ds.responses, want_ds.responses)

    def test_an_empty_line_is_not_counted_in_a_row_number(self, tmp_path):
        # rows count from the header as row 1; a line of spaces is a row
        p = write_csv(tmp_path / "a.csv", "a,y\n1,2\n\n3,4\n   \n")
        with pytest.raises(ValueError, match="row 4 has 1 cells, expected 2"):
            load_csv(p, "y")

    def test_too_few_rows_errors(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,y\n1,0\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_csv(p, "y")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN"])
    @pytest.mark.parametrize("column", ["a", "y"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, column):
        rows = {"a": ["1", "2", "3"], "y": ["0", "1", "2"]}
        rows[column][1] = cell
        text = "a,y\n" + "".join(f"{a},{y}\n" for a, y in zip(rows["a"], rows["y"]))
        p = write_csv(tmp_path / "a.csv", text)
        message = f"non-finite value '{cell}' in column '{column}', row 3"
        with pytest.raises(ValueError, match=message):
            load_csv(p, "y")

    @pytest.mark.parametrize("header,names", [
        ("a,y,y", "['y']"),
        ("b ,a,b,y,a", "['a', 'b']"),
    ])
    def test_repeated_column_names_rejected(self, tmp_path, header, names):
        # at a,y,y the second y would be a feature column holding the target
        width = header.count(",") + 1
        rows = "".join(",".join(str(i + j) for j in range(width)) + "\n" for i in range(3))
        p = write_csv(tmp_path / "a.csv", header + "\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"repeated column names {names}")):
            load_csv(p, "y")

    @pytest.mark.parametrize("text,target", [
        ("c,c=red,y\nred,1,0\nblue,2,1\nred,3,2\n", "y"),  # as a kept feature
        ("c,c=red,y\nred,1,0\nblue,1,1\nred,1,2\n", "y"),  # as a dropped constant column
        ("c,c=red\nred,0\nblue,1\nred,2\n", "c=red"),  # as the target
    ])
    def test_name_repeated_by_one_hot_expansion_rejected(self, tmp_path, text, target):
        p = write_csv(tmp_path / "a.csv", text)
        message = "repeated column names ['c=red'] after one-hot expansion"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(p, target)

    @pytest.mark.parametrize("header", ["a,,y", "a,  ,y"])
    def test_empty_column_name_rejected_with_its_position(self, tmp_path, header):
        p = write_csv(tmp_path / "a.csv", header + "\n1,2,0\n2,3,1\n3,5,2\n")
        with pytest.raises(ValueError, match="empty column name at column 2"):
            load_csv(p, "y")

    def test_non_finite_label_in_categorical_column_is_a_level(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "c,y\nnan,0\nred,1\nnan,2\n")
        ds, spec = load_csv(p, "y", categorical=["c"])
        assert spec.onehot == (("c", ("nan", "red")),)
        assert np.isfinite(ds.features).all()

    def test_a_whole_one_hot_group_leaves_the_fits_well_posed(self, tmp_path):
        # with every level a column, the group sums to the bias column: OLS
        # falls back to minimum norm and coordinate descent crawls along the
        # collinearity (LASSO and Elastic-net stop unconverged at the sweep cap)
        rng = np.random.default_rng(5)
        a, b = rng.lognormal(size=(2, 300))
        region = rng.choice(["north", "south", "west"], size=300)
        y = a + 0.5 * b + (region == "south") + rng.normal(0.0, 0.1, size=300)
        rows = "".join(f"{u!r},{v!r},{r},{t!r}\n"
                       for u, v, r, t in zip(a.tolist(), b.tolist(), region, y.tolist()))
        ds, _ = load_csv(write_csv(tmp_path / "a.csv", "a,b,region,y\n" + rows), "y")
        assert not fit(ds, "ols").fallback
        for family in ("lasso", "enet"):
            report = fit(ds, family, 1e-4)
            assert report.converged and report.iterations <= 50, (family, report.iterations)
        assert ds.feature_names == ("a", "b", "region=south", "region=west")


LEVELS = ("blue", "green", "red")
NUMBERS = st.floats(-1e6, 1e6)


@st.composite
def csv_tables(draw):
    """(CSV text, header order, categorical hints, raw values by column) of a
    table with numeric, constant and categorical feature columns and target y."""
    n = draw(st.integers(2, 6))
    kinds = draw(st.lists(st.sampled_from(("numeric", "constant", "categorical")), max_size=4))
    columns = {}
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            columns[f"f{j}"] = draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
        elif kind == "constant":
            columns[f"f{j}"] = [draw(NUMBERS)] * n
        else:
            columns[f"f{j}"] = draw(st.lists(NUMBERS, min_size=n, max_size=n))
    hints = draw(st.sets(st.sampled_from(sorted(columns)))) if columns else set()
    columns["y"] = draw(st.lists(NUMBERS, min_size=n, max_size=n).filter(lambda v: min(v) < max(v)))
    order = draw(st.permutations(sorted(columns)))
    pad = st.sampled_from(("", " "))
    lines = [",".join(order)] + [
        ",".join(draw(pad) + str(columns[name][i]) + draw(pad) for name in order)
        for i in range(n)
    ]
    return "\n".join(lines) + "\n", order, hints, columns


def _normalized(values, lo, hi):
    return [(v - lo) / (hi - lo) for v in values]


class TestLoadCsvOracle:
    @settings(max_examples=200, deadline=None)
    @given(table=csv_tables())
    def test_matches_a_plain_python_oracle(self, tmp_path_factory, table):
        text, order, hints, columns = table
        p = write_csv(tmp_path_factory.getbasetemp() / "oracle.csv", text)
        ds, spec = load_csv(p, "y", categorical=hints)
        features, kept, dropped, onehot = [], [], [], []
        for name in order:
            raw = columns[name]
            if name == "y":
                continue
            if name in hints or isinstance(raw[0], str):
                cells = [str(v) for v in raw]  # a float's cell is its repr
                levels = sorted(set(cells))
                onehot.append({"source": name, "levels": levels, "reference": levels[0]})
                parts = [(f"{name}={level}", [float(c == level) for c in cells])
                         for level in levels[1:]]
            else:
                parts = [(name, raw)]
            for part_name, values in parts:
                lo, hi = min(values), max(values)
                if lo == hi:
                    dropped.append(part_name)
                    continue
                kept.append({"name": part_name, "min": lo, "max": hi})
                features.append(_normalized(values, lo, hi))
        y = columns["y"]
        assert ds.feature_names == tuple(col["name"] for col in kept)
        assert ds.features.T.tolist() == features
        assert ds.responses.tolist() == _normalized(y, min(y), max(y))
        assert spec.to_dict() == {
            "columns": kept,
            "response": {"min": min(y), "max": max(y)},
            "dropped": dropped,
            "onehot": onehot,
        }


class TestNormalizationSpec:
    def test_json_min_max_map_the_raw_columns(self, tmp_path):
        raw = {"a": [1.0, 4.0, 2.0], "b": [10.0, 20.0, 15.0], "y": [3.0, 6.0, 9.0]}
        p = write_csv(tmp_path / "a.csv", "a,b,y\n1,10,3\n4,20,6\n2,15,9\n")
        ds, spec = load_csv(p, "y")
        doc = spec.to_dict()
        assert doc["columns"] == [{"name": "a", "min": 1.0, "max": 4.0},
                                  {"name": "b", "min": 10.0, "max": 20.0}]
        assert doc["response"] == {"min": 3.0, "max": 9.0}
        for j, col in enumerate(doc["columns"]):
            back = ds.features[:, j] * (col["max"] - col["min"]) + col["min"]
            assert np.max(np.abs(back - raw[col["name"]])) <= 1e-12
        lo, hi = doc["response"]["min"], doc["response"]["max"]
        assert np.max(np.abs(ds.responses * (hi - lo) + lo - raw["y"])) <= 1e-12

    def test_json_records_onehot_levels(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,c,y\n1,u,0\n2,v,1\n3,u,2\n")
        _, spec = load_csv(p, "y")
        doc = spec.to_dict()
        assert [(c["name"], c["min"], c["max"]) for c in doc["columns"]] == [
            ("a", 1.0, 3.0), ("c=v", 0.0, 1.0)]
        assert doc["onehot"] == [{"source": "c", "levels": ["u", "v"], "reference": "u"}]
        assert doc["dropped"] == []

    def test_rejects_degenerate_column(self):
        with pytest.raises(ValueError, match="min >= max"):
            NormalizationSpec(columns=(("a", 1.0, 1.0),), response=(0.0, 1.0))


class TestGenerateSynthetic:
    def test_noiseless_line_recovered(self):
        spec = SyntheticSpec(d=1, n=20, true_weights=(1.0,), true_bias=0.0, noise_std=0.0, seed=4)
        ds, norm = generate_synthetic(spec)
        report = fit(ds, "ols")
        # y = x stays inside [0, 1]: no rescale, slope recovered directly
        scale = norm.response[1] - norm.response[0]
        assert abs(report.model.weights[0] * scale - 1.0) <= 1e-10
        assert mse(ds, report.model) <= 1e-18

    def test_deterministic(self):
        spec = SyntheticSpec(d=3, n=30, true_weights=(0.2, 0.3, -0.1), true_bias=0.5,
                             noise_std=0.05, seed=99)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.responses, b.responses)

    # sha256 of the feature and response bytes that `fit --synthetic
    # d=D,n=N,seed=S` generated when the CLI drew the omitted w and b itself
    @pytest.mark.parametrize("d,n,seed,features,responses", [
        (1, 20, 0, "bb84ac9e030fb69d0e8e8df71436513f8a08e464adb212083996150617d66aea",
         "ac74f8c27b6f2187237e1591bc19a0f5f8f39e994085c0d750dc1b97da22899d"),
        (3, 40, 7, "1e803cc5963af73a38dde732d115077a7c8acac2b034de59231fdf29573ded00",
         "1c3660c565d72dee6e4fec6a60ce92514ecad3c8fba87dc139e1f92e5ae18e91"),
        (5, 300, 0, "a60ae07cc92188427fec6f33a3779f8a64b915ad6f6aa157f0abbb16991fdcdf",
         "de3b3905b2bb4efbc8836bb88c3fad68c02c2b2ca9ff97fdbcb2c021ab6f165c"),
        (8, 25, 123456, "aaa7ba85fa641a6b32f6c053fa92cc41baa3f3c67ef69770d8df72d7a75531cf",
         "e5594dea2cf88522e7545abb58cb2406cefbacb5974aa7e4179e194748c74d1f"),
    ], ids=["d1", "d3", "d5", "d8"])
    def test_omitted_weights_and_bias_are_the_cli_draw(self, d, n, seed, features, responses):
        ds, _ = generate_synthetic(SyntheticSpec(d=d, n=n, seed=seed))
        assert hashlib.sha256(ds.features.tobytes()).hexdigest() == features
        assert hashlib.sha256(ds.responses.tobytes()).hexdigest() == responses

    @pytest.mark.parametrize("given", [
        {},
        dict(true_weights=(0.5, -0.25, 0.125)),
        dict(true_bias=0.75),
        dict(true_weights=(0.5, -0.25, 0.125), true_bias=0.75),
    ])
    def test_a_given_weight_vector_or_bias_overrides_the_draw(self, given):
        drawn = dict(
            true_weights=np.random.default_rng(np.random.SeedSequence([7, 0xC0FFEE])).uniform(
                -1.0, 1.0, size=3),
            true_bias=np.random.default_rng(np.random.SeedSequence([7, 0xB1A5])).uniform(),
        )
        want = {**drawn, **given}
        base, _ = generate_synthetic(SyntheticSpec(d=3, n=40, noise_std=0.0, seed=7))
        ds, norm = generate_synthetic(SyntheticSpec(d=3, n=40, noise_std=0.0, seed=7, **given))
        assert ds.features.tobytes() == base.features.tobytes()
        lo, hi = norm.response
        np.testing.assert_allclose(ds.responses * (hi - lo) + lo,
                                   ds.features @ want["true_weights"] + want["true_bias"],
                                   rtol=0.0, atol=1e-12)

    def test_out_of_box_responses_rescaled_not_clipped(self):
        spec = SyntheticSpec(d=1, n=50, true_weights=(2.0,), true_bias=-0.5,
                             noise_std=0.0, seed=7)
        ds, norm = generate_synthetic(spec)
        assert ds.responses.min() >= 0.0 and ds.responses.max() <= 1.0
        # affine rescale keeps the exact linear relation
        assert mse(ds, fit(ds, "ols").model) <= 1e-18
        assert norm.response != (0.0, 1.0)

    def test_residual_variance_matches_noise(self):
        # Monte-Carlo oracle: unbiased residual variance of the OLS fit,
        # un-normalized, against sigma^2 within 3 standard errors.
        sigma, n, d, seeds = 0.1, 300, 5, 20
        estimates = []
        for seed in range(seeds):
            spec = SyntheticSpec(d=d, n=n, true_weights=(0.1, -0.1, 0.05, 0.1, -0.05),
                                 true_bias=0.5, noise_std=sigma, seed=seed)
            ds, norm = generate_synthetic(spec)
            model = fit(ds, "ols").model
            resid = model.predict(ds.features) - ds.responses
            resid *= norm.response[1] - norm.response[0]
            estimates.append(float(resid @ resid) / (n - d - 1))
        se = sigma**2 * np.sqrt(2.0 / (n - d - 1)) / np.sqrt(seeds)
        assert abs(np.mean(estimates) - sigma**2) <= 3 * se

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="d\\+1"):
            SyntheticSpec(d=3, n=3, true_weights=(1, 1, 1), true_bias=0, noise_std=0)


class TestSplitThree:
    def test_even_sizes(self):
        ds = Dataset(np.arange(9, dtype=float).reshape(-1, 1) / 9, np.zeros(9))
        s = split_three(ds, 0)
        assert (s.train.n, s.validation.n, s.test.n) == (3, 3, 3)

    def test_remainder_goes_to_earlier_folds(self):
        ds = Dataset(np.arange(10, dtype=float).reshape(-1, 1) / 10, np.zeros(10))
        s = split_three(ds, 0)
        assert (s.train.n, s.validation.n, s.test.n) == (4, 3, 3)

    def test_deterministic(self):
        ds = Dataset(np.arange(14, dtype=float).reshape(-1, 1) / 14, np.arange(14.0) / 14)
        a, b = split_three(ds, 5), split_three(ds, 5)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.responses, b.test.responses)

    def test_partition_property(self):
        # disjointness and union over random sizes and seeds
        rng = np.random.default_rng(123)
        for _ in range(40):
            n = int(rng.integers(3, 200))
            values = np.arange(n, dtype=float)
            ds = Dataset(values.reshape(-1, 1) / max(n, 1), values / max(n, 1))
            s = split_three(ds, int(rng.integers(0, 2**31)))
            sizes = sorted([s.train.n, s.validation.n, s.test.n])
            assert sizes[-1] - sizes[0] <= 1
            seen = np.concatenate([
                s.train.features[:, 0], s.validation.features[:, 0], s.test.features[:, 0]
            ])
            assert len(seen) == n
            assert set(np.round(seen * max(n, 1)).astype(int)) == set(range(n))

    def test_rejects_tiny_dataset(self):
        ds = Dataset(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="at least 3"):
            split_three(ds, 0)


class TestMerge:
    def test_alpha_fifth(self):
        clean = Dataset(np.zeros((240, 2)), np.zeros(240))
        poison = Dataset(np.ones((60, 2)), np.ones(60), provenance="poisoned")
        merged, alpha = merge(clean, poison)
        assert alpha == 0.2
        assert merged.n == 300
        assert merged.provenance == "mixed"

    def test_empty_poison_identity(self):
        clean = Dataset(np.ones((5, 2)) * 0.5, np.ones(5) * 0.5)
        poison = Dataset(np.empty((0, 2)), np.empty(0), provenance="poisoned")
        merged, alpha = merge(clean, poison)
        assert alpha == 0.0
        assert np.array_equal(merged.features, clean.features)
        assert merged.provenance == "clean"

    def test_alpha_four_percent(self):
        clean = Dataset(np.zeros((288, 1)), np.zeros(288))
        poison = Dataset(np.ones((12, 1)), np.ones(12), provenance="poisoned")
        _, alpha = merge(clean, poison)
        assert alpha == pytest.approx(0.04)

    def test_dimension_mismatch(self):
        clean = Dataset(np.zeros((4, 2)), np.zeros(4))
        poison = Dataset(np.zeros((1, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            merge(clean, poison)

    def test_poison_count_matches_alpha(self):
        assert poison_count(240, 0.2) == 60
        assert poison_count(288, 0.04) == 12
        assert poison_count(100, 0.2) == 25

    def test_poison_count_keeps_a_size_that_meets_alpha_exactly(self):
        # 0.08 * 207 / 0.92 rounds to just below 18, and 18 / 225 == 0.08
        assert poison_count(207, 0.08) == 18

    @settings(max_examples=500, deadline=None)
    @given(n_clean=st.integers(1, 100_000), alpha=st.floats(0.0, 0.5, exclude_min=True))
    @example(n_clean=207, alpha=0.08)
    def test_poison_count_is_the_largest_size_within_alpha(self, n_clean, alpha):
        p = poison_count(n_clean, alpha)
        assert p / (n_clean + p) <= alpha < (p + 1) / (n_clean + p + 1)


class TestRejectedInputs:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(d=0, true_weights=()), "d must be >= 1"),
        (dict(true_weights=(0.1,)), "true_weights has 1 entries, expected d=2"),
        (dict(true_weights=(0.1, 0.2, 0.3)), "true_weights has 3 entries"),
        (dict(true_weights=(float("nan"), 0.2)), "finite"),
        (dict(true_weights=(0.1, float("inf"))), "finite"),
        (dict(true_bias=float("nan")), "finite"),
        (dict(true_bias=float("-inf")), "finite"),
        (dict(noise_std=-0.1), "noise_std"),
        (dict(noise_std=float("nan")), "noise_std"),
        (dict(noise_std=float("inf")), "noise_std"),
        (dict(seed=-1), "seed must be >= 0"),
    ])
    def test_synthetic_spec(self, kwargs, message):
        fields = dict(d=2, n=40, true_weights=(0.1, 0.2), true_bias=0.3, noise_std=0.1)
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**{**fields, **kwargs})

    def test_constant_responses_outside_the_box(self):
        spec = SyntheticSpec(d=1, n=5, true_weights=(0.0,), true_bias=2.0, noise_std=0.0)
        with pytest.raises(ValueError, match="constant responses"):
            generate_synthetic(spec)

    @pytest.mark.parametrize("features,responses,kwargs,message", [
        (np.zeros(3), np.zeros(3), {}, "2-D"),
        (np.zeros((3, 1)), np.zeros((3, 1)), {}, "1-D"),
        (np.zeros((3, 1)), np.zeros(4), {}, "row mismatch"),
        (np.zeros((3, 1)), np.zeros(3), dict(provenance="dirty"), "provenance"),
        (np.zeros((3, 2)), np.zeros(3), dict(feature_names=("a",)), "feature_names"),
    ])
    def test_dataset(self, features, responses, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features, responses, **kwargs)

    def test_normalization_constant_response(self):
        with pytest.raises(ValueError, match="response has min >= max"):
            NormalizationSpec(columns=(("a", 0.0, 1.0),), response=(2.0, 2.0))

    @pytest.mark.parametrize("text,target,message", [
        ("", "y", "empty file"),
        ("a,y\n1,0\n2\n3,1\n", "y", "row 3 has 1 cells, expected 2"),
        ("a,y\n1,low\n2,1\n", "y", "non-numeric cell in target column 'y'"),
    ])
    def test_load_csv(self, tmp_path, text, target, message):
        with pytest.raises(ValueError, match=message):
            load_csv(write_csv(tmp_path / "a.csv", text), target)

    @pytest.mark.parametrize("hint", ["nosuch", "y"])
    def test_categorical_hint_that_is_not_a_feature_column(self, tmp_path, hint):
        with pytest.raises(ValueError, match=f"categorical columns \\['{hint}'\\]"):
            load_csv(write_csv(tmp_path / "a.csv", "a,y\n1,0\n2,1\n"), "y", [hint])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_poison_count_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            poison_count(100, alpha)

    def test_poison_count_negative_clean_count(self):
        with pytest.raises(ValueError, match="n_clean must be >= 0"):
            poison_count(-1, 0.2)


def test_split_three_folds_match_hand_built_bounds():
    # train gets the first of the n % 3 extra rows, then validation
    for n, seed in itertools.product(range(3, 40), (0, 7)):
        ds = Dataset(np.arange(n, dtype=float).reshape(-1, 1), np.zeros(n))
        perm = np.random.default_rng(seed).permutation(n)
        base, rem = divmod(n, 3)
        bounds = np.cumsum([0] + [base + (i < rem) for i in range(3)])
        split = split_three(ds, seed)
        for i, fold in enumerate((split.train, split.validation, split.test)):
            assert fold.features[:, 0].tolist() == perm[bounds[i]:bounds[i + 1]].tolist()

import json
import pathlib

import numpy as np
import pytest

import causalinv as ci
from causalinv import synth
from causalinv.data import DataError, SchemaError

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _basic_schema(tmp_path, **overrides):
    doc = {
        "label": "y",
        "control": ["a"],
        "indirect": [],
        "treatment": ["t"],
        "cost_up": {"t": 1.0},
        "cost_down": {"t": 1.0},
        "lower": {"t": 0.0},
        "upper": {"t": 10.0},
    }
    doc.update(overrides)
    return _write(tmp_path, "schema.json", json.dumps(doc))


class TestLoad:
    def test_student_corpus_shape(self, student_ds):
        assert student_ds.n == 649
        assert student_ds.X.shape[1] == 43
        s = student_ds.schema
        assert (len(s.control_idx), len(s.indirect_idx), len(s.treatment_idx)) == (34, 3, 6)
        # index sets partition the columns
        all_idx = sorted(s.control_idx + s.indirect_idx + s.treatment_idx)
        assert all_idx == list(range(43))
        assert 0.0 < student_ds.y.mean() < 1.0

    def test_single_row_identity(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1.5,2.5,0\n")
        ds = ci.load_dataset(csv, _basic_schema(tmp_path))
        assert ds.n == 1
        np.testing.assert_array_equal(ds.X, [[1.5, 2.5]])
        assert ds.y.tolist() == [0]

    def test_three_level_categorical_expands_to_indicators(self, tmp_path):
        csv = _write(tmp_path, "d.csv",
                     "a,t,y\nred,1,0\ngreen,2,1\nblue,3,0\nred,4,1\n")
        schema = _basic_schema(tmp_path, categorical=["a"])
        ds = ci.load_dataset(csv, schema)
        assert ds.X.shape == (4, 4)
        names = ds.schema.feature_names
        assert names[:3] == ("a=blue", "a=green", "a=red")
        np.testing.assert_array_equal(ds.X[:, :3].sum(axis=1), np.ones(4))

    def test_binary_categorical_single_indicator(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\nno,1,0\nyes,2,1\nno,3,0\n")
        ds = ci.load_dataset(csv, _basic_schema(tmp_path, categorical=["a"]))
        assert ds.schema.feature_names == ("a=yes", "t")
        np.testing.assert_array_equal(ds.X[:, 0], [0.0, 1.0, 0.0])

    def test_positive_label_values(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,1,C\n2,2,A\n3,3,F\n")
        schema = _basic_schema(tmp_path, positive_label_values=["C", "D", "F"])
        ds = ci.load_dataset(csv, schema)
        assert ds.y.tolist() == [1, 0, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ci.load_dataset(str(tmp_path / "nope.csv"), _basic_schema(tmp_path))

    def test_missing_schema(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n")
        with pytest.raises(FileNotFoundError, match="nope.json"):
            ci.load_dataset(csv, str(tmp_path / "nope.json"))

    def test_truncated_schema_names_file(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n")
        path = _basic_schema(tmp_path)
        text = pathlib.Path(path).read_text()
        _write(tmp_path, "schema.json", text[:text.index(",") + 1])
        with pytest.raises(ValueError) as err:
            ci.load_dataset(csv, path)
        assert str(err.value).startswith(f"{path}: Expecting property name")

    def test_schema_without_label_names_file(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n")
        path = _basic_schema(tmp_path)
        doc = json.loads(pathlib.Path(path).read_text())
        del doc["label"]
        _write(tmp_path, "schema.json", json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            ci.load_dataset(csv, path)
        assert str(err.value) == f"{path}: missing field 'label'"

    @pytest.mark.parametrize("key, value, kind", [
        ("label", 3, "a string"),
        ("control", 5, "a list of strings"),
        ("control", "a", "a list of strings"),
        ("indirect", [1], "a list of strings"),
        ("treatment", {"t": 1}, "a list of strings"),
        ("categorical", "a", "a list of strings"),
        ("positive_label_values", "C", "a list of strings or numbers"),
        ("positive_label_values", [True], "a list of strings or numbers"),
        ("cost_up", ["x"], "an object of numbers"),
        ("cost_down", {"t": "1"}, "an object of numbers"),
        ("lower", {"t": None}, "an object of numbers"),
        ("upper", 10, "an object of numbers")])
    def test_mistyped_schema_field_named(self, tmp_path, key, value, kind):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n")
        path = _basic_schema(tmp_path, **{key: value})
        with pytest.raises(SchemaError) as err:
            ci.load_dataset(csv, path)
        assert str(err.value) == (f"{path}: field {key!r} must be {kind}, "
                                  f"got {value!r}")

    def test_numeric_positive_label_values(self, tmp_path):
        # UCI's G3 grade is numeric; a number matches a cell by its value
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,7\n1,3,12\n")
        ds = ci.load_dataset(csv, _basic_schema(
            tmp_path, positive_label_values=[7, "8"]))
        assert ds.y.tolist() == [1, 0]

    @pytest.mark.parametrize("positive, labels", [
        ([7.0], [1, 0, 0, 1]),     # a float matches an integer cell
        ([12], [0, 1, 0, 0]),
        (["7"], [1, 0, 0, 0]),     # a string matches the cell's text only
        (["07", 12.0], [0, 1, 0, 1]),
        ([7, "x"], [1, 0, 0, 1])])
    def test_positive_label_numbers_match_by_value(self, tmp_path, positive,
                                                   labels):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,7\n1,3,12\n1,4,x7\n1,5,07\n")
        ds = ci.load_dataset(csv, _basic_schema(
            tmp_path, positive_label_values=positive))
        assert ds.y.tolist() == labels

    @pytest.mark.parametrize("positive", [[8], [7.5], ["7.0"]])
    def test_positive_label_values_matching_no_cell_named(self, tmp_path,
                                                          positive):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,7\n1,3,12\n")
        with pytest.raises(DataError) as err:
            ci.load_dataset(csv, _basic_schema(
                tmp_path, positive_label_values=positive))
        assert str(err.value) == (f"positive_label_values {positive!r} match "
                                  f"no cell of label column 'y'")

    @pytest.mark.parametrize("row, cells", [("1,2", 2), ("1,2,0,9", 4)])
    def test_row_width_differs_from_header(self, tmp_path, row, cells):
        # a short row would index past its end, a long one be truncated; the
        # blank line is skipped and does not count as a row
        csv = _write(tmp_path, "d.csv", f"a,t,y\n1,2,0\n\n{row}\n")
        with pytest.raises(DataError) as err:
            ci.load_dataset(csv, _basic_schema(tmp_path))
        assert str(err.value) == (f"row 1 of {csv} has {cells} cells, "
                                  f"the header 3")

    def test_schema_column_mismatch(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n")
        schema = _basic_schema(tmp_path, control=["a", "missing_col"])
        with pytest.raises(SchemaError, match="missing_col"):
            ci.load_dataset(csv, schema)

    @pytest.mark.parametrize("role", ["control", "indirect", "treatment"])
    def test_label_with_a_feature_role_named(self, tmp_path, role):
        # a classifier would otherwise train on its own label
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n1,3,1\n")
        roles = {"control": ["a"], "indirect": [], "treatment": ["t"]}
        roles[role] = roles[role] + ["y"]
        with pytest.raises(SchemaError) as err:
            ci.load_dataset(csv, _basic_schema(tmp_path, **roles))
        assert str(err.value) == f"label column 'y' also has the role {role!r}"

    @pytest.mark.parametrize("key, name", [
        ("cost_up", "tt"), ("cost_down", "tt"), ("lower", "tt"),
        ("upper", "tt"), ("cost_up", "a")])  # a control is no treatment
    def test_entry_for_no_treatment_named(self, tmp_path, key, name):
        # a misspelled treatment would silently keep the default for "t"
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n")
        path = _basic_schema(tmp_path, **{key: {"t": 1.0, name: 5.0}})
        with pytest.raises(SchemaError) as err:
            ci.load_dataset(csv, path)
        assert str(err.value) == (f"{path}: field {key!r} names {name!r}, "
                                  f"not a treatment")

    def test_unknown_field_named(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n")
        path = _basic_schema(tmp_path, costs_up={"t": 5.0})
        with pytest.raises(SchemaError) as err:
            ci.load_dataset(csv, path)
        assert str(err.value) == f"{path}: unknown field 'costs_up'"

    @pytest.mark.parametrize("header, name, first, second", [
        ("a,t,a,y", "a", 0, 2),   # a feature: both would read the third cell
        ("a,t,y,y", "y", 2, 3),   # the label
        ("a,t,y,z,z", "z", 3, 4)])  # a column the schema does not name
    def test_repeated_header_name_named(self, tmp_path, header, name, first,
                                        second):
        width = header.count(",") + 1
        row = ",".join(["1", "2", "0", "1", "1"][:width])
        csv = _write(tmp_path, "d.csv", f"{header}\n{row}\n")
        with pytest.raises(DataError) as err:
            ci.load_dataset(csv, _basic_schema(tmp_path))
        assert str(err.value) == (f"the header of {csv} repeats column "
                                  f"{name!r}, at positions {first} and "
                                  f"{second}")

    def test_non_numeric_cell(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,oops,0\n")
        with pytest.raises(DataError, match="non-numeric"):
            ci.load_dataset(csv, _basic_schema(tmp_path))

    def test_nan_treatment_cell(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n1,nan,1\n")
        with pytest.raises(DataError,
                           match="non-finite value 'nan' in numeric column "
                                 "'t', row 1"):
            ci.load_dataset(csv, _basic_schema(tmp_path))

    def test_inf_control_cell(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n3,4,1\n-inf,5,0\n")
        with pytest.raises(DataError,
                           match="non-finite value '-inf' in numeric column "
                                 "'a', row 2"):
            ci.load_dataset(csv, _basic_schema(tmp_path))

    def test_treatment_above_upper_bound(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,0\n1,12,1\n")
        with pytest.raises(DataError,
                           match=r"treatment value 12.0 in column 't', row 1 "
                                 r"outside its bounds \[0, 10\]"):
            ci.load_dataset(csv, _basic_schema(tmp_path))

    def test_label_outside_mapping(self, tmp_path):
        csv = _write(tmp_path, "d.csv", "a,t,y\n1,2,maybe\n")
        with pytest.raises(DataError, match="outside 0/1"):
            ci.load_dataset(csv, _basic_schema(tmp_path))


def test_write_corpus_reproduces_shipped_corpus(tmp_path):
    # data/ was written by write_corpus at its defaults, byte for byte
    for path in synth.write_corpus(str(tmp_path)):
        shipped = DATA / pathlib.Path(path).name
        assert pathlib.Path(path).read_bytes() == shipped.read_bytes()


class TestNormalize:
    def _ds(self, col):
        from tests.conftest import make_schema
        from causalinv.data import Dataset
        X = np.column_stack([np.asarray(col, dtype=float),
                             np.linspace(0, 1, len(col))])
        schema = make_schema(1, 0, 1, lower=[0.0], upper=[1.0])
        y = np.zeros(len(col), dtype=np.int64)
        y[0] = 1
        return Dataset(X=X, y=y, schema=schema)

    def test_minmax_by_definition(self):
        nds = ci.normalize(self._ds([0.0, 5.0, 10.0]))
        np.testing.assert_allclose(nds.X[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        nds = ci.normalize(self._ds([3.0, 3.0, 3.0]))
        np.testing.assert_array_equal(nds.X[:, 0], [0.0, 0.0, 0.0])

    def test_already_unit_column_unchanged(self):
        nds = ci.normalize(self._ds([0.0, 0.25, 1.0]))
        np.testing.assert_allclose(nds.X[:, 0], [0.0, 0.25, 1.0])

    def test_all_values_in_unit_interval(self, student_ds):
        assert student_ds.X.min() >= 0.0 and student_ds.X.max() <= 1.0

    def test_roundtrip_recovers_originals(self):
        rng = np.random.default_rng(5)
        from tests.conftest import make_schema
        from causalinv.data import Dataset, denormalize
        X = rng.normal(3.0, 17.0, (40, 4))
        ds = Dataset(X=X, y=rng.integers(0, 2, 40), schema=make_schema(2, 1, 1))
        back = denormalize(ci.normalize(ds))
        rel = np.abs(back - X) / np.maximum(np.abs(X), 1e-300)
        assert rel.max() < 1e-12

    def test_bounds_mapped_through_transform(self):
        ds = self._ds([2.0, 4.0, 6.0])  # treatment column is the linspace one
        nds = ci.normalize(ds)
        # treatment column spans [0, 1] already; declared bounds 0..1 unchanged
        np.testing.assert_allclose(nds.schema.lower, [0.0])
        np.testing.assert_allclose(nds.schema.upper, [1.0])


class TestSplit:
    def test_sizes_and_disjoint(self, student_ds):
        a, b = ci.split_half(student_ds, 7)
        assert (a.n, b.n) == (325, 324)
        ra = {tuple(row) for row in a.X}
        rb = {tuple(row) for row in b.X}
        assert not (ra & rb)

    def test_deterministic_and_pinned(self, student_ds):
        a1, _ = ci.split_half(student_ds, 7)
        a2, _ = ci.split_half(student_ds, 7)
        np.testing.assert_array_equal(a1.X, a2.X)
        # frozen regression fixture: leading row indices of the seed-7 split
        rng = np.random.default_rng(7)
        first = np.sort(rng.permutation(649)[:325])
        assert first[:12].tolist() == [0, 2, 3, 5, 6, 9, 10, 12, 13, 14, 18, 19]
        np.testing.assert_array_equal(a1.X, student_ds.X[first])

    def test_different_seeds_differ(self, student_ds):
        a7, _ = ci.split_half(student_ds, 7)
        a8, _ = ci.split_half(student_ds, 8)
        assert not np.array_equal(a7.X, a8.X)

    def test_too_small(self, small_ds):
        one = small_ds.take([0])
        with pytest.raises(ValueError):
            ci.split_half(one, 0)

    def test_halves_share_schema_and_norm(self, student_ds):
        a, b = ci.split_half(student_ds, 3)
        assert a.schema is student_ds.schema and b.schema is student_ds.schema
        assert a.norm_params is student_ds.norm_params

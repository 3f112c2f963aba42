"""Dataset ingestion, feature schema, normalization and the half split, plus
the package's one JSON reader and one JSON writer.

Columns are partitioned into three roles: controls (immutable covariates),
indirectly changeable features (estimated downstream of the others) and
treatments (the features a policy may change, each with asymmetric
per-direction costs and box bounds).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np


class SchemaError(ValueError):
    """Schema file is inconsistent with itself or with the data file."""


class DataError(ValueError):
    """Data file violates the declared schema."""


@dataclass(frozen=True)
class FeatureSchema:
    """Column roles plus per-treatment costs and bounds.

    Index sets refer to columns of the (one-hot expanded) feature matrix.
    ``cost_up``/``cost_down`` are the per-unit prices of increasing or
    decreasing each treatment; ``lower``/``upper`` are its box bounds.
    """

    control_idx: tuple
    indirect_idx: tuple
    treatment_idx: tuple
    cost_up: np.ndarray
    cost_down: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        c, i, t = set(self.control_idx), set(self.indirect_idx), set(self.treatment_idx)
        n_named = len(self.feature_names)
        if (c & i) or (c & t) or (i & t):
            raise SchemaError("control/indirect/treatment index sets overlap")
        if c | i | t != set(range(n_named)):
            raise SchemaError("index sets do not cover all %d columns" % n_named)
        k = len(self.treatment_idx)
        for name, arr in (("cost_up", self.cost_up), ("cost_down", self.cost_down),
                          ("lower", self.lower), ("upper", self.upper)):
            if len(arr) != k:
                raise SchemaError(f"{name} has length {len(arr)}, expected {k}")
        if np.any(self.cost_up < 0) or np.any(self.cost_down < 0):
            raise SchemaError("treatment costs must be nonnegative")
        if np.any(self.lower > self.upper):
            raise SchemaError("treatment lower bound exceeds upper bound")

    @property
    def n_features(self):
        return len(self.feature_names)

    @property
    def n_treatments(self):
        return len(self.treatment_idx)

    def treatment_names(self):
        return tuple(self.feature_names[j] for j in self.treatment_idx)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, binary labels and the schema describing the columns.

    ``norm_params`` holds the per-column (min, max) recorded when
    :func:`normalize` ran; ``None`` before normalization.
    """

    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema
    norm_params: np.ndarray | None = None

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] == 0:
            raise DataError("feature matrix must be 2-D with at least one row")
        if self.X.shape[1] != self.schema.n_features:
            raise DataError("feature matrix width does not match schema")
        if self.y.shape != (self.X.shape[0],):
            raise DataError("label vector length does not match row count")
        if not np.isin(self.y, (0, 1)).all():
            raise DataError("labels must be 0/1")

    @property
    def n(self):
        return self.X.shape[0]

    def controls(self):
        return self.X[:, list(self.schema.control_idx)]

    def indirects(self):
        return self.X[:, list(self.schema.indirect_idx)]

    def treatments(self):
        return self.X[:, list(self.schema.treatment_idx)]

    def take(self, rows):
        """Row subset sharing schema and normalization parameters."""
        rows = np.asarray(rows)
        return Dataset(self.X[rows], self.y[rows], self.schema, self.norm_params)


def read_json(path, decode, *args):
    """``decode(doc, *args)`` of the JSON document at ``path``.

    A document that does not parse or decode raises :class:`ValueError` (or
    the :class:`SchemaError` that ``decode`` raised) prefixed with ``path``;
    a missing key reads ``missing field 'key'``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return decode(json.load(fh), *args)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        why = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        cls = SchemaError if isinstance(exc, SchemaError) else ValueError
        raise cls(f"{path}: {why}") from exc


def write_json(doc, path) -> None:
    """Write ``doc`` to ``path``: UTF-8, sorted keys, one-space indent."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def _list_of(values, types) -> bool:
    """Whether ``values`` is a list of ``types``; a bool is not a number."""
    return isinstance(values, list) and all(
        isinstance(v, types) and not isinstance(v, bool) for v in values)


# each schema field's type: what the error message calls it, and its test
SCHEMA_TYPES = {
    "label": ("a string", lambda v: isinstance(v, str)),
    **{key: ("a list of strings", lambda v: _list_of(v, str))
       for key in ("control", "indirect", "treatment", "categorical")},
    "positive_label_values": ("a list of strings or numbers",
                              lambda v: _list_of(v, (str, int, float))),
    **{key: ("an object of numbers", lambda v: isinstance(v, dict)
             and _list_of(list(v.values()), (int, float)))
       for key in ("cost_up", "cost_down", "lower", "upper")},
}


def _schema_doc(doc):
    for key in ("label", "control", "indirect", "treatment"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    for key, (kind, ok) in SCHEMA_TYPES.items():
        if key in doc and not ok(doc[key]):
            raise SchemaError(f"field {key!r} must be {kind}, got {doc[key]!r}")
    return doc


def load_dataset(path, schema_path):
    """Read a CSV plus schema JSON into a :class:`Dataset`.

    Categorical columns are one-hot expanded in place: a two-level column
    becomes a single indicator for its (lexicographically) second level, a
    k-level column (k >= 3) becomes k indicators. Role assignments, costs and
    bounds carry over from the original column to its indicator(s). A
    non-numeric or non-finite numeric cell, and a treatment value outside its
    bounds, raise :class:`DataError` naming the value, column and row; so
    does a row with more or fewer cells than the header.
    """
    raw = read_json(schema_path, _schema_doc)
    label_col = raw["label"]
    positive = [str(v) for v in raw.get("positive_label_values", [])]
    categorical = list(raw.get("categorical", []))
    roles = {}
    for role in ("control", "indirect", "treatment"):
        for name in raw[role]:
            if name in roles:
                raise SchemaError(f"column {name!r} assigned to multiple roles")
            roles[name] = role

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"empty CSV: {path}")
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"no data rows in {path}")

    col_of = {name: j for j, name in enumerate(header)}
    if label_col not in col_of:
        raise SchemaError(f"label column {label_col!r} not in CSV header")
    for name in roles:
        if name not in col_of:
            raise SchemaError(f"schema column {name!r} not in CSV header")
    for name in categorical:
        if name not in roles:
            raise SchemaError(f"categorical column {name!r} has no role")

    n = len(rows)
    y = np.zeros(n, dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {i} of {path} has {len(row)} cells, "
                            f"the header {len(header)}")
        val = row[col_of[label_col]].strip()
        if positive:
            y[i] = 1 if val in positive else 0
        elif val in ("0", "1"):
            y[i] = int(val)
        else:
            raise DataError(f"label {val!r} in row {i} outside 0/1 mapping "
                            "and no positive_label_values given")

    # Expand columns in schema order (original column order, indicators in place).
    feature_cols = [name for name in header if name in roles]
    out_names, out_cols, out_roles = [], [], []
    exp_parent = {}  # expanded name -> original name
    for name in feature_cols:
        j = col_of[name]
        cells = [row[j].strip() for row in rows]
        if name in categorical:
            levels = sorted(set(cells))
            chosen = levels[1:] if len(levels) == 2 else levels
            for lv in chosen:
                col = np.fromiter((1.0 if c == lv else 0.0 for c in cells),
                                  dtype=np.float64, count=n)
                out_names.append(f"{name}={lv}")
                out_cols.append(col)
                out_roles.append(roles[name])
                exp_parent[f"{name}={lv}"] = name
        else:
            col = np.empty(n, dtype=np.float64)
            for i, c in enumerate(cells):
                try:
                    col[i] = float(c)
                except ValueError:
                    raise DataError(f"non-numeric value {c!r} in numeric column "
                                    f"{name!r}, row {i}")
            finite = np.isfinite(col)
            if not finite.all():
                i = int(np.argmin(finite))
                raise DataError(f"non-finite value {cells[i]!r} in numeric "
                                f"column {name!r}, row {i}")
            out_names.append(name)
            out_cols.append(col)
            out_roles.append(roles[name])
            exp_parent[name] = name

    X = np.column_stack(out_cols)
    control_idx = tuple(j for j, r in enumerate(out_roles) if r == "control")
    indirect_idx = tuple(j for j, r in enumerate(out_roles) if r == "indirect")
    treatment_idx = tuple(j for j, r in enumerate(out_roles) if r == "treatment")

    def _treat_param(key, default):
        table = raw.get(key, {})
        vals = []
        for j in treatment_idx:
            parent = exp_parent[out_names[j]]
            if parent in table:
                vals.append(float(table[parent]))
            elif default is None:
                raise SchemaError(f"schema key {key!r} missing entry for "
                                  f"treatment {parent!r}")
            else:
                vals.append(default)
        return np.asarray(vals, dtype=np.float64)

    schema = FeatureSchema(
        control_idx=control_idx,
        indirect_idx=indirect_idx,
        treatment_idx=treatment_idx,
        cost_up=_treat_param("cost_up", 1.0),
        cost_down=_treat_param("cost_down", 1.0),
        lower=_treat_param("lower", None) if raw.get("lower") else
              np.array([X[:, j].min() for j in treatment_idx]),
        upper=_treat_param("upper", None) if raw.get("upper") else
              np.array([X[:, j].max() for j in treatment_idx]),
        feature_names=tuple(out_names),
    )
    XT = X[:, list(treatment_idx)]
    outside = (XT < schema.lower) | (XT > schema.upper)
    if outside.any():
        i, k = (int(v) for v in np.argwhere(outside)[0])
        raise DataError(f"treatment value {float(XT[i, k])!r} in column "
                        f"{out_names[treatment_idx[k]]!r}, row {i} outside its "
                        f"bounds [{schema.lower[k]:g}, {schema.upper[k]:g}]")
    return Dataset(X=X, y=y, schema=schema)


def normalize(ds: Dataset) -> Dataset:
    """Min-max scale every column to [0, 1]; constant columns map to 0.

    Treatment bounds in the schema are mapped through the same per-column
    affine transform so that the feasible box stays aligned with the data.
    """
    lo = ds.X.min(axis=0)
    hi = ds.X.max(axis=0)
    span = hi - lo
    degenerate = span <= 0
    safe = np.where(degenerate, 1.0, span)
    X = (ds.X - lo) / safe
    X[:, degenerate] = 0.0
    t_idx = list(ds.schema.treatment_idx)
    t_lo, t_hi = lo[t_idx], safe[t_idx]
    t_deg = degenerate[t_idx]
    new_lower = np.where(t_deg, 0.0, (ds.schema.lower - t_lo) / t_hi)
    new_upper = np.where(t_deg, 0.0, (ds.schema.upper - t_lo) / t_hi)
    schema = replace(ds.schema, lower=new_lower, upper=new_upper)
    return Dataset(X=X, y=ds.y, schema=schema,
                   norm_params=np.column_stack([lo, hi]))


def denormalize(ds: Dataset) -> np.ndarray:
    """Invert :func:`normalize` using the recorded (min, max) per column."""
    if ds.norm_params is None:
        raise ValueError("dataset carries no normalization parameters")
    lo, hi = ds.norm_params[:, 0], ds.norm_params[:, 1]
    span = np.where(hi > lo, hi - lo, 0.0)
    return ds.X * span + lo


def split_half(ds: Dataset, seed: int):
    """Deterministic disjoint half split: sizes ceil(n/2) and floor(n/2)."""
    if ds.n < 2:
        raise ValueError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    cut = (ds.n + 1) // 2
    first = np.sort(perm[:cut])
    second = np.sort(perm[cut:])
    return ds.take(first), ds.take(second)

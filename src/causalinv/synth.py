"""Deterministic synthetic student-lifestyle corpus.

Mirrors the layout of the UCI student-performance (Portuguese) table: the same
30 raw columns, which expand to 43 features after binarization. Treatments are
generated from the control columns through smooth functions plus independent
noise, so the per-treatment assignment mechanism is exactly the structure the
GP propensity models assume; the grade depends on treatments, indirect
features and controls, with shared drivers (parental education, failures,
free time) supplying real selection bias.

The corpus shipped in ``data/`` was written by :func:`write_corpus` with the
default seed; the schema file is drop-in compatible with the real UCI CSV.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .data import write_json

DEFAULT_SEED = 20250604
DEFAULT_N = 649

HEADER = ["school", "sex", "age", "address", "famsize", "Pstatus", "Medu",
          "Fedu", "Mjob", "Fjob", "reason", "guardian", "traveltime",
          "studytime", "failures", "schoolsup", "famsup", "paid", "activities",
          "nursery", "higher", "internet", "romantic", "famrel", "freetime",
          "goout", "Dalc", "Walc", "health", "absences", "grade"]

MJOB_LEVELS = ["at_home", "health", "other", "services", "teacher"]
REASON_LEVELS = ["course", "home", "other", "reputation"]
GUARDIAN_LEVELS = ["father", "mother", "other"]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _bern(rng, p):
    return (rng.random(p.shape) < p).astype(np.int64)


def _cat(rng, logits, levels):
    """Sample one level per row from row-wise softmax logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    u = rng.random((logits.shape[0], 1))
    idx = (u > cum).sum(axis=1)
    return np.asarray(levels)[idx]


def _ordinal(rng, center, sd, lo, hi):
    return np.clip(np.round(center + rng.normal(0.0, sd, center.shape)), lo, hi)


def generate_rows(n: int = DEFAULT_N, seed: int = DEFAULT_SEED):
    """Generate the corpus; returns (header, rows of strings)."""
    rng = np.random.default_rng(seed)

    # latent traits, visible only through the controls they shape
    ses = rng.normal(0.0, 1.0, n)
    disc = 0.45 * ses + rng.normal(0.0, 1.0, n)
    soc = rng.normal(0.0, 1.0, n)

    school_gp = _bern(rng, _sigmoid(0.6 + 0.35 * ses))
    sex_m = _bern(rng, np.full(n, 0.43))
    age = _ordinal(rng, 16.8 - 0.25 * disc, 1.1, 15, 22)
    address_u = _bern(rng, _sigmoid(0.55 + 0.5 * ses))
    famsize_gt3 = _bern(rng, np.full(n, 0.7))
    pstatus_t = _bern(rng, _sigmoid(2.0 + 0.2 * ses))
    medu = _ordinal(rng, 2.1 + 0.85 * ses, 0.8, 0, 4)
    fedu = _ordinal(rng, 1.9 + 0.8 * ses, 0.85, 0, 4)

    mjob = _cat(rng, np.column_stack([
        0.6 - 0.55 * medu, 0.35 * medu - 1.1, np.full(n, 0.8),
        np.full(n, 0.4), 0.5 * medu - 1.6]), MJOB_LEVELS)
    fjob = _cat(rng, np.column_stack([
        -0.8 - 0.3 * fedu, 0.3 * fedu - 1.3, np.full(n, 1.0),
        np.full(n, 0.6), 0.45 * fedu - 1.7]), MJOB_LEVELS)
    reason = _cat(rng, np.column_stack([
        np.full(n, 0.5), np.full(n, 0.0), np.full(n, -0.4),
        0.25 * ses]), REASON_LEVELS)
    guardian = _cat(rng, np.column_stack([
        np.full(n, -0.3), np.full(n, 0.9), -1.8 + 0.2 * age - 3.2]),
        GUARDIAN_LEVELS)

    traveltime = _ordinal(rng, 1.6 - 0.25 * ses + 0.45 * (1 - address_u), 0.6, 1, 4)
    failures = np.clip(rng.poisson(np.exp(-1.7 - 0.55 * disc - 0.2 * ses)), 0, 3)
    schoolsup = _bern(rng, _sigmoid(-1.4 - 0.3 * ses + 0.6 * (failures > 0)))
    famsup = _bern(rng, _sigmoid(0.3 + 0.3 * ses))
    activities = _bern(rng, _sigmoid(0.0 + 0.45 * soc))
    nursery = _bern(rng, _sigmoid(1.0 + 0.35 * ses))
    internet = _bern(rng, _sigmoid(1.1 + 0.7 * ses - 0.5 * (1 - address_u)))
    romantic = _bern(rng, _sigmoid(-0.7 + 0.22 * (age - 17) + 0.25 * soc))
    freetime = _ordinal(rng, 3.0 + 0.75 * soc - 0.3 * disc, 0.7, 1, 5)

    edu = 0.5 * (medu + fedu)

    # treatments: smooth functions of the controls plus independent noise
    studytime = _ordinal(rng,
                         1.05 + 0.5 * edu - 0.6 * failures + 0.35 * famsup
                         + 0.25 * nursery - 0.12 * traveltime
                         - 0.2 * (freetime - 3.0),
                         0.45, 1, 4)
    goout = _ordinal(rng,
                     2.5 + 0.7 * (freetime - 3.0) + 0.5 * romantic
                     + 0.35 * internet + 0.25 * address_u + 0.35 * activities,
                     0.55, 1, 5)
    dalc = _ordinal(rng,
                    1.0 + 0.15 * (age - 16.0) + 0.5 * sex_m
                    + 0.55 * failures - 0.08 * edu + 0.2 * (freetime - 3.0),
                    0.6, 1, 5)
    walc = _ordinal(rng,
                    1.7 + 0.7 * sex_m + 0.6 * (freetime - 3.0)
                    + 0.15 * (age - 16.0) + 0.3 * address_u - 0.12 * edu,
                    0.65, 1, 5)
    paid = _bern(rng, _sigmoid(-1.2 + 0.55 * edu + 0.6 * internet
                               + 0.4 * nursery - 0.5 * failures))
    log_abs = rng.normal(
        1.0 + 0.2 * (age - 16.0) + 0.5 * romantic + 0.45 * (1 - pstatus_t)
        - 0.18 * edu + 0.4 * failures, 0.65)
    absences = np.clip(np.round(np.exp(log_abs) - 1.0), 0, 32)

    # indirectly changeable features: downstream of controls and treatments,
    # the cascade channel the indirect estimator is there to capture
    higher = _bern(rng, _sigmoid(0.1 + 0.5 * edu + 1.2 * (studytime - 2.0)
                                 - 0.7 * failures - 0.5 * (dalc - 1.0)
                                 - 0.15 * (goout - 3.0) + 0.3 * school_gp))
    famrel = _ordinal(rng,
                      3.6 + 0.3 * famsup - 0.35 * (1 - pstatus_t)
                      - 0.5 * (walc - 2.0) - 0.3 * (goout - 3.0)
                      - 0.3 * (dalc - 1.0),
                      0.7, 1, 5)
    health = _ordinal(rng,
                      3.7 - 0.55 * (dalc - 1.0) - 0.4 * (walc - 2.0)
                      + 0.22 * activities - 0.04 * absences,
                      0.8, 1, 5)

    # grade on the 0-20 scale; C or worse (<= 13) is the undesirable class
    score = (10.4
             + 0.75 * (studytime - 2.0)
             + 0.5 * edu
             - 0.85 * failures
             - 0.45 * (dalc - 1.0)
             - 0.3 * (walc - 1.0)
             - 0.05 * absences
             + 0.9 * paid
             + 1.5 * higher
             + 0.45 * (famrel - 3.0)
             + 0.45 * (health - 3.0)
             - 0.45 * np.maximum(goout - 3.0, 0.0)
             + 0.12 * np.minimum(goout, 3.0)
             + 0.4 * school_gp
             + 0.3 * internet
             + 0.2 * address_u
             - 0.12 * traveltime
             + rng.normal(0.0, 1.4, n))
    grade20 = np.clip(np.round(score), 0, 20)
    letter = np.where(grade20 >= 16, "A",
              np.where(grade20 >= 14, "B",
               np.where(grade20 >= 12, "C",
                np.where(grade20 >= 10, "D", "F"))))

    def yn(v):
        return np.where(v == 1, "yes", "no")

    cols = {
        "school": np.where(school_gp == 1, "GP", "MS"),
        "sex": np.where(sex_m == 1, "M", "F"),
        "age": age.astype(np.int64),
        "address": np.where(address_u == 1, "U", "R"),
        "famsize": np.where(famsize_gt3 == 1, "GT3", "LE3"),
        "Pstatus": np.where(pstatus_t == 1, "T", "A"),
        "Medu": medu.astype(np.int64),
        "Fedu": fedu.astype(np.int64),
        "Mjob": mjob,
        "Fjob": fjob,
        "reason": reason,
        "guardian": guardian,
        "traveltime": traveltime.astype(np.int64),
        "studytime": studytime.astype(np.int64),
        "failures": failures.astype(np.int64),
        "schoolsup": yn(schoolsup),
        "famsup": yn(famsup),
        "paid": yn(paid),
        "activities": yn(activities),
        "nursery": yn(nursery),
        "higher": yn(higher),
        "internet": yn(internet),
        "romantic": yn(romantic),
        "famrel": famrel.astype(np.int64),
        "freetime": freetime.astype(np.int64),
        "goout": goout.astype(np.int64),
        "Dalc": dalc.astype(np.int64),
        "Walc": walc.astype(np.int64),
        "health": health.astype(np.int64),
        "absences": absences.astype(np.int64),
        "grade": letter,
    }
    rows = [[str(cols[name][i]) for name in HEADER] for i in range(n)]
    return list(HEADER), rows


def corpus_schema() -> dict:
    """Schema document for the corpus (and for the real UCI layout)."""
    return {
        "label": "grade",
        "positive_label_values": ["C", "D", "F"],
        "control": ["school", "sex", "age", "address", "famsize", "Pstatus",
                    "Medu", "Fedu", "Mjob", "Fjob", "reason", "guardian",
                    "traveltime", "failures", "schoolsup", "famsup",
                    "activities", "nursery", "internet", "romantic",
                    "freetime"],
        "indirect": ["higher", "famrel", "health"],
        "treatment": ["studytime", "goout", "Dalc", "Walc", "paid", "absences"],
        "categorical": ["school", "sex", "address", "famsize", "Pstatus",
                        "Mjob", "Fjob", "reason", "guardian", "schoolsup",
                        "famsup", "paid", "activities", "nursery", "higher",
                        "internet", "romantic"],
        "cost_up": {"studytime": 3.0, "goout": 1.0, "Dalc": 4.0, "Walc": 3.0,
                    "paid": 2.0, "absences": 2.5},
        "cost_down": {"studytime": 0.5, "goout": 1.5, "Dalc": 1.2, "Walc": 1.0,
                      "paid": 0.5, "absences": 2.0},
        "lower": {"studytime": 1, "goout": 1, "Dalc": 1, "Walc": 1,
                  "paid": 0, "absences": 0},
        "upper": {"studytime": 4, "goout": 5, "Dalc": 5, "Walc": 5,
                  "paid": 1, "absences": 32},
    }


def write_corpus(out_dir, n: int = DEFAULT_N, seed: int = DEFAULT_SEED):
    """Write students.csv and students_schema.json; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    header, rows = generate_rows(n=n, seed=seed)
    csv_path = os.path.join(out_dir, "students.csv")
    schema_path = os.path.join(out_dir, "students_schema.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    write_json(corpus_schema(), schema_path)
    return csv_path, schema_path

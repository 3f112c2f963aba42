"""Checks on the checked-in benchmark records (``BENCH_*.json``).

Each record holds the result lines of ``perfbench/run.py`` for a parent commit
and a change. A record is only evidence if every run it holds checked its
outputs, failed nothing, and reports exactly the metrics ``BENCHMARK.json``
declares for its trace mode, and if its summary states what those runs say.
"""

import glob
import json
import os

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_record_is_complete_and_correct(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("parent", "command", "method"):
        assert doc.get(key), f"{key!r} missing"
    declared = _declared_metrics()
    assert doc["runs"]
    for run in doc["runs"]:
        where = (f"{run['workload']} seed {run['seed']} trace {run['trace']} "
                 f"pair {run['pair']} {run['side']}")
        result = run["result"]
        assert result["correct"] is True, where
        assert result["failed"] == 0, where
        assert set(result["metrics"]) == declared[run["trace"]], where


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_summary_matches_runs(path):
    # each summary median and n, recomputed from the untraced runs of its
    # workload, seed and side
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    values = {}
    for run in doc["runs"]:
        if run["trace"] == 0:
            group = f"{run['workload']} seed {run['seed']}"
            for name, metric in run["result"]["metrics"].items():
                values.setdefault((group, name, run["side"]), []).append(
                    metric["value"])
    assert {key[0] for key in values} == set(doc["summary"])
    for group, metrics in doc["summary"].items():
        for name, sides in metrics.items():
            for side in ("parent", "change"):
                runs = values[(group, name, side)]
                where = f"{group} {name} {side}"
                assert sides[side]["n"] == len(runs), where
                assert sides[side]["median"] == float(np.median(runs)), where

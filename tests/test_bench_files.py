"""Checks on the checked-in benchmark records (``BENCH_*.json``).

Each record holds the result lines of ``perfbench/run.py`` for a parent commit
and a change. A record is only evidence if every run it holds checked its
outputs, failed nothing, and reports exactly the metrics ``BENCHMARK.json``
declares for its trace mode.
"""

import glob
import json
import os

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

"""Every committed ``BENCH_*.json`` at the repository root records a paired before/after run.

A record holds the machine it ran on and, for each workload and each
end-to-end metric that ``BENCHMARK.json`` declares, the parent's and the
change's median.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_layout(path):
    record = json.loads(path.read_text())
    assert record["machine"]["environment"]["nproc"] >= 1
    assert record["machine"]["note"]
    workloads, metrics = declared()
    for workload in workloads:
        for metric in metrics:
            entry = record["end_to_end"][workload][metric]
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert isinstance(median, float) and math.isfinite(median) and median > 0, (workload, metric, side)

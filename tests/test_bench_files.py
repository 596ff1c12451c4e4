"""The committed benchmark results at the repository root (`BENCH_*.json`).

Each file holds the last two lines of one or more `perfbench/run.py` runs:
a stamp, then the result.  A file is named `BENCH_<workload>_<side>.json`
for timed runs and `BENCH_<workload>_trace_<side>.json` for traced ones,
and a roadmap figure that cites one should be able to trust that it holds
correct runs of that workload, with the metrics `BENCHMARK.json` declares.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_result_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_result_file(path):
    name = re.fullmatch(r"BENCH_([a-z]+)(_trace)?_[a-z]+\.json", path.name)
    assert name, path.name
    workload, trace = name[1], int(bool(name[2]))
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}
    metrics = [m["name"]
               for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    lines = [json.loads(line) for line in
             path.read_text(encoding="utf-8").splitlines()]
    assert lines and len(lines) % 2 == 0
    for stamp, result in zip(lines[::2], lines[1::2]):
        assert list(stamp) == ["stamp"]
        assert (stamp["stamp"]["workload"], stamp["stamp"]["trace"]) == (
            workload, trace)
        assert result["correct"] is True
        assert list(result["metrics"]) == metrics

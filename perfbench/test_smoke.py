"""Smoke test of the benchmark harness at its smallest size (one pass).

    python -m pytest perfbench/test_smoke.py

Runs every workload through run.py, untraced and traced, and asserts the
output contract: the last line is the result object, every metric named in
BENCHMARK.json is emitted with its unit, every op that ran had its check
executed, and failures are only the registered known defects. Takes about two
minutes; it is not part of the repository's tier-1 suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench" / "runs" / f"{workload}-seed0-trace{trace}.json").read_text())
    return result, record["record"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_and_check(workload, trace):
    result, record = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["unexplained_failures"]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)), spec["name"]
    for kind, counts in record["op_counts"].items():
        assert counts["unchecked"] == 0, f"{kind}: an op ran without its check"
    if not trace:
        for spec in BENCH["end_to_end"]:
            assert result["metrics"][spec["name"]]["value"] > 0, spec["name"]
    if workload == "transport":
        assert result["failed"] == 0
    if workload == "general_potential":
        assert set(record["known_defects"]) == {
            "build_nonconvergence", "tabulated_veff_gap", "twin_drift"}


def test_empty_checkout_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "transport",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests

They run every workload and every check, and show that the oracle's checks
catch a flipped line vote, a moved trace sample, a dropped netlist device
and an array built at another line/device point.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, work_dir: Path, workload: str, trace: int, seed: int = 5):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "smoke",
           "--work-dir", str(work_dir)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(tmp_path, workload, trace):
    proc = run_bench(ROOT, tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = [m["name"] for m in CONTRACT["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, tmp_path / "work", "pipeline_sbs", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def checked_run(tmp_path_factory):
    """Outputs of one smoke pipeline_sbs round and the check that passed on them."""
    work = tmp_path_factory.mktemp("bench")
    proc = run_bench(ROOT, work, "pipeline_sbs", 0)
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((work / "pipeline_sbs" / "spec.json").read_text())
    out_dir = Path(spec["out_dir"])
    check = spec["steps"][0]["check"]
    assert oracle.check_outputs(out_dir, check)[0] == []
    return out_dir, check


@pytest.fixture()
def outputs(checked_run, tmp_path):
    out_dir, check = checked_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    return copy, check


def test_flipped_vote_fails(outputs):
    out, check = outputs
    path = out / "digit_records.json"
    doc = json.loads(path.read_text())
    doc["digits"][0]["votes"][7] *= -1
    path.write_text(json.dumps(doc))
    fails, _ = oracle.check_outputs(out, check)
    assert any("line votes != oracle" in f for f in fails)


def _move_trace_sample(out: Path, which: str):
    """Move one sample of the first trace that leaves vdd/2."""
    path = out / "traces.csv"
    lines = path.read_text().splitlines(keepends=True)
    traces = oracle.read_traces(path)
    vdd = 3.0
    digit, pair = next(k for k, (_, v) in traces.items() if v[-1] != vdd / 2)
    rows = [i for i, line in enumerate(lines)
            if line.startswith(f"{digit},{pair},")]
    j = rows[0] if which == "first" else rows[len(rows) // 2]
    d, p, t, v = lines[j].rstrip("\n").split(",")
    moved = 1.4 if which == "first" else vdd - float(v)
    lines[j] = f"{d},{p},{t},{moved:.6f}\n"
    path.write_text("".join(lines))


def test_moved_middle_trace_sample_fails(outputs):
    out, check = outputs
    _move_trace_sample(out, "middle")
    fails, _ = oracle.check_outputs(out, check)
    assert any("not monotone" in f for f in fails)


def test_moved_first_trace_sample_fails(outputs):
    out, check = outputs
    _move_trace_sample(out, "first")
    fails, _ = oracle.check_outputs(out, check)
    assert any("not vdd/2" in f for f in fails)


def test_dropped_netlist_device_fails(outputs):
    out, check = outputs
    path = out / "netlist.txt"
    lines = path.read_text().splitlines(keepends=True)
    first_device = next(i for i, line in enumerate(lines) if line.startswith("D"))
    path.write_text("".join(lines[:first_device] + lines[first_device + 1:]))
    fails, _ = oracle.check_outputs(out, check)
    assert any("netlist.txt" in f for f in fails)


@pytest.mark.parametrize("section, key", [("line", "c_line"), ("line", "dt"),
                                          ("device", "v_dsat"), ("device", "i_on")])
def test_netlist_at_another_point_fails(outputs, section, key):
    out, check = outputs
    path = out / "netlist.txt"
    lines = path.read_text().splitlines(keepends=True)
    j = next(i for i, line in enumerate(lines) if line.startswith(f"* {section} "))
    doc = json.loads(lines[j].split(None, 2)[2])
    doc[key] *= 2
    lines[j] = f"* {section} {json.dumps(doc)}\n"
    path.write_text("".join(lines))
    fails, _ = oracle.check_outputs(out, check)
    assert any(f"netlist.txt {section} {key}" in f for f in fails)


def test_oracle_zero_margin_votes_plus_one_and_ties_go_to_smaller_digit():
    pairs = [(a, b) for a in range(10) for b in range(a + 1, 10)]
    model = {"classifiers": [{"pair": list(p), "feature_indices": [0, 1],
                              "weights": [1.0, -1.0]} for p in pairs]}
    _, L = oracle.quantize(model)
    margins = oracle.levels(np.array([[0.5, 0.5, 0.0]])) @ L[:3]
    assert np.all(margins == 0)
    # All +1 except 2 over 0: digits 0, 1 and 2 tie on 8 votes.
    votes = np.where(margins >= 0, 1, -1)
    votes[0, pairs.index((0, 2))] = -1
    tallies, preds = oracle.tally(pairs, votes)
    assert tallies[0, :3].tolist() == [8, 8, 8] and tallies.sum() == 45
    assert preds.tolist() == [0]

"""Benchmark of the senseline pipeline on a seeded synthetic corpus.

    python3 perfbench/run.py --workload {pipeline_sbs,array_trace,line_sweep}
        --seed N --seconds S --trace {0,1} [--size {full,smoke}] [--work-dir DIR]

Run from the root of a source checkout. Each launch of the program is a
fresh single-threaded interpreter (perfbench/child.py) so set-up time,
peak memory and the BLAS pool are those of one program start. A run makes
one untimed warm-up launch, then whole rounds of the workload until S
seconds have passed. Every round's outputs are checked
against the numpy oracle in perfbench/oracle.py.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (medians over the run); with --trace 1 it has the
per-layer metrics of the traced rounds, which alternate with untraced
rounds so that bench.trace_overhead_s compares like with like.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SYNTH = ROOT / "tests"

sys.path.insert(0, str(HERE))
from workloads import SIZES, WORKLOADS, build_spec  # noqa: E402

# One thread for every pool the program may use (OpenBLAS, OpenMP, MKL).
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
RUN_LIMIT_S = 150.0    # no round starts after this many seconds of a run
KILL_AFTER_S = 175.0   # a launch still running then is killed; a run must end within 180 s

# Metric names and units come from the benchmark's contract file.
_CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"] + _CONTRACT["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def make_corpus(work: Path, size: dict, seed: int):
    """Render the seeded corpus; write gzip IDX pairs and the oracle's raw test set."""
    sys.path.insert(0, str(SYNTH))
    import synth

    n_pool = size["train"] + size["val"]
    images, labels = synth.make_corpus(n_pool + size["test"], seed=seed)
    work.mkdir(parents=True, exist_ok=True)
    tr_img, tr_lab = synth.write_idx_pair(work, images[:n_pool], labels[:n_pool], "train",
                                          compress=True)
    te_img, te_lab = synth.write_idx_pair(work, images[n_pool:], labels[n_pool:], "t10k",
                                          compress=True)
    test_npz = work / "oracle_test.npz"
    np.savez(test_npz, images=images[n_pool:], labels=labels[n_pool:])
    data = {"train_images": tr_img, "train_labels": tr_lab,
            "test_images": te_img, "test_labels": te_lab}
    return data, str(test_npz)


class Launcher:
    """Starts child.py launches one at a time and waits for each to end."""

    def __init__(self, work: Path, spec_path: Path, out_dir: Path, deadline: float):
        self.work, self.spec_path, self.out_dir, self.deadline = work, spec_path, out_dir, deadline
        self.env = dict(os.environ, **THREAD_ENV)
        self.log = work / "child.log"
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def __call__(self, mode: str, trace: int = 0) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        with open(self.log, "a") as log:
            t_launch = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(self.spec_path),
                     "--src", str(SRC), "--mode", mode, "--trace", str(trace),
                     "--t-launch", repr(t_launch), "--result", str(result_path)],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
                    timeout=timeout)
            except subprocess.TimeoutExpired as e:
                raise BenchError(f"{mode} launch exceeded the run time limit") from e
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{mode} launch exited {proc.returncode}; see {self.log}")
        res = json.loads(result_path.read_text())
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors += res["errors"]
        return res


def _figures(rounds: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end quality figures of a round (line_sweep: mean over points)."""
    problems = []
    per_round = []
    for r in rounds:
        points = [f for f in r["figures"] if f is not None]
        if len(points) != len(r["figures"]):
            problems.append("a step's outputs could not be checked")
            continue
        per_round.append({k: statistics.fmean(p[k] for p in points) for k in points[0]})
    if any(f != per_round[0] for f in per_round[1:]):
        problems.append("quality figures differ between rounds of the same inputs")
    return (per_round[0] if per_round else {}), problems


def run(args) -> dict:
    if not (SRC / "senseline").is_dir() or not (SYNTH / "synth.py").is_file():
        raise BenchError(f"run from a senseline source checkout: {SRC / 'senseline'} "
                         f"or {SYNTH / 'synth.py'} is missing")
    size = SIZES[args.size]
    work = Path(args.work_dir).resolve() / args.workload
    shutil.rmtree(work, ignore_errors=True)
    t_start = time.monotonic()
    data, test_npz = make_corpus(work / "corpus", size, args.seed)
    out_dir = work / "out"
    spec = build_spec(args.workload, args.size, args.seed, data, test_npz, str(out_dir))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    launch = Launcher(work, spec_path, out_dir, t_start + KILL_AFTER_S)
    launch("setup")          # untimed: compiles bytecode, fills the page cache
    untraced, traced = [], []
    t_measure = time.monotonic()
    while True:
        r = launch("round")
        untraced.append(r)
        print(f"[{args.workload}] round {len(untraced)}: wall {r['wall_s']:.3f} s, "
              f"setup {r['setup_s']:.3f} s", file=sys.stderr)
        if args.trace:
            traced.append(launch("round", trace=1))
        elapsed = time.monotonic() - t_measure
        if elapsed >= args.seconds or time.monotonic() - t_start >= RUN_LIMIT_S:
            break

    rounds = untraced + traced
    figures, problems = _figures(rounds)
    problems += [f for r in rounds for f in r["check_failures"]]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for e in launch.errors[:20]:
        print(f"FAILED: {e}", file=sys.stderr)
    if figures:
        print(f"[{args.workload}] float accuracy {figures['float_accuracy']:.4f}, "
              f"analog {figures['test_accuracy']:.4f}", file=sys.stderr)

    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["bench.trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                            - statistics.median(r["wall_s"] for r in untraced))
        values = layers
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "test_accuracy": figures.get("test_accuracy"),
            "energy_per_decision_j": figures.get("energy_per_decision_j"),
            "device_count": figures.get("device_count"),
        }
    return {"correct": not problems,
            "attempted": launch.attempted, "failed": launch.failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--work-dir", default=str(HERE / "out"))
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark launch in a fresh interpreter: set up, run the timed steps, check.

    python3 perfbench/child.py SPEC.json --src DIR --mode {setup,round}
        --trace {0,1} --t-launch T --result OUT.json

T is the parent's time.monotonic() just before it started this process;
CLOCK_MONOTONIC is system-wide, so setup_s = (end of set-up) - T covers
interpreter start, imports and config parse, plus the workload's set-up
stages. In `setup` mode the process stops there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


# What a step's stages write. They are removed before each step, so a stage
# that writes nothing cannot leave the previous step's file to be checked.
STEP_ARTIFACTS = ("system.json", "netlist.txt", "votes.csv", "traces.csv",
                  "digit_records.json", "metrics_*.json", "confusion_*.csv")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux. Worker processes the program starts and
    # reaps show up under RUSAGE_CHILDREN (the largest of them).
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("--src", required=True)
    ap.add_argument("--mode", choices=("setup", "round"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-launch", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    with open(args.spec) as f:
        spec = json.load(f)
    out_dir = Path(spec["out_dir"])

    sys.path.insert(0, args.src)
    from senseline import cli
    from senseline.config import config_from_dict

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer().install()

    attempted = failed = 0
    errors: list[str] = []

    def call(stage: str, cfg) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            rc = getattr(cli, f"cmd_{stage}")(cfg)
        except Exception as e:  # one failed CLI stage call; the run goes on
            rc = f"{type(e).__name__}: {e}"
        if rc != 0:
            failed += 1
            errors.append(f"{stage}: {rc}")

    setup = [(stage, config_from_dict(doc)) for stage, doc in spec["setup"]]
    steps = [[(stage, config_from_dict(doc)) for stage, doc in step["calls"]]
             for step in spec["steps"]]
    for stage, cfg in setup:
        call(stage, cfg)
    result = {"setup_s": time.monotonic() - args.t_launch}

    if args.mode == "round":
        import oracle

        wall = 0.0
        fails: list[str] = []
        figures = []
        for calls, step in zip(steps, spec["steps"]):
            for pattern in STEP_ARTIFACTS:
                for path in out_dir.glob(pattern):
                    path.unlink()
            t0 = time.perf_counter()
            for stage, cfg in calls:
                call(stage, cfg)
            wall += time.perf_counter() - t0
            try:
                step_fails, step_figures = oracle.check_outputs(out_dir, step["check"])
            except (OSError, KeyError, ValueError) as e:
                step_fails, step_figures = [f"outputs unreadable: {type(e).__name__}: {e}"], None
            fails += step_fails
            figures.append(step_figures)
        result.update(wall_s=wall, peak_rss_mb=_peak_rss_mb(), check_failures=fails,
                      figures=figures)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(_dir_bytes(out_dir))

    result.update(attempted=attempted, failed=failed, errors=errors)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

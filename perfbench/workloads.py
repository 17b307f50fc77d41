"""Workload definitions: corpus sizes, program configs and sweep points.

Every workload runs on the deterministic synthetic corpus rendered by
tests/synth.py from the workload seed, so no dataset download is needed.
"""

from __future__ import annotations

WORKLOADS = ("pipeline_sbs", "array_trace", "line_sweep")

# (c_line, dt, v_dsat, i_on) for line_sweep. Every point keeps
# 64 * dt * i_on / (c_line * v_dsat) < 1, so the worst-case explicit-Euler
# factor 1 - dt * (sum G_p + sum G_n) / (c_line * v_dsat) stays inside (0, 1]
# for any 64-feature array, whatever the seed trains; and every point keeps
# t_classify / dt >= 10.
SWEEP_POINTS = (
    (10e-15, 10e-12, 0.20, 2.0e-6),   # the default line and device
    (20e-15, 10e-12, 0.20, 2.0e-6),   # twice the line capacitance
    (10e-15, 5e-12, 0.20, 2.0e-6),    # half the step: 400 Euler steps
    (10e-15, 10e-12, 0.30, 2.0e-6),   # later saturation knee
    (10e-15, 10e-12, 0.20, 1.0e-6),   # half the on-current
    (10e-15, 10e-12, 0.20, 3.0e-6),   # 1.5x on-current: factor >= 0.04
    (15e-15, 4e-12, 0.25, 1.5e-6),    # all four moved: 500 Euler steps
)

# Corpus split and training budgets. "full" is what BENCHMARK.json runs;
# "smoke" runs every workload and every check in seconds, for the
# benchmark's own tests.
SIZES = {
    "full": {
        "train": 2000, "val": 1000, "test": 3000,
        "max_epochs": 150,
        "sbs": {"candidate_epochs": 8, "full_epochs": 60, "candidate_rows": 200,
                "max_features": 12},
        "trace_digits": {"pipeline_sbs": 2, "array_trace": 2},
        "points": SWEEP_POINTS,
    },
    "smoke": {
        "train": 300, "val": 100, "test": 100,
        "max_epochs": 30,
        "sbs": {"candidate_epochs": 3, "full_epochs": 10, "candidate_rows": 100,
                "max_features": 12},
        "trace_digits": {"pipeline_sbs": 1, "array_trace": 1},
        "points": SWEEP_POINTS[:2],
    },
}

T_CLASSIFY = 2e-9
VDD = 3.0


def _config(size: dict, data: dict, out_dir: str, seed: int, *, sbs: bool, mode: str,
            trace_digits: int, point=None) -> dict:
    c_line, dt, v_dsat, i_on = point or SWEEP_POINTS[0]
    return {
        "data": data,
        "split": {"train_count": size["train"], "val_count": size["val"],
                  "test_count": size["test"]},
        "hyper": {"max_epochs": size["max_epochs"]},
        "sbs": dict(size["sbs"], enabled=sbs),
        "device": {"i_on": i_on, "v_dsat": v_dsat},
        "line": {"c_line": c_line, "dt": dt, "t_classify": T_CLASSIFY},
        "evaluate": {"mode": mode, "subset": None, "trace_digits": trace_digits},
        "out_dir": out_dir,
        "seed": seed,
    }


def _check(model_file: str, test_npz: str, trace_digits: int, modes, point=None) -> dict:
    c_line, dt, v_dsat, i_on = point or SWEEP_POINTS[0]
    return {"model_file": model_file, "test_npz": test_npz, "trace_digits": trace_digits,
            "modes": list(modes), "vdd": VDD, "c_line": c_line, "dt": dt,
            "t_classify": T_CLASSIFY, "v_dsat": v_dsat, "i_on": i_on}


def build_spec(workload: str, size_name: str, seed: int, data: dict, test_npz: str,
               out_dir: str) -> dict:
    """The child's instructions for one workload: program configs and checks.

    `setup` lists configs run as CLI stages before the timed region; each
    `step` is one timed group of CLI stage calls followed by its checks.
    """
    size = SIZES[size_name]
    if workload in ("pipeline_sbs", "array_trace"):
        sbs = workload == "pipeline_sbs"
        n_trace = size["trace_digits"][workload]
        cfg = _config(size, data, out_dir, seed, sbs=sbs, mode="analog", trace_digits=n_trace)
        model = "model_sbs.json" if sbs else "model.json"
        return {"workload": workload, "out_dir": out_dir, "setup": [],
                "steps": [{"calls": [["run_all", cfg]],
                           "check": _check(model, test_npz, n_trace, ["analog"])}]}
    if workload == "line_sweep":
        base = _config(size, data, out_dir, seed, sbs=False, mode="analog", trace_digits=0)
        steps = []
        for point in size["points"]:
            analog = _config(size, data, out_dir, seed, sbs=False, mode="analog",
                             trace_digits=0, point=point)
            quant = _config(size, data, out_dir, seed, sbs=False, mode="digital-quantized",
                            trace_digits=0, point=point)
            steps.append({"calls": [["build", analog], ["simulate", analog],
                                    ["evaluate", quant]],
                          "check": _check("model.json", test_npz, 0,
                                          ["analog", "digital-quantized"], point)})
        return {"workload": workload, "out_dir": out_dir,
                "setup": [["prepare", base], ["train", base]], "steps": steps}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

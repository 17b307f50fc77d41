"""Spans around the calls into each senseline layer, from outside the program.

install() replaces each traced public function, in every senseline module
that holds it, with a wrapper that records (name, start, end, size) in
memory. Spans inside these functions need tracing inside the program and
are not recorded here.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

STAGES = ("prepare", "train", "select", "quantize", "build", "simulate", "evaluate", "report")

# module -> {function: size of one call, from its result (or None)}
TRACED = {
    "cli": {f"cmd_{s}": None for s in STAGES},
    "dataset": {"load_idx": None},
    "trainer": {"sbs_select": None,
                "train_logistic": lambda clf: len(clf.feature_indices)},
    "quantizer": {"map_weights": None},
    "device": {"make_instance": None},
    "system": {"assemble": None, "quantized_margins": None, "evaluate": None,
               "emit_netlist": None},
    "line_sim": {"simulate_digit": None,
                 "simulate_batch": lambda res: len(res.predictions)},
}

N_CLASSIFIERS = 45


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, object]] = []

    def _wrap(self, name, fn, size):
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            spans.append((name, t0, time.perf_counter(), size(result) if size else None))
            return result

        return traced

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "senseline" or n.startswith("senseline."))]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"senseline.{mod_name}"]
            for fn_name, size in funcs.items():
                orig = getattr(mod, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", orig, size)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, wrapped)
        return self

    def layer_metrics(self, out_bytes: int) -> dict:
        """Per-layer figures of the spans recorded so far."""
        calls: dict = defaultdict(int)
        secs: dict = defaultdict(float)
        longest: dict = defaultdict(float)
        sizes: dict = defaultdict(list)
        for name, t0, t1, size in self.spans:
            calls[name] += 1
            secs[name] += t1 - t0
            longest[name] = max(longest[name], t1 - t0)
            if size is not None:
                sizes[name].append(size)
        m = {f"cli.{s}_s": secs[f"cli.cmd_{s}"] for s in STAGES}
        m["cli.out_bytes"] = out_bytes
        m.update({
            "dataset.load_idx_calls": calls["dataset.load_idx"],
            "dataset.load_idx_s": secs["dataset.load_idx"],
            "trainer.sbs_select_calls": calls["trainer.sbs_select"],
            "trainer.sbs_select_s": secs["trainer.sbs_select"],
            "trainer.sbs_select_max_pair_s": longest["trainer.sbs_select"],
            "trainer.train_logistic_calls": calls["trainer.train_logistic"],
            "trainer.train_logistic_s": secs["trainer.train_logistic"],
            # The last 45 classifiers trained are the ones the array is built from.
            "trainer.mean_selected_features":
                statistics.fmean(sizes["trainer.train_logistic"][-N_CLASSIFIERS:] or [0]),
            "quantizer.map_weights_calls": calls["quantizer.map_weights"],
            "device.make_instance_calls": calls["device.make_instance"],
            "system.assemble_calls": calls["system.assemble"],
            "system.assemble_s": secs["system.assemble"],
            "system.emit_netlist_s": secs["system.emit_netlist"],
            "system.quantized_margins_s": secs["system.quantized_margins"],
            "system.evaluate_s": secs["system.evaluate"],
            "line_sim.simulate_digit_calls": calls["line_sim.simulate_digit"],
            "line_sim.simulate_digit_s": secs["line_sim.simulate_digit"],
            "line_sim.simulate_batch_calls": calls["line_sim.simulate_batch"],
            "line_sim.simulate_batch_digits": sum(sizes["line_sim.simulate_batch"]),
            "line_sim.simulate_batch_s": secs["line_sim.simulate_batch"],
        })
        digits = m["line_sim.simulate_batch_digits"]
        m["line_sim.us_per_batch_digit"] = (1e6 * m["line_sim.simulate_batch_s"] / digits
                                            if digits else 0.0)
        return m

"""Run configuration: one JSON document drives the whole pipeline.

Every stochastic choice is pinned by the single seed (the train/validation
shuffle is the only randomized step; training itself is deterministic).
Output files embed the configuration hash for provenance.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass

from .dataset import GridSpec, SplitSpec
from .device import DeviceParams
from .line_sim import LineTiming, euler_factor
from .quantizer import QuantSpec, check_exact_sums
from .system import EVAL_MODES
from .trainer import SBSSpec, TrainHyper, _check_fields


@dataclass(frozen=True)
class DataPaths:
    train_images: str = "data/train-images-idx3-ubyte.gz"
    train_labels: str = "data/train-labels-idx1-ubyte.gz"
    test_images: str = "data/t10k-images-idx3-ubyte.gz"
    test_labels: str = "data/t10k-labels-idx1-ubyte.gz"

    def __post_init__(self):
        # os.path.exists would take an int path as an open file descriptor.
        _check_fields("data", self, train_images="path", train_labels="path",
                      test_images="path", test_labels="path")


@dataclass(frozen=True)
class EvalSpec:
    mode: str = "digital-quantized"
    subset: int | None = None   # evaluate the first N test digits; None = all
    trace_digits: int = 10      # vote/trace records exported by `simulate`

    def __post_init__(self):
        _check_fields("evaluate", self, mode=EVAL_MODES, subset="count?", trace_digits="count0")


@dataclass(frozen=True)
class RunConfig:
    data: DataPaths = DataPaths()
    split: SplitSpec = SplitSpec()
    grid: GridSpec = GridSpec()
    feature_space: int = 64     # 64 = downsampled grid, 784 = full images
    hyper: TrainHyper = TrainHyper()
    sbs: SBSSpec = SBSSpec()
    quant: QuantSpec = QuantSpec()
    device: DeviceParams = DeviceParams()
    line: LineTiming = LineTiming()
    evaluate: EvalSpec = EvalSpec()
    out_dir: str = "out"
    seed: int = 42

    def __post_init__(self):
        _check_fields("", self, feature_space=(64, 784), out_dir="path", seed="count0")
        check_exact_sums(self.quant, self.feature_space)
        if self.evaluate.mode == "analog":
            # Worst case: a device on every feature of a line, each at full drive.
            factor = euler_factor(self.line, self.device, self.feature_space)
            if factor <= 0:
                raise ValueError(f"unstable Euler step: line.dt = {self.line.dt!r} s gives a "
                                 f"worst-case factor {factor:.3g} at {self.feature_space} "
                                 "features, outside (0, 1]; lower line.dt or raise line.c_line")
            # A trace digit holds (n_steps + 1) x 45 samples; untraced, any step count runs.
            samples = self.evaluate.trace_digits * (self.line.n_steps + 1) * 45
            if samples > 10_000_000:
                raise ValueError(f"evaluate.trace_digits = {self.evaluate.trace_digits} at "
                                 f"{self.line.n_steps} steps (line.t_classify / line.dt) "
                                 f"would record {samples:,} trace samples, over 10,000,000; "
                                 "lower evaluate.trace_digits or line.t_classify")
        # The global seed pins the split shuffle.
        object.__setattr__(self, "split",
                           dataclasses.replace(self.split, shuffle_seed=self.seed))

    @functools.cached_property
    def _hash(self) -> str:
        # Computed on first use and kept: the config is frozen.
        doc = dataclasses.asdict(self)
        doc.pop("out_dir", None)
        canonical = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


_SECTIONS = {
    "data": DataPaths,
    "split": SplitSpec,
    "grid": GridSpec,
    "hyper": TrainHyper,
    "sbs": SBSSpec,
    "quant": QuantSpec,
    "device": DeviceParams,
    "line": LineTiming,
    "evaluate": EvalSpec,
}

_TUPLE_FIELDS = {"row_indices", "col_indices"}


def _build_section(name: str, values: dict):
    if not isinstance(values, dict):
        raise ValueError(f"config section {name} must be a JSON object, got {values!r}")
    cls = _SECTIONS[name]
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    if name == "split" and "shuffle_seed" in values:
        raise ValueError("split.shuffle_seed follows seed and cannot be set; set seed instead")
    coerced = {k: tuple(v) if k in _TUPLE_FIELDS and isinstance(v, list) else v
               for k, v in values.items()}
    return cls(**coerced)


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) JSON document."""
    if not isinstance(doc, dict):
        raise ValueError(f"the config document must be a JSON object, got {doc!r}")
    kwargs = {}
    top_names = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(doc) - top_names
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(key, value)
        else:
            kwargs[key] = value
    return RunConfig(**kwargs)


def config_hash(cfg: RunConfig) -> str:
    """Short provenance hash over the canonical config JSON.

    The output directory is excluded: where artifacts land does not change
    what they contain.
    """
    return cfg._hash

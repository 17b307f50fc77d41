"""Run configuration: one JSON document drives the whole pipeline.

Every stochastic choice is pinned by the single seed (the train/validation
shuffle is the only randomized step; training itself is deterministic).
Output files embed the configuration hash for provenance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .dataset import GridSpec, SplitSpec
from .device import DeviceParams
from .line_sim import LineTiming, euler_factor
from .quantizer import QuantSpec
from .system import EVAL_MODES
from .trainer import SBSSpec, TrainHyper, _check_count


@dataclass(frozen=True)
class DataPaths:
    train_images: str = "data/train-images-idx3-ubyte.gz"
    train_labels: str = "data/train-labels-idx1-ubyte.gz"
    test_images: str = "data/t10k-images-idx3-ubyte.gz"
    test_labels: str = "data/t10k-labels-idx1-ubyte.gz"


@dataclass(frozen=True)
class EvalSpec:
    mode: str = "digital-quantized"
    subset: int | None = None   # evaluate the first N test digits; None = all
    trace_digits: int = 10      # vote/trace records exported by `simulate`

    def __post_init__(self):
        if self.mode not in EVAL_MODES:
            raise ValueError(f"evaluate.mode must be one of {EVAL_MODES}, got {self.mode!r}")
        _check_count("evaluate.subset", self.subset, optional=True)
        _check_count("evaluate.trace_digits", self.trace_digits, minimum=0)


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
        # os.path.exists would take an int path as an open file descriptor.
        paths = {f"data.{k}": v for k, v in dataclasses.asdict(self.data).items()}
        for name, value in dict(paths, out_dir=self.out_dir).items():
            if not isinstance(value, str) or not value:
                raise ValueError(f"{name} must be a non-empty path string, got {value!r}")
        _check_count("seed", self.seed, minimum=0)
        _check_count("feature_space", self.feature_space)
        if self.feature_space not in (64, 784):
            raise ValueError("feature_space must be 64 or 784")
        if self.evaluate.mode == "analog":
            # Worst case: a device on every feature of a line, each at full drive.
            factor = euler_factor(self.line, self.device, self.feature_space)
            if factor <= 0:
                raise ValueError(f"unstable Euler step: line.dt = {self.line.dt!r} s gives a "
                                 f"worst-case factor {factor:.3g} at {self.feature_space} "
                                 "features, outside (0, 1]; lower line.dt or raise line.c_line")
        # The global seed pins the split shuffle.
        object.__setattr__(self, "split",
                           dataclasses.replace(self.split, shuffle_seed=self.seed))


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


def _build_section(cls, values: dict):
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    coerced = {k: tuple(v) if k in _TUPLE_FIELDS and isinstance(v, list) else v
               for k, v in values.items()}
    return cls(**coerced)


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) JSON document."""
    kwargs = {}
    top_names = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(doc) - top_names
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(_SECTIONS[key], value)
        else:
            kwargs[key] = value
    return RunConfig(**kwargs)


def config_hash(cfg: RunConfig) -> str:
    """Short provenance hash over the canonical config JSON.

    The output directory is excluded: where artifacts land does not change
    what they contain.
    """
    doc = dataclasses.asdict(cfg)
    doc.pop("out_dir", None)
    canonical = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]

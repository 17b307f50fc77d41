"""Single-sensing-line mixed-signal classifier: trainer, compiler, simulator.

Pipeline: MNIST-style IDX data -> one-vs-one logistic ensemble -> per-pair
backward feature selection -> 5-bit gate-bias quantization -> behavioral
ambipolar device array -> transient sensing-line simulation and metrics.
"""

from .dataset import (
    DataSplits,
    GridSpec,
    LabeledImageSet,
    SplitSpec,
    downsample,
    load_idx,
    normalize,
    split,
)
from .device import DeviceInstance, DeviceParams, channel_current, current, drive, region_of
from .line_sim import (
    ClassificationTrace,
    LineTiming,
    buffer_decide,
    simulate_batch,
    simulate_digit,
)
from .quantizer import (
    DeviceConfig,
    QuantSpec,
    level_to_vbg,
    level_to_vtg,
    map_weights,
    quantize_features,
    quantize_unit,
)
from .system import MetricsReport, SystemConfig, assemble, emit_netlist, estimate_area, evaluate, parse_netlist
from .trainer import (
    BinaryClassifier,
    OvOModel,
    SBSSpec,
    TrainHyper,
    build_ovo,
    predict_margin,
    predict_sign,
    sbs_select,
    train_logistic,
    vote,
)

__version__ = "0.1.0"

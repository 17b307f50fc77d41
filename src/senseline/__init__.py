"""Single-sensing-line mixed-signal classifier: trainer, compiler, simulator.

Pipeline: MNIST-style IDX data -> one-vs-one logistic ensemble -> per-pair
backward feature selection -> 5-bit gate-bias quantization -> behavioral
ambipolar device array -> transient sensing-line simulation and metrics.
"""

from .dataset import GridSpec, LabeledImageSet, SplitSpec, downsample, load_idx, normalize
from .device import DeviceParams, channel_current, region_of
from .line_sim import LineTiming, simulate_batch
from .quantizer import QuantSpec, level_to_vbg, level_to_vtg, quantize_unit, weight_levels
from .system import (
    MetricsReport,
    SystemConfig,
    assemble,
    emit_netlist,
    estimate_area,
    evaluate,
)
from .trainer import (
    BinaryClassifier,
    OvOModel,
    SBSSpec,
    TrainHyper,
    build_ovo,
    pair_votes,
    predict_margin,
    sbs_select,
    tally_votes,
    train_logistic,
)

__version__ = "0.1.0"

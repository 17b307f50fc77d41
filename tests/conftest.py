import importlib.util
import os
import pathlib

import pytest

import synth
from senseline import cli, dataset, system, trainer
from senseline.config import RunConfig

# Real MNIST IDX files, if the user has placed them locally. Tests that
# assert MNIST-specific accuracy targets skip without them.
MNIST_DIR = os.environ.get(
    "SENSELINE_MNIST_DIR",
    os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "data")))

MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images-idx3-ubyte.gz"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels-idx1-ubyte.gz"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images-idx3-ubyte.gz"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels-idx1-ubyte.gz"),
}


def mnist_paths() -> dict | None:
    found = {}
    for key, names in MNIST_FILES.items():
        for name in names:
            path = os.path.join(MNIST_DIR, name)
            if os.path.exists(path):
                found[key] = path
                break
        else:
            return None
    return found


requires_mnist = pytest.mark.skipif(
    mnist_paths() is None,
    reason=f"real MNIST IDX files not found under {MNIST_DIR} "
           "(set SENSELINE_MNIST_DIR); this sandbox has no dataset network access",
)


@pytest.fixture(scope="session")
def mnist_features():
    """Full MNIST split at both resolutions: {'784': trio, '64': trio}."""
    paths = mnist_paths()
    if paths is None:
        pytest.skip("real MNIST not available in this environment")
    train_pool = dataset.load_idx(paths["train_images"], paths["train_labels"])
    test_pool = dataset.load_idx(paths["test_images"], paths["test_labels"])
    train, val = dataset.split_train_val(train_pool)

    def both(s):
        x784 = dataset.normalize(s)
        return x784, dataset.downsample(x784), s.labels.astype(int)

    tr784, tr64, ty = both(train)
    va784, va64, vy = both(val)
    te784, te64, sy = both(dataset.select_test(test_pool))
    return {
        "784": ((tr784, ty), (va784, vy), (te784, sy)),
        "64": ((tr64, ty), (va64, vy), (te64, sy)),
    }


@pytest.fixture(scope="session")
def synth_splits():
    """Synthetic digit corpus split 7000/2000/1500 as (train, val, test), session-cached."""
    images, labels = synth.make_corpus(10_500, seed=7)
    spec = dataset.SplitSpec(7000, 2000, 1500, shuffle_seed=42)
    train_pool = dataset.LabeledImageSet(images[:9000], labels[:9000])
    test_pool = dataset.LabeledImageSet(images[9000:], labels[9000:])
    return (*dataset.split_train_val(train_pool, spec), dataset.select_test(test_pool, spec))


def _features64(s: dataset.LabeledImageSet):
    return cli._features_of(dataset.grid_pixels(s, RunConfig().grid))


@pytest.fixture(scope="session")
def synth_features(synth_splits):
    """(train_x, train_y), (val_x, val_y), (test_x, test_y) at 64 features."""
    return tuple(_features64(s) for s in synth_splits)


@pytest.fixture(scope="session")
def synth_model(synth_features) -> trainer.OvOModel:
    """All-64-feature ensemble trained on the synthetic corpus."""
    (tx, ty), (vx, vy), _ = synth_features
    return trainer.build_ovo(tx, ty, vx, vy, trainer.TrainHyper(), sbs=None)


@pytest.fixture(scope="session")
def synth_system(synth_model) -> system.SystemConfig:
    return system.assemble(synth_model)


# Every value the pipeline reuses within a process, by module and name: the
# training pool (its grid pixels at 64 features), the test split's pixels,
# the compiled array and its level products over the test split. Each slot
# holds its input files' bytes as its key.
PROCESS_CACHES = ((dataset, "_last_pair"), (cli, "_test_split"), (cli, "_compiled"),
                  (cli, "_test_products"))


def clear_process_caches(monkeypatch):
    """Start every process cache empty; monkeypatch restores them after the test."""
    for module, name in PROCESS_CACHES:
        monkeypatch.setattr(module, name, trainer.LastParse())


@pytest.fixture()
def idx_dir(tmp_path):
    """Small synthetic IDX file pair on disk (train + test, mixed gzip)."""
    images, labels = synth.make_corpus(600, seed=3)
    train_paths = synth.write_idx_pair(tmp_path, images[:500], labels[:500], "train")
    test_paths = synth.write_idx_pair(tmp_path, images[500:], labels[500:], "t10k",
                                      compress=True)
    return {"dir": tmp_path, "train": train_paths, "test": test_paths}


def sweep_points():
    """The line_sweep benchmark's (c_line, dt, v_dsat, i_on) points, read from perfbench."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SWEEP_POINTS

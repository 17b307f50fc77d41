"""Fuzz tests through cli.main: every input ends in an exit code, never in a
traceback, a warning or a non-finite number in an artifact.

Needs hypothesis (the `test` extra); skipped cleanly without it.
"""

import json
import pathlib
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import synth  # noqa: E402
from senseline import cli  # noqa: E402

TRAIN_POOL, TEST_POOL = 150, 20


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """data section of a config naming a tiny on-disk synthetic corpus."""
    root = tmp_path_factory.mktemp("corpus")
    images, labels = synth.make_corpus(TRAIN_POOL + TEST_POOL, seed=5)
    train = synth.write_idx_pair(root, images[:TRAIN_POOL], labels[:TRAIN_POOL], "train")
    test = synth.write_idx_pair(root, images[TRAIN_POOL:], labels[TRAIN_POOL:], "t10k")
    return {"train_images": str(train[0]), "train_labels": str(train[1]),
            "test_images": str(test[0]), "test_labels": str(test[1])}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in an artifact")


# Most drawn splits fit the pool; few or no validation rows leave some pairs none.
SPLITS = st.fixed_dictionaries({"train_count": st.integers(0, 10) | st.integers(90, 120),
                                "val_count": st.integers(0, 4) | st.integers(25, 30),
                                "test_count": st.integers(0, TEST_POOL)})
BUDGETS = st.fixed_dictionaries({
    "candidate_rows": st.none() | st.integers(1, 60),
    "max_features": st.none() | st.integers(1, 70),
    "tolerance": st.floats(0.0, 1.0),
    "candidate_epochs": st.integers(1, 3),
    "full_epochs": st.integers(1, 5),
})


def _train_and_select(corpus, doc):
    """Run `train` and `select` on the config doc (with the corpus) in a fresh
    out_dir, with warnings as errors; check the exit codes and JSON artifacts."""
    with tempfile.TemporaryDirectory() as tmp:
        out, path = pathlib.Path(tmp, "out"), pathlib.Path(tmp, "config.json")
        path.write_text(json.dumps(dict(doc, data=corpus, out_dir=str(out))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [cli.main([stage, "-c", str(path)]) for stage in ("train", "select")]
        assert set(codes) <= {0, cli.EXIT_DATA, cli.EXIT_COMPUTE, cli.EXIT_CONFIG}, codes
        for artifact in out.glob("*.json"):
            json.loads(artifact.read_text(), parse_constant=_reject_constant)


# A fixed budget of a few seconds; the example is the split that gave most
# pairs no validation rows, for which `train` wrote NaN and `select` exited 0.
@settings(max_examples=30, deadline=None, derandomize=True)
@example(split={"train_count": 130, "val_count": 3, "test_count": 10},
         sbs={"candidate_rows": 20, "max_features": None, "tolerance": 0.002,
              "candidate_epochs": 2, "full_epochs": 3})
@given(split=SPLITS, sbs=BUDGETS)
def test_train_and_select_fail_cleanly(corpus, split, sbs):
    _train_and_select(corpus, {"split": split, "sbs": sbs, "hyper": {"max_epochs": 20}})


# Learning rates log-uniform from 1e-8 to 1e300. A rate of 0 is left out:
# its warning is deliberate.
HYPERS = st.fixed_dictionaries({
    "learning_rate": st.floats(-8.0, 300.0).map(lambda e: 10.0 ** e),
    "l2_lambda": st.sampled_from([0.0, 1e-4]),
    "max_epochs": st.integers(1, 20),
})
HYPER_SPLIT = {"train_count": 120, "val_count": 25, "test_count": 10}


# A fixed budget of a few seconds. The examples: one candidate row, which
# holds one digit (`select` eliminated on it and exited 0); a rate whose
# elimination step overflows float32 (`select` warned "overflow encountered
# in cast"); a rate whose final loss overflows (`train` warned from the check).
@settings(max_examples=20, deadline=None, derandomize=True)
@example(hyper={"learning_rate": 0.5, "l2_lambda": 1e-4, "max_epochs": 20}, candidate_rows=1)
@example(hyper={"learning_rate": 1e42, "l2_lambda": 1e-4, "max_epochs": 1}, candidate_rows=20)
@example(hyper={"learning_rate": 1e300, "l2_lambda": 0.0, "max_epochs": 1}, candidate_rows=20)
@given(hyper=HYPERS, candidate_rows=st.none() | st.integers(1, 60))
def test_hyper_fails_cleanly(corpus, hyper, candidate_rows):
    _train_and_select(corpus, {"split": HYPER_SPLIT, "hyper": hyper, "sbs": {
        "candidate_rows": candidate_rows, "candidate_epochs": 2, "full_epochs": 3}})

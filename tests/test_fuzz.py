"""Fuzz tests through cli.main: every input ends in an exit code, never in a
traceback, a warning or a non-finite number in an artifact.

Needs hypothesis (the `test` extra); skipped cleanly without it.
"""

import copy
import json
import math
import pathlib
import subprocess
import sys
import tempfile
import textwrap
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


def _run_stages(doc, stages, model=None):
    """Run the stages, each as [stage, *flags], on the config doc in a fresh
    out_dir (holding `model` as model.json, if given), with warnings as
    errors; check the exit codes and JSON artifacts. The doc's out_dir is
    kept if it has one."""
    with tempfile.TemporaryDirectory() as tmp:
        out, path = pathlib.Path(tmp, "out"), pathlib.Path(tmp, "config.json")
        if model is not None:
            out.mkdir()
            (out / "model.json").write_text(model)
        path.write_text(json.dumps({"out_dir": str(out), **doc}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [cli.main([stage, "-c", str(path), *flags]) for stage, *flags in stages]
        assert set(codes) <= {0, cli.EXIT_DATA, cli.EXIT_COMPUTE, cli.EXIT_CONFIG}, codes
        for artifact in out.glob("*.json"):
            json.loads(artifact.read_text(), parse_constant=_reject_constant)


def _train_and_select(corpus, doc):
    """`train` and `select` on the config doc with the corpus."""
    _run_stages(dict(doc, data=corpus), [["train"], ["select"]])


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


TRAINED_SPLIT = {"train_count": 120, "val_count": 25, "test_count": 10}


@pytest.fixture(scope="module")
def trained_model(corpus, tmp_path_factory):
    """The text of a model.json trained on the corpus (64 features each)."""
    out = tmp_path_factory.mktemp("trained")
    path = out / "config.json"
    path.write_text(json.dumps({"data": corpus, "split": TRAINED_SPLIT, "out_dir": str(out),
                                "hyper": {"max_epochs": 20}}))
    assert cli.main(["train", "-c", str(path)]) == 0
    return (out / "model.json").read_text()


DELETE = "<delete>"  # an edit that removes the value at its path

# Paths into a model file: most often an entry of a classifier's list (or
# one past its end), else one of its keys (or a new one), a classifier or a
# section. Hypothesis draws early branches first.
ENTRY_PATHS = st.tuples(st.just("classifiers"), st.integers(0, 44),
                        st.sampled_from(["weights", "feature_indices", "pair"]),
                        st.integers(0, 64))
MODEL_PATHS = st.one_of(
    ENTRY_PATHS, ENTRY_PATHS, ENTRY_PATHS, ENTRY_PATHS,
    st.tuples(st.just("classifiers"), st.integers(0, 44),
              st.sampled_from(["pair", "feature_indices", "weights", "extra"])),
    st.tuples(st.just("classifiers"), st.integers(0, 45)),
    st.tuples(st.sampled_from(["classifiers", "metadata", "extra"])),
)
NUMBERS = (st.integers(-2, 70) | st.integers(-2 ** 70, 2 ** 70)
           | st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = st.recursive(st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                           max_leaves=4)


def _edit(doc, path, value):
    """doc with the value at path set (a missing last key added, a list index
    past the end appended) or, for DELETE, removed."""
    node = doc
    for step in path[:-1]:
        node = node[step]
    last = path[-1]
    if value is DELETE:
        if last in node if isinstance(node, dict) else last < len(node):
            del node[last]
    elif isinstance(node, list) and last >= len(node):
        node.append(value)
    else:
        node[last] = value


def _apply(doc, edits):
    """doc after each (path, value) edit in turn; a path cut short by an
    earlier edit is skipped."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        try:
            _edit(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass
    return doc


# A fixed budget of a few seconds. The example is a feature index that does
# not fit an index array, which crashed `build` with an OverflowError.
@settings(max_examples=60, deadline=None, derandomize=True)
@example(edits=[(("classifiers", 0, "feature_indices", 0), 2 ** 63)])
@given(edits=st.lists(st.tuples(MODEL_PATHS, NUMBERS | NUMBERS | JSON_VALUES | st.just(DELETE)),
                      min_size=1, max_size=2))
def test_model_file_mutations_fail_cleanly(corpus, trained_model, edits):
    model = json.dumps(_apply(json.loads(trained_model), edits))
    _run_stages({"data": corpus, "split": TRAINED_SPLIT, "evaluate": {"mode": "analog"}},
                [["build"], ["evaluate"], ["evaluate", "--mode", "digital-float"]], model)


def _scaled(default, exponents=(0, -1, 1, 0, -3, 3, 0.5, -300, 300)):
    """The default times a power of ten, sometimes negated."""
    return st.builds(lambda e, sign: sign * default * 10.0 ** e,
                     st.sampled_from(exponents), st.sampled_from([1, 1, 1, -1]))


# Phase and step scaled by at most 10 each, or by 10**300 (rejected): traced
# runs take at most 20,000 steps, so their traces.csv stays small.
STEP_EXPONENTS = (0, -1, 1, 0.5, -300, 300)


# Values of the wrong type or out of any range, drawn as one branch.
ODD = st.sampled_from([None, True, "", "x", [], {}, 0, -1, 0.0, 1e308, math.inf, -math.inf,
                       math.nan, 2 ** 63])
GRID_INDICES = (st.lists(st.integers(0, 27), min_size=8, max_size=8, unique=True).map(sorted)
                | st.lists(st.integers(-1, 30), max_size=9) | ODD)
CONFIG_VALUES = {
    "line.c_line": _scaled(10e-15) | ODD,
    "line.t_precharge": _scaled(2e-9) | ODD,
    "line.t_classify": _scaled(2e-9, STEP_EXPONENTS) | ODD,
    "line.dt": _scaled(10e-12, STEP_EXPONENTS) | ODD,
    "device.i_on": _scaled(2e-6) | ODD,
    "device.v_dsat": _scaled(0.2) | ODD,
    "quant.bits": st.integers(-1, 70) | ODD,
    "quant.step_volts": _scaled(0.04) | ODD,
    "quant.vdd": _scaled(3.0) | ODD,
    "evaluate.mode": st.sampled_from(["analog", "digital-float", "digital-quantized"]) | ODD,
    "evaluate.subset": st.integers(-1, 12) | ODD,
    "evaluate.trace_digits": st.integers(-1, 4) | ODD,
    "grid.row_indices": GRID_INDICES,
    "grid.col_indices": GRID_INDICES,
    "feature_space": st.sampled_from([64, 784, 0, 65, 64.0, "64"]) | ODD,
    "seed": st.integers(-1, 2 ** 64) | ODD,
    # Never a non-empty string: out_dir is where the stages write.
    "out_dir": st.none() | st.integers() | st.just("") | st.just([]),
}


@st.composite
def config_edits(draw):
    """One or two (dotted key, value) pairs of CONFIG_VALUES."""
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), min_size=1, max_size=2,
                         unique=True))
    return [(key, draw(CONFIG_VALUES[key])) for key in keys]


# A fixed budget of a few seconds. The example is a phase so long that its
# step count is not finite, which crashed the config check with an
# OverflowError.
@settings(max_examples=60, deadline=None, derandomize=True)
@example(edits=[("line.t_classify", 1e308)], trace_digits=1)
@given(edits=config_edits(), trace_digits=st.integers(1, 3))
def test_config_values_fail_cleanly(corpus, trained_model, edits, trace_digits):
    doc = {"data": corpus, "split": TRAINED_SPLIT,
           "evaluate": {"mode": "analog", "trace_digits": trace_digits}}
    for key, value in edits:
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = value
    _run_stages(doc, [["build"], ["simulate", "--mode", "analog"], ["evaluate"]], trained_model)


def test_a_failing_property_test_fails_alone(tmp_path):
    # Hypothesis's failure report imports modules that warn on import; under
    # the repo's warnings-as-errors options that must fail only its test.
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x > 10 ** 9

        def test_passes():
            pass
    """))
    ini = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ini), "--rootdir", str(tmp_path), "test_two.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert proc.returncode == 1

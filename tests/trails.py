"""Compare selection's elimination trails with the float64 direct form, pair by pair.

    python tests/trails.py --budgets bench 11 12 13
    python tests/trails.py --budgets default 7 8 9 10 11
    python tests/trails.py --digest --budgets bench 11 12 13
    python tests/trails.py --final --budgets bench 11 12 13

For each corpus seed it renders tests/synth.py's corpus and splits its
training pool as the budgets say:
- bench: perfbench's "full" size (2,000 train and 1,000 val rows of a
  6,000-image corpus) and its selection budgets;
- default: 7,500 train and 2,500 val rows of a 12,000-image corpus and the
  default TrainHyper and SBSSpec.
The split shuffle is seeded with the corpus seed, as a run's `seed` seeds
it. Then it runs trainer.sbs_select on the 45 pairs, in the blocks
build_ovo forms, and for each pair test_trainer.sbs_record_reference, the
direct float64 form of the same elimination. It prints one JSON document:
per seed, how many pairs have identical trails (the removed-feature order
and every recorded accuracy) and identical picks, each differing pair with
the feature count k of its first differing trail entry, and the seconds
each side took. Exits 1 if any trail differs. A default-budget seed takes
several minutes.

With --digest it runs no reference and prints, per seed, one SHA-256 over
the 45 pairs' removal orders, recorded accuracies (as float.hex) and picks,
so that two source trees can be checked for bit-identical selection.

With --final it compares the final training instead: trainer._train_pairs
(float32 products, float64 weights) against test_trainer's float64
per-pair descent, train_logistic_reference, on the 45 pairs with all
features (as `train` trains them) and with the subsets selection picks (as
`select` does). Per seed and feature set it prints whether the compiled L
is identical and how many of its levels differ, the largest |dw| / max|w|
of any classifier, how many pairs froze at the reference's epoch, and the
seconds each side took. A pair's freeze epoch is the reference epoch whose
weights lie nearest its own: one step moves weights far more than float32
rounding does. Exits 1 if any L or freeze epoch differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import synth  # noqa: E402
from senseline import dataset, system, trainer  # noqa: E402
from senseline.trainer import BinaryClassifier, OvOModel, SBSSpec, TrainHyper  # noqa: E402
from test_trainer import sbs_record_reference, train_logistic_reference  # noqa: E402
from workloads import SIZES  # noqa: E402


def budgets(name: str):
    """(corpus images, train rows, val rows, TrainHyper, SBSSpec) of the named budgets."""
    if name == "default":
        return 12_000, 7_500, 2_500, TrainHyper(), SBSSpec()
    size = SIZES["full"]
    return (size["train"] + size["val"] + size["test"], size["train"], size["val"],
            TrainHyper(max_epochs=size["max_epochs"]), SBSSpec(**size["sbs"]))


def features(n_images: int, n_train: int, n_val: int, seed: int):
    """((train_x, train_y), (val_x, val_y)) of the seeded corpus, as `prepare` splits it."""
    images, labels = synth.make_corpus(n_images, seed=seed)
    pool = dataset.LabeledImageSet(images[: n_train + n_val], labels[: n_train + n_val])
    spec = dataset.SplitSpec(train_count=n_train, val_count=n_val, test_count=0,
                             shuffle_seed=seed)
    return [(dataset.downsample(s.images.reshape(len(s), -1)) / 255.0, s.labels.astype(int))
            for s in dataset.split_train_val(pool, spec)]


def first_difference(record, ref):
    """The feature count k of the first trail entry that differs, or None."""
    for (sub, acc), (ref_sub, ref_acc) in zip(record, ref):
        if not np.array_equal(sub, ref_sub) or acc != ref_acc:
            return len(ref_sub)
    return None


def select_seed(budget: str, seed: int):
    """(features, hyper, spec, [(subset, record)] per pair, seconds) of one seed's selection."""
    n_images, n_train, n_val, hyper, spec = budgets(budget)
    (tx, ty), (vx, vy) = data = features(n_images, n_train, n_val, seed)
    t0 = time.perf_counter()
    selected = [result for block in trainer.sbs_blocks(ty, spec, tx.shape[1])
                for result in trainer.sbs_select(block, tx, ty, vx, vy, hyper, spec,
                                                 return_record=True)]
    return data, hyper, spec, selected, time.perf_counter() - t0


def trail_digest(selected) -> str:
    """SHA-256 over each pair's removal order, recorded accuracies (float.hex) and pick."""
    h = hashlib.sha256()
    for pair, (subset, record) in zip(trainer.all_pairs(), selected):
        order = [int(np.setdiff1d(sub, rest)[0]) for (sub, _), (rest, _) in zip(record, record[1:])]
        h.update(json.dumps([list(pair), order, [float(acc).hex() for _, acc in record],
                             subset.tolist()]).encode())
    return h.hexdigest()


def compare_seed(budget: str, seed: int) -> dict:
    ((tx, ty), (vx, vy)), hyper, spec, selected, select_s = select_seed(budget, seed)
    differing, same_picks, reference_s = [], 0, 0.0
    for pair, (subset, record) in zip(trainer.all_pairs(), selected):
        t0 = time.perf_counter()
        ref = sbs_record_reference(pair, tx, ty, vx, vy, hyper, spec)
        reference_s += time.perf_counter() - t0
        same_pick = np.array_equal(subset, trainer.pick_subset(ref, spec))
        same_picks += same_pick
        k = first_difference(record, ref)
        if k is not None:
            differing.append({"pair": list(pair), "first_k": k, "same_pick": same_pick})
    return {"pairs": 45, "identical_trails": 45 - len(differing),
            "identical_picks": same_picks, "differing": differing,
            "select_s": round(select_s, 2), "reference_s": round(reference_s, 2)}


def compare_final_training(tx, ty, hyper, subsets) -> dict:
    """The final training of the 45 pairs on the given feature subsets, against the reference."""
    tasks = [(pair, (ty == pair[0]) | (ty == pair[1]), f)
             for pair, f in zip(trainer.all_pairs(), subsets)]
    t0 = time.perf_counter()
    got = trainer._train_pairs(tx, ty, tasks, hyper)
    train_s, reference_s = time.perf_counter() - t0, 0.0
    reference, paths, same_epochs, worst = [], [], 0, 0.0
    for c, (pair, rows, f) in zip(got, tasks):
        t0 = time.perf_counter()
        w, epochs, path = train_logistic_reference(tx[rows], ty[rows], pair, f, hyper)
        reference_s += time.perf_counter() - t0
        paths.append(path)
        reference.append(BinaryClassifier(pair, f, w))
        same_epochs += int(np.argmin([np.abs(c.weights - p).max() for p in path])) == epochs
        worst = max(worst, float(np.abs(c.weights - w).max() / np.abs(w).max()))
    L, L_ref = (system.assemble(OvOModel(m)).L for m in (got, reference))
    return {"identical_L": bool(np.array_equal(L, L_ref)),
            "differing_levels": int(np.count_nonzero(L != L_ref)),
            "max_rel_dw": worst, "same_freeze_epochs": same_epochs, "pairs": 45,
            "frozen_before_max_epochs": sum(len(p) - 2 < hyper.max_epochs for p in paths),
            "train_s": round(train_s, 3), "reference_s": round(reference_s, 3)}


def compare_final(budget: str, seed: int) -> dict:
    """compare_final_training on all features and on the selected subsets of one seed."""
    ((tx, ty), _), hyper, _, selected, _ = select_seed(budget, seed)
    return {name: compare_final_training(tx, ty, hyper, subsets) for name, subsets in
            (("all", [np.arange(tx.shape[1])] * 45), ("selected", [s for s, _ in selected]))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budgets", choices=("bench", "default"), default="bench")
    parser.add_argument("--digest", action="store_true",
                        help="print each seed's trail digest instead of comparing")
    parser.add_argument("--final", action="store_true",
                        help="compare the final training with its float64 reference instead")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    if args.final:
        final = {}
        for seed in args.seeds:
            final[str(seed)] = compare_final(args.budgets, seed)
            print(f"seed {seed}: {json.dumps(final[str(seed)])}", file=sys.stderr, flush=True)
        print(json.dumps({"budgets": args.budgets, "final": final}, indent=1))
        return 1 if any(not r["identical_L"] or r["same_freeze_epochs"] != r["pairs"]
                        for f in final.values() for r in f.values()) else 0
    if args.digest:
        digests = {str(seed): trail_digest(select_seed(args.budgets, seed)[3])
                   for seed in args.seeds}
        print(json.dumps({"budgets": args.budgets, "digests": digests}, indent=1))
        return 0
    seeds = {}
    for seed in args.seeds:
        seeds[str(seed)] = compare_seed(args.budgets, seed)
        print(f"seed {seed}: {json.dumps(seeds[str(seed)])}", file=sys.stderr, flush=True)
    print(json.dumps({"budgets": args.budgets, "seeds": seeds}, indent=1))
    return 1 if any(s["differing"] for s in seeds.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

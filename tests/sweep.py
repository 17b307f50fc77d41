"""Write every line_sweep point's out_dir, for comparing two source trees point by point.

    python tests/sweep.py SEED OUT

renders perfbench's full-size corpus for SEED and runs `prepare` and `train`
once, as the line_sweep workload's set-up does. Then, in the same process,
it runs build, analog simulate and digital-quantized evaluate at each
SWEEP_POINTS point with the workload's own configs, removing the step
artifacts before each point as perfbench's child does, and copies the
out_dir after point i to OUT/<i>. A benchmark work dir keeps only the last
point, and the benchmark's oracle checks energy only to a bound; comparing
two OUT trees with

    python tests/outdiff.py OUT_A OUT_B

checks all seven points byte for byte. The corpus paths enter each
artifact's config hash, so the corpus is rendered at one path per seed,
senseline-sweep-SEED under the system temporary directory: run one sweep
at a time. The senseline it runs is this tree's src; to sweep another
tree, run its copy of this file.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from child import STEP_ARTIFACTS  # noqa: E402
from run import make_corpus  # noqa: E402
from senseline import cli  # noqa: E402
from senseline.config import config_from_dict  # noqa: E402
from workloads import SIZES, build_spec  # noqa: E402


def sweep(seed: int, out: Path) -> list[Path]:
    """Run the line_sweep workload's stages at seed; OUT/<i> after each point."""
    work = Path(tempfile.gettempdir()) / f"senseline-sweep-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    data, test_npz = make_corpus(work / "corpus", SIZES["full"], seed)
    out_dir = work / "out"
    spec = build_spec("line_sweep", "full", seed, data, test_npz, str(out_dir))

    def run(calls):
        for stage, doc in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = getattr(cli, f"cmd_{stage}")(config_from_dict(doc))
            if rc != 0:
                raise SystemExit(f"{stage} exited {rc}")

    run(spec["setup"])
    copies = []
    for i, step in enumerate(spec["steps"]):
        for pattern in STEP_ARTIFACTS:
            for path in out_dir.glob(pattern):
                path.unlink()
        run(step["calls"])
        copies.append(out / str(i))
        shutil.rmtree(copies[-1], ignore_errors=True)
        shutil.copytree(out_dir, copies[-1])
    shutil.rmtree(work)
    return copies


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    for path in sweep(int(sys.argv[1]), Path(sys.argv[2])):
        print(path)

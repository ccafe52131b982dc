"""Runtime smoke test: `legnet` generates, checks, scores and trains on a
cohort with numpy alone. scipy is blocked before `legnet` is imported, so
any scipy import on these paths raises ImportError.

    python tests/runtime_smoke.py

It builds the default atlas, generates eight subjects, regrows subject 0's
lesion and validates it, scores subject 0 with every model kind, and takes
the loss and gradients of every kind on all eight as one minibatch. It
prints one line and exits 0 when all of that runs, and exits non-zero
with the reason otherwise. It needs no test framework, so it also runs
where only `pip install .` was done.
"""

import math
import sys

import numpy as np

sys.modules["scipy"] = None  # `import scipy` and `from scipy import x` now fail

from legnet.connectome import build_toy_atlas  # noqa: E402
from legnet.model import (MODEL_KINDS, HyperParams, as_tensors, batch_loss_and_grads,  # noqa: E402
                          init_params, predict, prepare_dataset)
from legnet.synthgen import LesionSpec, generate_cohort, grow_lesion  # noqa: E402


def main() -> None:
    atlas = build_toy_atlas()
    records, manifest = generate_cohort(8, atlas, master_seed=3)
    subject = manifest["subjects"][0]
    lesion = grow_lesion(atlas, LesionSpec(territory=subject["territory"],
                                           target_fraction=subject["target_fraction"],
                                           seed=subject["lesion_seed"]))
    if lesion.size != subject["lesion_size"]:
        raise SystemExit(f"regrown lesion has {lesion.size} voxels, the cohort's "
                         f"{subject['lesion_size']}")
    lesion.validate(atlas)
    hyper = HyperParams(n_rois=atlas.n_rois)
    scores = {kind: predict(records[0], init_params(kind, hyper, 0), hyper, kind)
              for kind in MODEL_KINDS}
    if not all(math.isfinite(y) for y in scores.values()):
        raise SystemExit(f"non-finite scores: {scores}")
    for kind in MODEL_KINDS:
        loss, grads, _ = batch_loss_and_grads(prepare_dataset(records, kind),
                                              as_tensors(init_params(kind, hyper, 0)), hyper,
                                              kind, hyper.lam)
        if not (math.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
            raise SystemExit(f"{kind}: non-finite loss {loss} or gradients on a minibatch "
                             f"of {len(records)}")
    print(f"runtime smoke test passed without scipy: {len(records)} subjects, "
          f"lesion of {lesion.size} voxels, {len(scores)} model kinds scored and trained "
          f"on one minibatch")


if __name__ == "__main__":
    main()

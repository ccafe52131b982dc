"""Runtime smoke test: `legnet` generates, checks and scores a cohort with
numpy alone. scipy is blocked before `legnet` is imported, so any scipy
import on these paths raises ImportError.

    python tests/runtime_smoke.py

It builds the default atlas, generates two subjects, regrows subject 0's
lesion and validates it, and scores subject 0 with every model kind. It
prints one line and exits 0 when all of that runs, and exits non-zero
with the reason otherwise. It needs no test framework, so it also runs
where only `pip install .` was done.
"""

import math
import sys

sys.modules["scipy"] = None  # `import scipy` and `from scipy import x` now fail

from legnet.connectome import build_toy_atlas  # noqa: E402
from legnet.model import MODEL_KINDS, HyperParams, init_params, predict  # noqa: E402
from legnet.synthgen import LesionSpec, generate_cohort, grow_lesion  # noqa: E402


def main() -> None:
    atlas = build_toy_atlas()
    records, manifest = generate_cohort(2, atlas, master_seed=3)
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
    print(f"runtime smoke test passed without scipy: {len(records)} subjects, "
          f"lesion of {lesion.size} voxels, {len(scores)} model kinds scored")


if __name__ == "__main__":
    main()

"""The benchmark's three workloads: cohort, cv-train and predict-single.

Each workload is driven as a library by one caller in a closed loop: a call
starts when the previous one has returned. `setup` builds everything the
timed calls need from the workload seed; `run` makes timed calls until the
time is up and checks every output between calls, outside the timed region.
Calls go through module attributes (`synthgen.generate_cohort`, ...), so the
tracer in `tracing.py` sees them when it is installed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from legnet import connectome, diffmath, model, synthgen

POLICY = "hcp-sl"
# Gradient norms at init reach ~1e5 (scores are ~50, features unscaled), so
# each SGD step is clipped to norm SGD_LR * CLIP_NORM; unclipped steps diverge.
SGD_LR = 1e-2
CLIP_NORM = 1.0
COHORT_SHA_CALLS = 4  # the first calls of a cohort run whose files are hashed
GRAD_RTOL = 1e-10
PRED_RTOL = 1e-12


@dataclass(frozen=True)
class Size:
    """Problem size. FULL is what the benchmark measures; SMOKE is a tiny
    copy for the smoke test."""

    grid: tuple[int, int, int] = (32, 32, 32)         # cohort workload atlas
    coarse_grid: tuple[int, int, int] = (16, 16, 16)  # model workloads' atlas
    n_rois: int = 90
    t_len: int = 100
    subjects: int = 32  # model workloads' cohort
    folds: int = 4
    batch: int = 8
    epochs: int = 2


FULL = Size()
SMOKE = Size(grid=(8, 8, 8), coarse_grid=(8, 8, 8), n_rois=12, t_len=20,
             subjects=8, folds=2, batch=2, epochs=1)
SIZES = {"full": FULL, "smoke": SMOKE}


class Stopwatch:
    """Times one call at a time (`with watch: ...`, then `watch.elapsed`);
    `total` sums every timed interval.

    Given a tracer, it records spans only while a call is being timed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0
        self.total = 0.0
        self._start = 0.0
        if tracer is not None:
            tracer.recording = False

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.recording = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        self.total += self.elapsed
        if self.tracer is not None:
            self.tracer.recording = False
        return False


def derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


@dataclass
class Outcome:
    """What one measuring loop did."""

    call_s: list[float] = field(default_factory=list)  # timed call durations
    items: int = 0              # items the timed calls processed
    attempted: int = 0          # calls plus output checks
    failures: list[str] = field(default_factory=list)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    facts: dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def guard(self, what: str, fn, *args):
        """Run one check or call; an exception counts as a failure."""
        try:
            return fn(*args)
        except Exception as exc:  # counted in error_rate, run continues
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


def _atlas(size: Size, grid) -> connectome.ToyAtlas:
    atlas = connectome.build_toy_atlas(n_rois=size.n_rois, grid_dims=grid)
    atlas.validate()
    return atlas


def _cohort_params(size: Size) -> synthgen.CohortParams:
    return synthgen.CohortParams(t_len=size.t_len)


def _validate_record(rec: connectome.SubjectRecord) -> None:
    rec.validate()
    rec.lesion.validate()
    connectome.validate_connectivity(rec.x)


def _same_record(a: connectome.SubjectRecord, b: connectome.SubjectRecord) -> bool:
    return (a.id == b.id and np.float64(a.y).tobytes() == np.float64(b.y).tobytes()
            and a.lesion.p.tobytes() == b.lesion.p.tobytes() and a.x.tobytes() == b.x.tobytes())


# ----------------------------------------------------------------------
# cohort: generate_cohort + save_cohort -> load_cohort on the default atlas
# ----------------------------------------------------------------------


@dataclass
class CohortInputs:
    atlas: connectome.ToyAtlas
    params: synthgen.CohortParams
    seed: int
    workdir: Path


def setup_cohort(seed: int, size: Size, workdir: Path) -> CohortInputs:
    return CohortInputs(_atlas(size, size.grid), _cohort_params(size), seed, workdir)


def _cohort_call(inp: CohortInputs, path: Path, i: int):
    records, _ = synthgen.generate_cohort(
        1, inp.atlas, derived_seed(inp.seed, i), inp.params, synthgen.policy_by_name(POLICY))
    connectome.save_cohort(path, records)
    return records, connectome.load_cohort(path)


def run_cohort(inp: CohortInputs, seconds: float, watch: Stopwatch) -> Outcome:
    out = Outcome()
    path = inp.workdir / f"cohort-{os.getpid()}.bin"
    sha = hashlib.sha256()
    first_file = b""
    try:
        i = 0
        deadline = time.perf_counter() + seconds
        while i < COHORT_SHA_CALLS + 1 or time.perf_counter() < deadline:
            out.attempted += 1
            if i == 0:  # warms caches (the atlas ROI order); not timed
                got = out.guard("cohort call 0", _cohort_call, inp, path, 0)
            else:
                with watch:
                    got = out.guard(f"cohort call {i}", _cohort_call, inp, path, i)
                if got is not None:
                    out.call_s.append(watch.elapsed)
                    out.items += len(got[0])
            if got is None:
                i += 1
                continue
            for rec in got[0]:
                out.attempted += 1
                out.guard(f"cohort call {i} record {rec.id}", _validate_record, rec)
            out.check(len(got[0]) == len(got[1]) and all(map(_same_record, *got)),
                      f"cohort call {i}: save/load round trip is not lossless")
            if i < COHORT_SHA_CALLS:
                data = path.read_bytes()
                sha.update(data)
                first_file = first_file or data
            i += 1
        again = out.guard("cohort regenerate call 0", _cohort_call, inp, path, 0)
        out.check(again is not None and path.read_bytes() == first_file,
                  "cohort call 0 is not reproducible within the run")
    finally:
        path.unlink(missing_ok=True)
    out.named["cohort_subjects_per_s"] = (out.items / sum(out.call_s), "1/s")
    out.facts["cohort_sha256"] = sha.hexdigest()
    return out


# ----------------------------------------------------------------------
# model workloads: shared inputs and the consistency checks
# ----------------------------------------------------------------------


@dataclass
class ModelInputs:
    records: list[connectome.SubjectRecord]
    hyper: model.HyperParams
    prepared: dict[str, list[model.PreparedSubject]]
    params: dict[str, dict[str, np.ndarray]]  # seeded init per kind
    size: Size
    seed: int


def setup_models(seed: int, size: Size, workdir: Path | None = None) -> ModelInputs:
    atlas = _atlas(size, size.coarse_grid)
    records, _ = synthgen.generate_cohort(size.subjects, atlas, seed, _cohort_params(size),
                                          synthgen.policy_by_name(POLICY))
    hyper = model.HyperParams(n_rois=size.n_rois)
    prepared = {kind: model.prepare_dataset(records, kind) for kind in model.MODEL_KINDS}
    params = {kind: model.init_params(kind, hyper, derived_seed(seed, k))
              for k, kind in enumerate(model.MODEL_KINDS)}
    return ModelInputs(records, hyper, prepared, params, size, seed)


def _rel_close(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))
    return bool(np.max(np.abs(a - b), initial=0.0) <= rtol * scale)


def check_consistency(inp: ModelInputs, out: Outcome) -> None:
    """On one minibatch per kind: `predict` equals the batch predictions,
    and the batch gradients equal one whole-batch tape plus `backward`."""
    batch = inp.records[:inp.size.batch]
    for kind in model.MODEL_KINDS:
        params = inp.params[kind]
        prep = inp.prepared[kind][:inp.size.batch]

        def predictions_agree():
            _, _, preds = model.batch_loss_and_grads(
                prep, model.as_tensors(params), inp.hyper, kind, inp.hyper.lam, want_grads=False)
            single = np.array([model.predict(r, params, inp.hyper, kind) for r in batch])
            return _rel_close(single, preds, PRED_RTOL)

        def gradients_agree():
            _, grads, _ = model.batch_loss_and_grads(
                prep, model.as_tensors(params), inp.hyper, kind, inp.hyper.lam)
            tape = diffmath.Tape()
            params_t = model.as_tensors(params)
            total = model.single_tape_batch_loss(tape, prep, params_t, inp.hyper, kind,
                                                 inp.hyper.lam)
            diffmath.backward(tape, total)
            return all(_rel_close(grads[name], params_t[name].grad, GRAD_RTOL) for name in grads)

        for what, fn in (("predict equals batch predictions", predictions_agree),
                         ("batch gradients equal whole-batch tape", gradients_agree)):
            out.attempted += 1
            if out.guard(f"{kind}: {what}", fn) is False:
                out.failures.append(f"{kind}: {what} fails")


# ----------------------------------------------------------------------
# cv-train: seeded K-fold CV of the four kinds with minibatch SGD
# ----------------------------------------------------------------------


def _sgd_step(inp: ModelInputs, params, tensors, batch_idx) -> list[float]:
    losses = []
    for kind in model.MODEL_KINDS:
        prep = [inp.prepared[kind][j] for j in batch_idx]
        loss, grads, _ = model.batch_loss_and_grads(prep, tensors[kind], inp.hyper, kind,
                                                    inp.hyper.lam)
        norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
        step = SGD_LR * min(1.0, CLIP_NORM / norm) if norm > 0 else 0.0
        for name, g in grads.items():
            params[kind][name] -= step * g  # in place: the tensors share these arrays
        losses.append(loss)
    return losses


def _evaluate(inp: ModelInputs, tensors, held) -> list[np.ndarray]:
    preds = []
    for kind in model.MODEL_KINDS:
        prep = [inp.prepared[kind][j] for j in held]
        _, _, p = model.batch_loss_and_grads(prep, tensors[kind], inp.hyper, kind,
                                             inp.hyper.lam, want_grads=False)
        preds.append(p)
    return preds


def run_cv_train(inp: ModelInputs, seconds: float, watch: Stopwatch) -> Outcome:
    """Whole CV rounds (every fold of every kind) until the time is up.

    One timed call is one minibatch SGD step of each of the four kinds on
    the same minibatch; each fold also scores its held-out subjects, timed
    separately.
    """
    out = Outcome()
    size, n = inp.size, len(inp.records)
    n_kinds = len(model.MODEL_KINDS)
    _evaluate(inp, {kind: model.as_tensors(inp.params[kind]) for kind in model.MODEL_KINDS},
              range(size.batch))  # warm-up, not timed

    eval_s, eval_items = 0.0, 0
    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd == 0 or time.perf_counter() < deadline:
        order = np.random.default_rng(derived_seed(inp.seed, rnd)).permutation(n)
        folds = np.array_split(order, size.folds)
        for f, held in enumerate(folds):
            train = np.concatenate([folds[g] for g in range(size.folds) if g != f])
            params = {kind: model.init_params(kind, inp.hyper, derived_seed(inp.seed, rnd, f, k))
                      for k, kind in enumerate(model.MODEL_KINDS)}
            tensors = {kind: model.as_tensors(params[kind]) for kind in model.MODEL_KINDS}
            # key n_kinds: past the per-kind init keys above
            rng = np.random.default_rng(derived_seed(inp.seed, rnd, f, n_kinds))
            for _ in range(size.epochs):
                shuffled = rng.permutation(train)
                for start in range(0, len(shuffled), size.batch):
                    batch_idx = shuffled[start:start + size.batch]
                    out.attempted += 1
                    with watch:
                        losses = out.guard(f"round {rnd} fold {f} step", _sgd_step,
                                           inp, params, tensors, batch_idx)
                    if losses is not None:
                        out.call_s.append(watch.elapsed)
                        out.items += n_kinds * len(batch_idx)
                        out.check(all(map(math.isfinite, losses)),
                                  f"round {rnd} fold {f}: non-finite training loss")
            out.attempted += 1
            with watch:
                preds = out.guard(f"round {rnd} fold {f} eval", _evaluate, inp, tensors, held)
            if preds is not None:
                eval_s += watch.elapsed
                eval_items += n_kinds * len(held)
                out.check(all(np.all(np.isfinite(p)) for p in preds),
                          f"round {rnd} fold {f}: non-finite held-out prediction")
        rnd += 1

    check_consistency(inp, out)
    out.named["train_subject_steps_per_s"] = (out.items / sum(out.call_s), "1/s")
    out.named["eval_subjects_per_s"] = (eval_items / eval_s, "1/s")
    out.facts["cv_rounds"] = rnd
    return out


# ----------------------------------------------------------------------
# predict-single: model.predict on one subject per call, all four kinds
# ----------------------------------------------------------------------


def _predict_all(inp: ModelInputs, record) -> list[float]:
    return [model.predict(record, inp.params[kind], inp.hyper, kind)
            for kind in model.MODEL_KINDS]


def run_predict_single(inp: ModelInputs, seconds: float, watch: Stopwatch) -> Outcome:
    """One timed call scores one subject under each of the four kinds.

    Calls cycle through the cohort; a subject scored again must get the
    same predictions as the first time.
    """
    out = Outcome()
    n = len(inp.records)
    first: dict[int, list[float]] = {}
    _predict_all(inp, inp.records[0])
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        j = i % n
        out.attempted += 1
        with watch:
            preds = out.guard(f"predict call {i}", _predict_all, inp, inp.records[j])
        i += 1
        if preds is None:
            continue
        out.call_s.append(watch.elapsed)
        out.items += len(preds)
        ok = all(map(math.isfinite, preds)) and first.setdefault(j, preds) == preds
        out.check(ok, f"predict call {i - 1}: non-finite or non-repeatable predictions")

    check_consistency(inp, out)
    p50, p90 = np.percentile(out.call_s, [50, 90]) * 1e3
    out.named["predict_ms_p50"] = (float(p50), "ms")
    out.named["predict_ms_p90"] = (float(p90), "ms")
    return out


# ----------------------------------------------------------------------
# exact counts
# ----------------------------------------------------------------------


# name -> unit; a workload that does not run a layer reports its counts as 0
COUNT_UNITS = {
    "connectome.volume_bytes_per_subject": "bytes-computed",
    "model.h_bytes_per_subject": "bytes-computed",
    **{f"diffmath.tape_nodes_per_subject.{kind}": "count" for kind in model.MODEL_KINDS},
}


def cohort_counts(inp: CohortInputs) -> dict[str, float]:
    """Bytes of the voxel volume one subject materialises (computed)."""
    return {"connectome.volume_bytes_per_subject":
            float(np.prod(inp.atlas.grid_dims) * inp.params.t_len * 8)}


def model_counts(inp: ModelInputs) -> dict[str, float]:
    """Tape nodes one subject's forward records, per kind, and the bytes of
    the edge-feature tensor H (N, N, d0) per subject (computed)."""
    h = inp.hyper
    counts = {"model.h_bytes_per_subject": float(h.n_rois ** 2 * h.d0 * 8)}
    for kind in model.MODEL_KINDS:
        tape = diffmath.Tape()
        model.FORWARDS[kind](tape, inp.prepared[kind][0], model.as_tensors(inp.params[kind]), h)
        counts[f"diffmath.tape_nodes_per_subject.{kind}"] = float(len(tape.nodes))
    return counts


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object   # (seed, size, workdir) -> inputs
    run: object     # (inputs, seconds, Stopwatch) -> Outcome
    counts: object  # inputs -> exact per-layer counts that repeat run to run
    item: str       # what `items` counts
    call: str       # what one timed call does


WORKLOADS = {
    "cohort": Workload("cohort", setup_cohort, run_cohort, cohort_counts, "subject",
                       "generate_cohort(n=1) + save_cohort + load_cohort"),
    "cv-train": Workload("cv-train", setup_models, run_cv_train, model_counts,
                         "training subject-step",
                         "one minibatch SGD step of each of the four kinds"),
    "predict-single": Workload("predict-single", setup_models, run_predict_single, model_counts,
                               "prediction", "predict() of one subject under each kind"),
}

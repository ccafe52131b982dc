#!/usr/bin/env python3
"""Benchmark entry point for the legnet package.

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root. It measures one workload (or `all` three,
each in its own process) for `--seconds` and prints a report, one line per
machine fact, metric and check failure, followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.

`--trace 0` gives the end-to-end metrics. `--trace 1` gives the per-layer
metrics instead: half the time runs untraced, half with the outside-in
tracer installed, and the difference is reported as the tracing overhead.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("cohort", "cv-train", "predict-single")
BLAS_THREADS = 1  # one caller, one BLAS thread: the steadiest figures on a small shared box
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def blas_env() -> dict[str, str]:
    return {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def load_program():
    """Import the program from this checkout's src/ and the benchmark's own
    modules; exit with an error when the program source is not there."""
    if not (SRC / "legnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'legnet'}; run from a full checkout")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import legnet
    if not Path(legnet.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported legnet from {legnet.__file__}, not from {SRC}")
    import machine
    import tracing
    import workloads
    return workloads, tracing, machine


def layer_spans(tracing, model) -> list[tuple[str, tuple[str, ...]]]:
    """(span name, statistics) reported per timed call by a traced run."""
    out = [("connectome.compute_roi_timeseries", ("calls", "self_ms"))]
    out += [(f"connectome.{f}", ("self_ms",)) for f in tracing.CONNECTOME_FUNCS
            if f != "compute_roi_timeseries"]
    out += [(f"synthgen.{f}", ("self_ms",)) for f in tracing.SYNTHGEN_FUNCS]
    out.append(("diffmath.backward", ("calls", "self_ms")))
    out += [(f"model.forward.{kind}", ("total_ms",)) for kind in model.MODEL_KINDS]
    out += [(f"model.{f}", ("self_ms",)) for f in tracing.MODEL_FUNCS]
    out += [(f"diffmath.Tape.{op}", ("calls", "self_ms")) for op in tracing.TAPE_OPS]
    return out


def time_setups(name: str, seed: int, size: str) -> list[float]:
    """Wall time of SETUP_REPEATS fresh processes that each start Python,
    import the program and build the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed), "--size", size]
    env = dict(os.environ, **blas_env())
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return times


def _deciles_ms(values: list[float]) -> list[float]:
    """p10, p20, ..., p90 of the call times, in ms."""
    return [1e3 * q for q in statistics.quantiles(values, n=10, method="inclusive")]


def _check_sha(name, seed, size, src_sha, facts, outcome) -> None:
    """A cohort hash must repeat across runs of the same code and seed; the
    first run of a (code, seed) pair records it in the work directory."""
    hashes = {fact: value for fact, value in facts.items() if fact.endswith("_sha256")}
    if not hashes:
        return
    store = WORKDIR / "sha256.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    for fact, value in hashes.items():
        key = f"{name}/{size}/{seed}/{src_sha}/{fact}"
        outcome.check(known.setdefault(key, value) == value,
                      f"{fact} {value} differs from {known[key]} of an earlier run")
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[list[str], dict]:
    """Run one workload; return the report lines and the result object."""
    workloads, tracing, machine = load_program()
    from legnet import model

    workload = workloads.WORKLOADS[name]
    dims = workloads.SIZES[size]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    facts = machine.facts(ROOT)
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
             f"size={size}",
             f"loop closed, 1 caller; one call = {workload.call}; item = {workload.item}"]
    lines += [f"machine {key} {value}" for key, value in facts.items()]
    metrics: dict[str, tuple[float, str]] = {}

    if trace:
        setup_tracer = tracing.Tracer()
        with setup_tracer.installed():
            inputs = workload.setup(seed, dims, WORKDIR)
        plain_watch = workloads.Stopwatch()
        plain = workload.run(inputs, seconds / 2, plain_watch)
        tracer = tracing.Tracer()
        traced_watch = workloads.Stopwatch(tracer)
        with tracer.installed():
            traced = workload.run(inputs, seconds / 2, traced_watch)
        tracer.save(WORKDIR / f"spans-{name}.npz")
        outcomes = [plain, traced]
        calls = len(traced.call_s)
        spans = tracer.summary()
        validate = setup_tracer.summary().get("connectome.ToyAtlas.validate", {})
        metrics["connectome.ToyAtlas.validate.self_ms"] = (validate.get("self_ms", 0.0), "ms")
        for span, stats in layer_spans(tracing, model):
            for stat in stats:
                value = spans.get(span, {}).get(stat, 0) / calls
                metrics[f"{span}.{stat}"] = (value, "count/call" if stat == "calls" else "ms/call")
        counts = workload.counts(inputs)
        for key, unit in workloads.COUNT_UNITS.items():
            metrics[key] = (counts.get(key, 0.0), unit)
        # all timed work (for cv-train: steps and held-out scoring) per call
        traced_ms = 1e3 * traced_watch.total / calls
        plain_ms = 1e3 * plain_watch.total / len(plain.call_s)
        metrics["bench.traced_call_ms"] = (traced_ms, "ms")
        metrics["bench.trace_overhead_frac"] = (traced_ms / plain_ms - 1.0, "ratio")
        lines.append(f"traced calls {calls}, untraced calls {len(plain.call_s)}")
        top = sorted(spans.items(), key=lambda kv: -kv[1]["self_ms"])[:8]
        lines += [f"self-time share {span} {s['self_ms'] / calls / traced_ms:.1%}"
                  for span, s in top]
    else:
        setups = time_setups(name, seed, size)
        inputs = workload.setup(seed, dims, WORKDIR)
        out = workload.run(inputs, seconds, workloads.Stopwatch())
        outcomes = [out]
        deciles = _deciles_ms(out.call_s)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["call_ms_p90"] = (deciles[8], "ms")
        lines.append(f"timed calls {len(out.call_s)}, items {out.items} "
                     f"({out.items / sum(out.call_s):.6g} 1/s); call ms p10 {deciles[0]:.4g} "
                     f"p50 {deciles[4]:.4g} p90 {deciles[8]:.4g}; "
                     f"set-up runs {', '.join(f'{t:.3f}' for t in setups)} s")

    for outcome in outcomes:
        _check_sha(name, seed, size, facts["src_sha256"], outcome.facts, outcome)
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    lines += [f"metric {key} {value!r} {unit}" for key, (value, unit) in metrics.items()]
    if not trace:
        lines += [f"named {key} {value!r} {unit}" for key, (value, unit) in outcomes[0].named.items()]
        lines.append(f"named error_rate {len(failures) / attempted!r} ratio")
    lines += [f"fact {key} {value}" for o in outcomes for key, value in o.facts.items()]
    lines += [f"failure {f}" for f in failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return lines, result


def run_all(seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Each workload in its own process; metrics come back as
    "<workload>.<metric>"."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--size", size]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + seconds)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with code {done.returncode}")
        *report, last = done.stdout.splitlines()
        print("\n".join(report), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{key}": value
                                    for key, value in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny problem for the benchmark's own smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only takes one workload")
    os.environ.update(blas_env())  # before numpy is imported

    if args.setup_only:
        workloads, _, _ = load_program()
        dims = workloads.SIZES[args.size]
        workloads.WORKLOADS[args.workload].setup(args.seed, dims, WORKDIR)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace), args.size)
    else:
        lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.size)
        print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

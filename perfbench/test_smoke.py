"""Smoke test of the benchmark at a tiny problem size (8^3 grid, 12 ROIs).

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]


def test_traced_run_leaves_the_program_as_it_found_it():
    run.load_program()
    from legnet import connectome, diffmath, model, synthgen

    owners = (connectome, diffmath, model, synthgen, connectome.ToyAtlas, diffmath.Tape,
              model.FORWARDS)

    def snapshot():
        return [dict(owner if isinstance(owner, dict) else vars(owner)) for owner in owners]

    before = snapshot()
    for workload in run.WORKLOAD_NAMES:
        _, result = run.measure(workload, 5, 0.5, True, "smoke")
        assert result["correct"], workload
    after = snapshot()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        changed = [key for key in old if old[key] is not new[key]]
        assert not changed


def test_same_seed_gives_the_same_cohort_hash():
    hashes = []
    for _ in range(2):
        lines, _ = run.measure("cohort", 11, 0.2, False, "smoke")
        hashes += [line for line in lines if line.startswith("fact cohort_sha256")]
    assert len(hashes) == 2 and hashes[0] == hashes[1]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "cohort", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``.

Short runs of every workload, the correctness checks failing on
injected faults, seed handling, and agreement with BENCHMARK.json.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench_run  # noqa: E402
from perfbench import workloads  # noqa: E402
from repro.core.trainer import DistributedTrainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT = "0.1"  # seconds: every measurement still makes one full run


def _invoke(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def _in_process(*args: str) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench_run.main(list(args))
    return code, _result(out.getvalue())


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        bench_run.WORKLOAD_NAMES
    )
    assert set(bench_run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for kind, names in (
        ("end_to_end", workloads.END_TO_END),
        ("per_layer", workloads.PER_LAYER),
    ):
        assert [m["name"] for m in SPEC[kind]] == list(names)
        for metric in SPEC[kind]:
            assert metric["unit"] == workloads.unit_of(metric["name"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_short_run_emits_every_metric(workload, trace):
    done = _invoke(
        "--workload", workload, "--seed", "3", "--seconds", SHORT,
        "--trace", trace,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    for name in expected:  # printed by name with its unit
        assert name in done.stdout
    if trace == "1":
        trace = json.loads(
            (ROOT / "perfbench" / "out" / f"spans-{workload}-seed3.json")
            .read_text()
        )
        assert trace["fields"][:5] == [
            "name", "start_ns", "end_ns", "parent", "step"
        ]
        assert trace["spans"] and all(
            0 <= name < len(trace["names"]) and end >= start
            and step is not None
            for name, start, end, _, step, _ in trace["spans"]
        )


def test_non_finite_loss_fails_the_check(monkeypatch):
    assert workloads.training_problems(
        "run", [1.0, math.nan], [1.0, 0.5], 0.9, 0.1
    )
    real_step = DistributedTrainer.step
    calls = []

    def poisoned(self, batches):
        loss = real_step(self, batches)
        calls.append(loss)
        return math.nan if len(calls) == 3 else loss

    monkeypatch.setattr(DistributedTrainer, "step", poisoned)
    code, result = _in_process(
        "--workload", "ncf-quant", "--seconds", SHORT
    )
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_corrupted_digest_fails_parity(monkeypatch):
    assert workloads.parity_problems("run", {0: "a", 1: "a"}, "b")
    assert workloads.parity_problems("run", {0: "a", 1: "b"}, "a")
    assert not workloads.parity_problems("run", {0: "a", 1: "a"}, "a")
    monkeypatch.setattr(workloads, "_digest", lambda run: "0" * 64)
    code, result = _in_process(
        "--workload", "ncf-quant-parallel", "--seconds", SHORT
    )
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_seed_changes_inputs_not_metrics():
    w = workloads.WORKLOADS["ncf-quant"]
    first = [next(iter(workloads._build(w, s)[1].loader)) for s in (1, 2)]
    assert any(
        (a[0] != b[0]).any() for a, b in zip(first[0], first[1])
    )
    same = next(iter(workloads._build(w, 1)[1].loader))
    assert all((a[0] == b[0]).all() for a, b in zip(first[0], same))
    names = [
        set(_result(_invoke(
            "--workload", "ncf-quant", "--seed", seed, "--seconds", SHORT
        ).stdout)["metrics"])
        for seed in ("1", "2")
    ]
    assert names[0] == names[1] == set(workloads.END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _invoke("--workload", "ncf-quant", "--seconds", SHORT, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_supervisor_waits_for_orphans():
    # A child that exits while its own child still runs, as the resource
    # tracker of the parallel workload does: the reaper must wait for it.
    probe = (
        "import subprocess, sys, time; sys.path.insert(0, '.'); "
        "from perfbench import run; run._become_subreaper(); "
        "subprocess.run(['sh', '-c', 'sleep 0.5 & exit 0']); "
        "start = time.monotonic(); run._reap(5.0); "
        "print(time.monotonic() - start, run._children())"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        cwd=ROOT, timeout=60,
    )
    waited, children = done.stdout.split(" ", 1)
    assert float(waited) > 0.3 and children.strip() == "[]"

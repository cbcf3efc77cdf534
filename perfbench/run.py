"""Run the training benchmark: ``python3 perfbench/run.py --workload W``.

Trains one workload (or ``all``, each in a fresh process) through the
program's public entry points, checks its outputs, prints every metric
by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no tracing;
``--trace 1`` reports the per-layer metrics of a traced run and writes
its spans under ``perfbench/out/``.  The exit code is 0 only when every
correctness check passed.  Run from the root of a source checkout.

Run as a script, the measuring happens in a child process and this one
waits for every process the child leaves behind (see :func:`supervise`),
so nothing the benchmark started is running when it exits.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cnn-fused", "ncf-quant", "ncf-quant-parallel")

#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds left descendants get to end by themselves before they are killed.
REAP_GRACE_S = 20.0

#: Every BLAS/OpenMP pool gets one thread, so the compute threads of a
#: workload's processes (one, or two parallel workers) fit ``nproc``.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=(*WORKLOAD_NAMES, "all")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own fresh process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit code {done.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def _print_table(rows) -> None:
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>14} {unit}")


def _run_one(args) -> int:
    from perfbench.workloads import WORKLOADS, measure, unit_of

    workload = WORKLOADS[args.workload]
    spans_path = (
        ROOT / "perfbench" / "out"
        / f"spans-{args.workload}-seed{args.seed}.json"
    )
    m = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_path
    )
    processes = workload.ranks if workload.parallel else 1
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "thread_env": THREAD_ENV,
        "threads_per_process": 1, "compute_processes": processes,
        "compute_threads": processes, "nproc": os.cpu_count(),
    }
    print(f"# {args.workload}: {json.dumps(meta)}")
    print(f"# {args.workload}: details {json.dumps(m.info, default=str)}")
    share = m.failed / m.attempted if m.attempted else 1.0
    extras = [
        (name, m.info[name], unit)
        for name, unit in (
            ("step_p50_ms", "ms"), ("step_tail_ms", "ms"),
            ("loss_final", "loss"), ("quality_final", "quality"),
            ("speedup_vs_sequential", "x"),
        )
        if name in m.info
    ]
    if "step_tail_percentile" in m.info:
        print(
            f"# step_tail_ms is p{m.info['step_tail_percentile']:g} "
            f"of {m.info['step_samples']} timed steps"
        )
    _print_table(
        [(name, value, unit_of(name)) for name, value in m.metrics.items()]
        + extras + [("ops_failed_share", share, "share")]
    )
    for problem in m.problems:
        print(f"# CHECK FAILED: {problem}")
    correct = not m.problems and m.failed == 0 and bool(m.metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(m.attempted, 1),
        "failed": m.failed if m.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in m.metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run from "
            f"the root of a source checkout", file=sys.stderr,
        )
        return 2
    # Before the first numpy import, in this process and its children.
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


def _become_subreaper() -> None:
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: orphans go to init
        pass


def _children() -> list[int]:
    """Live child pids, read from /proc (orphans are not in any list)."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap(grace: float) -> None:
    """Wait for every child; kill the ones still running after ``grace``."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # none left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def supervise(argv=None) -> int:
    """Run :func:`main` in a child and wait for all it leaves running.

    The parallel workload's shared memory starts multiprocessing's
    resource tracker, which outlives the process that started it by a
    moment.  As a child subreaper this process inherits such orphans, and
    it returns only once every one of them has ended.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    _become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv]
        + ["--supervised"]
    )
    try:
        code = child.wait()
    except BaseException:  # interrupted: stop everything now
        child.kill()
        _reap(0.0)
        raise
    _reap(REAP_GRACE_S)
    return code


if __name__ == "__main__":
    if "--supervised" in sys.argv[1:]:
        sys.exit(main([a for a in sys.argv[1:] if a != "--supervised"]))
    sys.exit(supervise())

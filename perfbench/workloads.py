"""The three workloads: how each is trained, timed and checked.

Every workload is a closed loop: synchronous SGD starts step *k+1* only
after step *k* returns.  A *training run* builds the cell from the seed
through :func:`repro.bench.runner.build_trainer` and trains it for the
workload's epochs; a measurement repeats training runs until its time
is up and reports medians.  All runs of one measurement use the same
seed, so their outputs must agree bit for bit.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.bench.runner import build_trainer
from repro.bench.suite import get_benchmark
from repro.comm.parallel import ParallelRunConfig, model_digest, run_parallel

from perfbench.spans import (
    FORWARD_TYPES,
    RANK_METRICS,
    SpanRecorder,
    instrument_sim,
    parallel_layer_metrics,
    parallel_rows,
    sim_layer_metrics,
    write_spans,
)

ROOT = Path(__file__).resolve().parent.parent

#: Sim throughput is taken at this percentile of the step wall times.
FAST_PERCENTILE = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    compressor: str
    ranks: int
    fusion_mb: float
    epochs: int  # per training run
    parallel: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Compute-bound conv: forward_backward is ~95% of the step.
        Workload("cnn-fused", "resnet20-cifar10", "topk", 4, 4.0, 6),
        # Compression-bound, no conv: per-tensor quantize/dequantize.
        Workload("ncf-quant", "ncf-movielens", "qsgd", 4, 0.0, 6),
        # The same cell on real processes: shared-memory collectives
        # and process set-up.  Long enough that spawn jitter is small
        # against the marginal training time.
        Workload(
            "ncf-quant-parallel", "ncf-movielens", "qsgd", 2, 0.0, 24,
            parallel=True,
        ),
    )
}

#: Metrics gated by BENCHMARK.json, with their units.
END_TO_END = {
    "samples_per_s": "samples/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "wire_bytes_per_step": "B",
}

#: Per-layer metrics of the traced run (``--trace 1``).
PER_LAYER = (
    "ndl.compute_ms", "ndl.forward_ms",
    *(f"ndl.forward.{name}_ms" for name in FORWARD_TYPES),
    "ndl.forward.other_ms", "ndl.backward_ms", "ndl.optim_ms",
    "ndl.data_wait_ms",
    "core.compressors.compress_ms", "core.compressors.compress_calls",
    "core.compressors.decompress_ms", "core.compressors.decompress_calls",
    "core.compressors.aggregate_ms", "core.compressors.ratio",
    "core.memory.compensate_ms", "core.memory.update_ms",
    "comm.collective_ms", "comm.collective_calls", "comm.bytes_per_call",
    "core.trainer.self_ms", "step_wall_ms",
    *(f"{name}.rank{rank}" for rank in (0, 1) for name in RANK_METRICS),
    "trace_overhead",
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    stem = name.split(".rank")[0]
    if stem.endswith("_ms"):
        return "ms"
    if stem.endswith("_calls"):
        return "count"
    return {
        "core.compressors.ratio": "B/B",
        "comm.bytes_per_call": "B",
        "trace_overhead": "ratio",
    }[stem]


@dataclass
class Measurement:
    """What one invocation measured and whether its outputs held up."""

    attempted: int = 0  # training steps attempted
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)  # printed, not gated

    def fail(self, steps: int, problems: list[str]) -> None:
        self.failed += steps
        self.problems.extend(problems)

    def attempt(self, label: str, steps: int, fn):
        """Run ``fn``; a raise fails all of its ``steps``."""
        self.attempted += steps
        try:
            return fn()
        except Exception as exc:  # boundary: report and keep measuring
            traceback.print_exc(file=sys.stderr)
            self.fail(steps, [f"{label}: {type(exc).__name__}: {exc}"])
            return None


def training_problems(
    label: str, losses, epoch_losses, quality: float, untrained: float
) -> list[str]:
    """The checks every training run must pass."""
    problems = []
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    if bad:
        problems.append(f"{label}: non-finite loss at steps {bad[:5]}")
    elif not epoch_losses[-1] < epoch_losses[0]:
        problems.append(
            f"{label}: last-epoch loss {epoch_losses[-1]:.6g} is not below "
            f"the first epoch's {epoch_losses[0]:.6g}"
        )
    if not quality > untrained:
        problems.append(
            f"{label}: quality {quality:.6g} does not beat the untrained "
            f"model's {untrained:.6g}"
        )
    return problems


def parity_problems(label: str, digests: dict, reference: str) -> list[str]:
    """Every rank must end on the sequential run's exact model."""
    if set(digests.values()) == {reference}:
        return []
    return [
        f"{label}: rank digests {digests} differ from the sequential "
        f"run's {reference}"
    ]


def _build(w: Workload, seed: int):
    return build_trainer(
        get_benchmark(w.benchmark), w.compressor, n_workers=w.ranks,
        seed=seed, fusion_mb=w.fusion_mb,
    )


def _digest(run) -> str:
    return model_digest({
        name: np.asarray(param.data)
        for name, param in run.model.named_parameters()
    })


def setup_seconds(name: str, seed: int, t0: float) -> float:
    """Seconds from ``t0`` (before any import) through the warm-up step."""
    trainer, run = _build(WORKLOADS[name], seed)
    trainer.step(next(iter(run.loader)))
    return time.perf_counter() - t0


_PROBE = (
    "import time; t0 = time.perf_counter(); import sys; "
    "sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1]]; "
    "from perfbench.workloads import setup_seconds; "
    "print(setup_seconds(sys.argv[2], int(sys.argv[3]), t0))"
)


def _probe_setup(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    best = 50.0
    for percentile in (90.0, 95.0, 99.0, 99.9):
        if n * (1 - percentile / 100) >= 10:
            best = percentile
    return best, float(np.percentile(samples, best))


def _sim_run(w: Workload, seed: int, m: Measurement, recorder=None):
    """One training run driven step by step; returns its record."""
    trainer, run = _build(w, seed)
    steps_per_epoch = len(run.loader)
    untrained = run.eval_fn()
    if recorder is not None:
        instrument_sim(recorder, trainer, run)
    step_seconds: list[float] = []
    losses: list[float] = []
    epoch_losses: list[float] = []
    timed_from = None  # end of the warm-up step
    timed_samples = 0
    for _ in range(w.epochs):
        loader = iter(run.loader)
        epoch = []
        for _ in range(steps_per_epoch):
            tracing = recorder is not None and timed_from is not None
            start = time.perf_counter()
            if tracing:
                recorder.begin_step()
                wait = recorder.open("ndl.data_wait")
            batches = next(loader)
            if tracing:
                recorder.close(wait)
            before = trainer.report.samples_processed
            try:
                loss = trainer.step(batches)
            except Exception:
                if tracing:
                    recorder.abandon_step()
                raise
            end = time.perf_counter()
            if tracing:
                recorder.end_step()
            if timed_from is None:
                timed_from = end
            else:
                step_seconds.append(end - start)
                timed_samples += trainer.report.samples_processed - before
            epoch.append(loss)
        losses.extend(epoch)
        epoch_losses.append(float(np.mean(epoch)))
    quality = run.eval_fn()
    steps = w.epochs * steps_per_epoch
    label = f"{w.name} ranks={w.ranks} seed={seed}"
    problems = training_problems(
        label, losses, epoch_losses, quality, untrained
    )
    if problems:
        m.fail(steps, problems)
    return {
        "steps": steps,
        "samples": timed_samples,
        "wall": end - timed_from,
        "step_seconds": step_seconds,
        "losses": losses,
        "loss_final": epoch_losses[-1],
        "quality": quality,
        "untrained": untrained,
        "digest": _digest(run),
        "wire": trainer.report.bytes_per_worker_per_iteration,
    }


def _rate(records) -> float:
    """Timed samples over timed wall seconds, summed across runs."""
    return (
        sum(r["samples"] for r in records) / sum(r["wall"] for r in records)
    )


def _fast_step_rate(records) -> float:
    """Mean samples per step over a fast step's wall seconds.

    The host switches between a fast and a slow speed every second or
    so, and the share of time it spends slow changes from minute to
    minute, which moves the mean and even the median step.  The
    ``FAST_PERCENTILE`` step is a fast-speed step as long as that share
    of the run had the fast speed, so it follows the program, not the
    neighbours.  Every step trains the same number of samples.
    """
    seconds = [s for r in records for s in r["step_seconds"]]
    samples = sum(r["samples"] for r in records)
    return samples / len(seconds) / float(
        np.percentile(seconds, FAST_PERCENTILE)
    )


def _steps(w: Workload, seed: int) -> int:
    return w.epochs * len(_build(w, seed)[1].loader)


def measure_sim(w: Workload, seed: int, seconds: float, trace: bool,
                spans_path: Path) -> Measurement:
    m = Measurement()
    steps = _steps(w, seed)
    setups = []
    recorder = SpanRecorder() if trace else None
    plain, traced = [], []
    # Traced runs alternate with plain ones so drift hits both alike.
    kinds = [(None, plain)] + ([(recorder, traced)] if trace else [])
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if not trace:
            # One fresh-process set-up a round, so the set-ups meet the
            # host's speeds across the whole run, as the training does.
            setup = m.attempt(
                "setup probe", 0, lambda: _probe_setup(w.name, seed)
            )
            if setup is not None:
                setups.append(setup)
        for rec, runs in kinds:
            label = "traced run" if rec is not None else "run"
            record = m.attempt(label, steps, lambda: _sim_run(w, seed, m, rec))
            if record is not None:
                runs.append(record)
        if 2 * time.perf_counter() - start > deadline:
            break  # another round would overrun the time
    if not plain or not (setups or trace):
        return m
    digests = {record["digest"] for record in plain + traced}
    if len(digests) != 1:
        m.fail(steps, [f"{w.name}: same-seed runs ended on {len(digests)} "
                       f"different models (tracing must not perturb)"])
    first = plain[0]
    step_seconds = [s for record in plain for s in record["step_seconds"]]
    percentile, tail = _tail(step_seconds)
    m.info.update(
        runs=len(plain), epochs=w.epochs,
        mean_samples_per_s=_rate(plain),
        step_p50_ms=1000 * statistics.median(step_seconds),
        step_tail_ms=1000 * tail, step_tail_percentile=percentile,
        step_samples=len(step_seconds),
        loss_final=first["loss_final"], quality_final=first["quality"],
        quality_untrained=first["untrained"],
        setup_samples_s=setups,
    )
    if trace:
        if traced:
            layer, details = sim_layer_metrics(recorder)
            layer.update({
                f"{name}.rank{rank}": 0.0
                for rank in (0, 1) for name in RANK_METRICS
            })
            layer["trace_overhead"] = (
                _fast_step_rate(traced) / _fast_step_rate(plain)
            )
            m.metrics = layer
            m.info["trace"] = details
            if abs(details["unattributed_share"]) > 0.02:
                m.fail(0, [
                    f"{w.name}: layer metrics miss "
                    f"{details['unattributed_share']:.1%} of the step wall"
                ])
            write_spans(
                spans_path,
                {"workload": w.name, "seed": seed, "backend": "sim"},
                recorder.rows(),
            )
        return m
    m.metrics = {
        "samples_per_s": _fast_step_rate(plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "wire_bytes_per_step": first["wire"],
    }
    return m


def _timed_parallel(config: ParallelRunConfig):
    start = time.perf_counter()
    result = run_parallel(config)
    return result, time.perf_counter() - start


def _marginal_rate(pairs, one_epoch_walls) -> float:
    """Median samples per second beyond a one-epoch run.

    Subtracting the one-epoch run (median of its walls) takes process
    spawn, imports and build out of the rate.
    """
    spawn = statistics.median(one_epoch_walls)
    return statistics.median(
        (full.report.samples_processed - one.report.samples_processed)
        / (wall - spawn)
        for one, full, wall in pairs
    )


def measure_parallel(w: Workload, seed: int, seconds: float, trace: bool,
                     spans_path: Path) -> Measurement:
    m = Measurement()
    config = ParallelRunConfig(
        benchmark=w.benchmark, compressor=w.compressor, nproc=w.ranks,
        seed=seed, epochs=w.epochs, fusion_mb=w.fusion_mb,
    )
    steps = _steps(w, seed)
    one_epoch_steps = steps // w.epochs
    # The 2-rank sequential run of the same config: the parity target
    # and the baseline of speedup_vs_sequential.
    reference = m.attempt(
        "sequential reference", steps, lambda: _sim_run(w, seed, m)
    )
    if reference is None:
        return m
    walls = {False: [], True: []}  # traced? -> one-epoch run walls
    pairs = {False: [], True: []}  # traced? -> (one-epoch, full, full wall)
    layer_runs = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            label = "traced parallel run" if traced else "parallel run"
            one = m.attempt(
                f"one-epoch {label}", one_epoch_steps,
                lambda: _timed_parallel(
                    replace(config, epochs=1, trace=traced)
                ),
            )
            full = m.attempt(
                label, steps,
                lambda: _timed_parallel(replace(config, trace=traced)),
            )
            if one is None or full is None:
                continue
            walls[traced].append(one[1])
            pairs[traced].append((one[0], *full))
            result = full[0]
            problems = parity_problems(
                label, result.digests, reference["digest"]
            ) + training_problems(
                label, result.report.losses, result.report.epoch_losses,
                result.report.epoch_quality[-1], reference["untrained"],
            )
            if problems:
                m.fail(steps, problems)
            if traced:
                layer_runs.append(result.events)
        if 2 * time.perf_counter() - start > deadline:
            break  # another round would overrun the time
    if not pairs[False]:
        return m
    rate = _marginal_rate(pairs[False], walls[False])
    sequential = _rate([reference])
    report = pairs[False][0][1].report
    m.info.update(
        runs=len(pairs[False]), epochs=w.epochs,
        loss_final=report.epoch_losses[-1],
        quality_final=report.epoch_quality[-1],
        quality_untrained=reference["untrained"],
        speedup_vs_sequential=rate / sequential,
        sequential_samples_per_s=sequential,
        one_epoch_walls_s=walls[False],
        full_run_walls_s=[wall for _, _, wall in pairs[False]],
    )
    if trace:
        if layer_runs:
            per_run = [
                parallel_layer_metrics(events, w.ranks)
                for events in layer_runs
            ]
            m.metrics = {
                name: statistics.mean(metrics[name] for metrics, _ in per_run)
                for name in per_run[0][0]
            }
            m.metrics["trace_overhead"] = (
                _marginal_rate(pairs[True], walls[True]) / rate
            )
            m.info["trace"] = per_run[-1][1]
            write_spans(
                spans_path,
                {"workload": w.name, "seed": seed, "backend": "parallel"},
                parallel_rows(layer_runs[-1]),
            )
        return m
    m.metrics = {
        "samples_per_s": rate,
        "setup_s": statistics.median(walls[False]),
        "peak_rss_mb": _peak_rss_mb(),
        "wire_bytes_per_step": report.bytes_per_worker_per_iteration,
    }
    return m


def measure(name: str, seed: int, seconds: float, trace: bool,
            spans_path: Path) -> Measurement:
    w = WORKLOADS[name]
    fn = measure_parallel if w.parallel else measure_sim
    return fn(w, seed, seconds, trace, spans_path)

"""Spans recorded from outside the program, and the per-layer metrics.

The benchmark does not edit the program to trace it.  For the sequential
simulator it replaces public methods on the objects it builds (the task,
every ndl module, the compressors, the memories and the communicator)
with wrappers that record a span per call.  For the parallel backend it
reads the per-rank phase spans the program emits under
``ParallelRunConfig(trace=True)``.  Either way the spans stay in memory
and are written out once, when the run ends.

A span is ``(name, start, end, parent, step)``; every span of one
training step carries that step's id.  A layer's time is the sum of its
spans' *self* time (duration minus the time covered by child spans), so
nested calls (``compress_fused`` falling back to ``compress``, a memory
update that decompresses) are never counted twice.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

#: ndl layer types reported under their own name; every other module
#: type (containers, activations, pooling) is summed into ``other``.
FORWARD_TYPES = ("Conv2d", "BatchNorm2d", "Linear", "Embedding")

_COMPRESSOR_METHODS = {
    "compress": "core.compressors.compress",
    "compress_fused": "core.compressors.compress",
    "decompress": "core.compressors.decompress",
    "decompress_fused": "core.compressors.decompress",
    "decompress_aggregated": "core.compressors.decompress",
    "aggregate": "core.compressors.aggregate",
    "aggregate_compressed": "core.compressors.aggregate",
}
_MEMORY_METHODS = {
    "compensate": "core.memory.compensate",
    "compensate_fused": "core.memory.compensate",
    "update": "core.memory.update",
    "update_fused": "core.memory.update",
}
_COLLECTIVES = (
    "allreduce", "allreduce_parts", "allgather", "iallreduce_parts",
    "iallgather", "sparse_allreduce", "broadcast", "allreduce_compressed",
)

#: Layers whose self times, with ``core.trainer.self_ms``, make up the
#: step wall (``ndl.compute_ms`` already includes the forward spans).
ADDITIVE = (
    "ndl.compute_ms", "ndl.optim_ms", "ndl.data_wait_ms",
    "core.compressors.compress_ms", "core.compressors.decompress_ms",
    "core.compressors.aggregate_ms", "core.memory.compensate_ms",
    "core.memory.update_ms", "comm.collective_ms", "core.trainer.self_ms",
)

#: Program span name (``repro.core.trainer``) -> layer, for parallel runs.
_PARALLEL_PHASES = {
    "compute": "ndl.compute",
    "memory_compensate": "core.memory.compensate",
    "compress": "core.compressors.compress",
    "collective": "comm.collective",
    "decompress": "core.compressors.decompress",
    "aggregate": "core.compressors.aggregate",
    "apply_update": "ndl.optim",
    "iteration": "core.trainer",
}
#: Program span attribute -> the byte count the wrappers record.
_PARALLEL_COUNTS = {
    "nbytes_in": "bytes_in", "nbytes_out": "bytes_out",
    "bytes_per_worker": "bytes",
}
#: Per-rank metrics of the parallel workload (suffixed ``.rank<N>``).
RANK_METRICS = (
    "ndl.compute_ms", "core.memory.compensate_ms",
    "core.compressors.compress_ms", "comm.collective_ms",
    "core.compressors.decompress_ms", "core.compressors.aggregate_ms",
    "ndl.optim_ms", "core.trainer.self_ms", "step_wall_ms",
)
#: Layers the parallel backend's spans do not separate; reported as 0.
UNOBSERVED_PARALLEL = (
    "ndl.forward_ms", *(f"ndl.forward.{t}_ms" for t in FORWARD_TYPES),
    "ndl.forward.other_ms", "ndl.backward_ms", "ndl.data_wait_ms",
    "core.memory.update_ms",
)


class SpanRecorder:
    """In-memory span store fed by method wrappers.

    Spans are recorded only while a step is open (:meth:`begin_step`),
    so warm-up steps and evaluation pass through the wrappers untimed.
    """

    def __init__(self):
        self.epoch = time.perf_counter()
        # One row per span: [name, start, end, parent index, step, attrs]
        self.spans: list[list] = []
        self.layer_of: dict[str, str] = {
            "iteration": "iteration", "ndl.data_wait": "ndl.data_wait",
        }
        self.step: int | None = None
        self.steps = 0
        self._step_first = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.step, None]
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_step(self) -> None:
        self.step = self.steps
        self.steps += 1
        self._step_first = len(self.spans)
        self.open("iteration")

    def end_step(self) -> None:
        self.close(self._stack[-1])
        self.step = None

    def abandon_step(self) -> None:
        """Drop a step that raised mid-way, with its unfinished spans."""
        del self.spans[self._step_first:]
        self._stack.clear()
        self.step = None

    def wrap(self, obj, method: str, layer: str, note=None, counter=None):
        """Replace ``obj.method`` with a wrapper recording one span a call.

        ``note(args, result)`` returns attributes for the span;
        ``counter()`` is read before and after the call and the
        difference stored as the span's ``bytes``.
        """
        inner = getattr(obj, method)
        name = f"{layer}.{method}"
        self.layer_of[name] = layer
        recorder = self

        def traced(*args, **kwargs):
            if recorder.step is None:
                return inner(*args, **kwargs)
            before = counter() if counter is not None else 0.0
            index = recorder.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                recorder.close(index)
            if counter is not None:
                recorder.spans[index][5] = {"bytes": counter() - before}
            elif note is not None:
                recorder.spans[index][5] = note(args, result)
            return result

        setattr(obj, method, traced)

    def rows(self):
        """Spans as ``(name, start, end, parent, step, attrs)`` rows."""
        for name, start, end, parent, step, attrs in self.spans:
            yield (
                name, start - self.epoch, end - self.epoch,
                parent if parent >= 0 else None, step, attrs,
            )


def _compress_note(args, result) -> dict:
    return {"bytes_in": int(args[0].nbytes), "bytes_out": int(result.nbytes)}


def instrument_sim(recorder: SpanRecorder, trainer, run) -> None:
    """Wrap every layer entry point of one sequential-simulator cell."""
    recorder.wrap(trainer, "step", "core.trainer")
    recorder.wrap(trainer.task, "forward_backward", "ndl.compute")
    recorder.wrap(trainer.task, "apply_update", "ndl.optim")
    seen: set[int] = set()
    for module in run.model.modules():
        if id(module) not in seen:
            seen.add(id(module))
            recorder.wrap(
                module, "forward", f"ndl.forward.{type(module).__name__}"
            )
    for compressor in trainer.compressors:
        for method, layer in _COMPRESSOR_METHODS.items():
            note = (
                _compress_note if layer == "core.compressors.compress"
                else None
            )
            recorder.wrap(compressor, method, layer, note=note)
    for memory in trainer.memories:
        for method, layer in _MEMORY_METHODS.items():
            recorder.wrap(memory, method, layer)
    comm = trainer.comm
    for method in _COLLECTIVES:
        if hasattr(comm, method):
            recorder.wrap(
                comm, method, "comm.collective",
                counter=lambda: comm.record.bytes_sent_per_worker,
            )


def _layer_totals(layers, durations, parents, attrs, root: str):
    """Self time, entry calls and byte counts summed per layer.

    A call counts when a layer is entered from another layer, so a
    ``compress`` nested in ``compress_fused`` is one call, not two.
    ``seconds["step_wall"]`` is the total duration of the ``root`` spans.
    """
    covered = [0.0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for index, layer in enumerate(layers):
        seconds[layer] += durations[index] - covered[index]
        if layer == root:
            seconds["step_wall"] += durations[index]
        parent = parents[index]
        if parent >= 0 and layers[parent] == layer:
            continue
        calls[layer] += 1
        for key, value in (attrs[index] or {}).items():
            counts[f"{layer}.{key}"] += value
    return seconds, calls, counts


def _per_step(seconds, calls, counts, steps: int) -> dict[str, float]:
    ms = 1000.0 / steps
    compressed_in = counts["core.compressors.compress.bytes_in"]
    collective_calls = calls["comm.collective"]
    return {
        "ndl.compute_ms": (
            seconds["ndl.compute"] + seconds["ndl.forward"]
        ) * ms,
        "ndl.optim_ms": seconds["ndl.optim"] * ms,
        "ndl.data_wait_ms": seconds["ndl.data_wait"] * ms,
        "core.compressors.compress_ms": (
            seconds["core.compressors.compress"] * ms
        ),
        "core.compressors.compress_calls": (
            calls["core.compressors.compress"] / steps
        ),
        "core.compressors.decompress_ms": (
            seconds["core.compressors.decompress"] * ms
        ),
        "core.compressors.decompress_calls": (
            calls["core.compressors.decompress"] / steps
        ),
        "core.compressors.aggregate_ms": (
            seconds["core.compressors.aggregate"] * ms
        ),
        "core.compressors.ratio": (
            counts["core.compressors.compress.bytes_out"] / compressed_in
            if compressed_in else 0.0
        ),
        "core.memory.compensate_ms": seconds["core.memory.compensate"] * ms,
        "core.memory.update_ms": seconds["core.memory.update"] * ms,
        "comm.collective_ms": seconds["comm.collective"] * ms,
        "comm.collective_calls": collective_calls / steps,
        "comm.bytes_per_call": (
            counts["comm.collective.bytes"] / collective_calls
            if collective_calls else 0.0
        ),
        "core.trainer.self_ms": seconds["core.trainer"] * ms,
        "step_wall_ms": seconds["step_wall"] * ms,
    }


def sim_layer_metrics(recorder: SpanRecorder) -> tuple[dict, dict]:
    """Per-step layer metrics of a wrapped sequential run, plus details.

    The details carry the per-type forward self times, the compression
    base (bytes in per step) and the additivity check: the layer
    metrics plus ``core.trainer.self_ms`` against the step wall.
    """
    spans = recorder.spans
    seconds, calls, counts = _layer_totals(
        [recorder.layer_of[row[0]] for row in spans],
        [end - start for _, start, end, _, _, _ in spans],
        [row[3] for row in spans],
        [row[5] for row in spans],
        root="iteration",
    )
    forward_types = {
        layer[len("ndl.forward."):]: value
        for layer, value in seconds.items()
        if layer.startswith("ndl.forward.")
    }
    seconds["ndl.forward"] = sum(forward_types.values())
    steps = calls["iteration"]
    metrics = _per_step(seconds, calls, counts, steps)
    ms = 1000.0 / steps
    metrics["ndl.forward_ms"] = seconds["ndl.forward"] * ms
    metrics["ndl.backward_ms"] = seconds["ndl.compute"] * ms
    for name in FORWARD_TYPES:
        metrics[f"ndl.forward.{name}_ms"] = forward_types.pop(name, 0.0) * ms
    metrics["ndl.forward.other_ms"] = sum(forward_types.values()) * ms
    layer_sum = sum(metrics[name] for name in ADDITIVE)
    wall = metrics["step_wall_ms"]
    details = {
        "steps": steps,
        "forward_self_ms_by_type": {
            **{t: metrics[f"ndl.forward.{t}_ms"] for t in FORWARD_TYPES},
            **{t: v * ms for t, v in sorted(forward_types.items())},
        },
        "compress_bytes_in_per_step": (
            counts["core.compressors.compress.bytes_in"] / steps
        ),
        "layer_sum_ms": layer_sum,
        "unattributed_share": (wall - layer_sum) / wall,
    }
    return metrics, details


def parallel_layer_metrics(events: list[dict], nproc: int) -> tuple[dict, dict]:
    """Per-rank and rank-mean layer metrics from parallel trace events.

    ``comm.collective_ms.rank<N>`` includes waiting for the slower peer,
    so one rank's compute imbalance shows up as the other's collective.
    """
    by_rank: dict[int, list[dict]] = defaultdict(list)
    for event in events:
        by_rank[event["attrs"]["rank"]].append(event)
    per_rank = {}
    for rank in range(nproc):
        rank_events = by_rank[rank]
        index_of = {event["id"]: i for i, event in enumerate(rank_events)}
        parents = [
            index_of.get(event.get("parent"), -1) for event in rank_events
        ]
        layers = [_PARALLEL_PHASES[event["name"]] for event in rank_events]
        attrs = [
            {
                ours: event["attrs"][theirs]
                for theirs, ours in _PARALLEL_COUNTS.items()
                if theirs in event["attrs"]
            }
            for event in rank_events
        ]
        seconds, calls, counts = _layer_totals(
            layers, [event["dur"] for event in rank_events], parents, attrs,
            root="core.trainer",
        )
        per_rank[rank] = _per_step(
            seconds, calls, counts, calls["core.trainer"]
        )
    metrics = {
        name: sum(values[name] for values in per_rank.values()) / nproc
        for name in per_rank[0]
    }
    for name in UNOBSERVED_PARALLEL:
        metrics[name] = 0.0
    for rank, values in per_rank.items():
        for name in RANK_METRICS:
            metrics[f"{name}.rank{rank}"] = values[name]
    details = {
        "collective_share_by_rank": {
            rank: values["comm.collective_ms"] / values["step_wall_ms"]
            for rank, values in per_rank.items()
        },
        "unobserved": list(UNOBSERVED_PARALLEL),
    }
    return metrics, details


def parallel_rows(events: list[dict]):
    """Parallel trace events as span rows, with their step ids."""
    by_id = {event["id"]: event for event in events}
    for event in events:
        root = event
        while root["name"] != "iteration":
            root = by_id[root["parent"]]
        yield (
            event["name"], event["ts"], event["ts"] + event["dur"],
            event["parent"], root["attrs"]["iteration"],
            {"rank": event["attrs"]["rank"]},
        )


#: Columns of a written span row; times are ns from the trace's start.
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "step", "attrs")


def write_spans(path: Path, header: dict, rows) -> None:
    """Write spans once, at the end of a run, as compact rows.

    ``name`` is an index into the ``names`` list; ``parent`` is the
    parent's row index (sim) or its program span id (parallel).
    """
    names: dict[str, int] = {}
    table = [
        [
            names.setdefault(name, len(names)), round(start * 1e9),
            round(end * 1e9), parent, step, attrs,
        ]
        for name, start, end, parent, step, attrs in rows
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {**header, "fields": SPAN_FIELDS, "names": list(names),
             "spans": table},
            handle, separators=(",", ":"),
        )

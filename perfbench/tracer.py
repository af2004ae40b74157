"""Spans around the public entry points of each layer.

The traced run patches the call sites listed in :data:`LAYER_TARGETS`
with timing wrappers for the length of one pass, then restores them, so
untraced passes run the program unmodified.  Spans are kept in memory
as ``(name, start, end, parent)`` tuples; a span's self time is its
duration minus the durations of its direct children.

Wrappers only record in the process that created the tracer: the socket
runtime and the sharded offline pipeline fork children, and a forked
child calls the original function straight through.
"""

from __future__ import annotations

import importlib
import os
import selectors
import time
import types
from typing import Callable, Dict, List, Optional, Set, Tuple

#: Allowed ``sum |window - sum of self times| / sum of windows`` over
#: the traced passes of a run.  Self times telescope to the root spans,
#: so this bounds the time passes spend outside any wrapped root plus
#: the wrapper cost at the root boundary.
SELF_SUM_SLACK = 0.05


def _count(key: str, amount: Callable) -> Callable:
    def hook(tracer: "Tracer", args: tuple, result) -> None:
        tracer.counters[key] = tracer.counters.get(key, 0) + amount(
            args, result
        )

    return hook


def _set(key: str, value: Callable) -> Callable:
    def hook(tracer: "Tracer", args: tuple, result) -> None:
        tracer.counters[key] = value(args, result)

    return hook


def _wire_stats(tracer: "Tracer", args: tuple, result) -> None:
    stats = result[1]
    tracer.counters["delta.frames"] = stats.frames
    tracer.counters["delta.resyncs"] = stats.resyncs
    tracer.counters["delta.payload_bytes"] = stats.payload_bytes


def _shards(args: tuple, result) -> int:
    return 1 if result is None else result[2]


def _traffic_window(tracer: "Tracer", args: tuple, result) -> None:
    # The coordinator's first-offer / last-commit instants (both
    # ``time.monotonic``, the clock ``perf_counter`` also reads on
    # Linux) bound the window ``busy_share`` is taken over.
    coordinator = args[0]
    first = getattr(coordinator, "_first_offer_t", None)
    last = getattr(coordinator, "_last_commit_t", None)
    if first is not None and last is not None:
        tracer.counters["distributed.traffic_window"] = (first, last)


#: ``(module, attribute path, span name, result hook)``.  The attribute
#: is patched where the caller looks it up: module globals bound by
#: ``from ... import`` are patched in the importing module.
LAYER_TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.graphs.decomposition", "decompose",
     "decomposition.decompose",
     _set("decomposition.groups", lambda a, r: r.size)),
    ("repro.sim.distributed", "decompose", "decomposition.decompose",
     _set("decomposition.groups", lambda a, r: r.size)),
    ("repro.core.fastpath", "stamp_batch_wire",
     "fastpath.stamp_batch_wire", _wire_stats),
    ("repro.core.fastpath", "stamp_batch", "fastpath.stamp_batch", None),
    ("repro.clocks.delta", "DeltaChannelCodec.encode", "delta.encode",
     None),
    ("repro.clocks.delta", "FullVectorCodec.encode", "delta.encode",
     None),
    ("repro.clocks.offline", "OfflineRealizerClock.timestamp_computation",
     "offline.timestamp_computation", None),
    ("repro.clocks.offline", "OfflineRealizerClock.timestamp_poset",
     "offline.timestamp_poset", None),
    ("repro.order.message_order", "covering_pairs",
     "message_order.covering_pairs", None),
    ("repro.clocks.offline", "message_poset",
     "message_order.message_poset", None),
    ("repro.core.parallel", "parallel_poset_and_chains",
     "parallel.poset_and_chains", _set("parallel.shards", _shards)),
    ("repro.core.parallel", "plan_row_blocks", "parallel.plan", None),
    ("repro.clocks.offline", "minimum_chain_partition",
     "chains.partition", None),
    ("repro.clocks.offline", "realizer_from_chain_partition",
     "linear_extensions.realizer",
     _set("chains.width", lambda a, r: len(r))),
    ("repro.clocks.offline", "ranks_in_extension",
     "linear_extensions.ranks", None),
    ("repro.sim.distributed", "DistributedScriptRunner.run",
     "distributed.run", None),
    ("repro.sim.distributed", "_Coordinator.serve", "distributed.serve",
     _traffic_window),
    ("repro.sim.distributed", "send_message", "wire.send_message",
     _count("wire.bytes_out", lambda a, r: r + 4)),
    ("repro.sim.wire", "FrameBuffer.pop_message", "wire.pop_message",
     _count("wire.frames_in", lambda a, r: r is not None)),
    ("repro.obs.metrics", "QuantileSketch.observe", "obs.sketch_observe",
     None),
]


class Tracer:
    """Installs the layer wrappers and collects one pass of spans."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.counters: Dict[str, object] = {}
        self._stack: List[int] = []
        self._on = False
        self._undo: List[Tuple[object, str, object]] = []
        #: Layer targets the program no longer has (renamed or removed);
        #: their metrics read 0 rather than failing the run.
        self.missing: Set[str] = set()
        os.register_at_fork(after_in_child=self._off)

    def _off(self) -> None:
        self._on = False

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._on:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        for module_name, path, name, hook in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.add(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, original, hook))
            self._undo.append((owner, attr, original))
        distributed = importlib.import_module("repro.sim.distributed")
        proxy = types.SimpleNamespace(**vars(selectors))
        proxy.DefaultSelector = type(
            "TracedSelector",
            (selectors.DefaultSelector,),
            {
                "select": self.wrap(
                    "distributed.select", selectors.DefaultSelector.select
                )
            },
        )
        self._undo.append((distributed, "selectors", selectors))
        distributed.selectors = proxy
        self._on = True
        return self

    def __exit__(self, *exc) -> None:
        self._on = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> Dict[str, List[float]]:
        """``{span name: [calls, total seconds, self seconds]}``."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        out: Dict[str, List[float]] = {}
        for (name, _, _, _), duration, child in zip(
            self.spans, durations, child_time
        ):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child
        return out

    def clipped_total(self, name: str, lo: float, hi: float) -> float:
        """Seconds spans called ``name`` spent inside ``[lo, hi]``."""
        return sum(
            max(0.0, min(end, hi) - max(start, lo))
            for span_name, start, end, _ in self.spans
            if span_name == name
        )


#: Every per-layer metric, with its unit, in output order.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("decomposition.decompose_s", "s"),
    ("decomposition.groups", "count"),
    ("fastpath.stamp_batch_s", "s"),
    ("fastpath.kernel_self_s", "s"),
    ("delta.encode_calls", "count"),
    ("delta.encode_s", "s"),
    ("delta.frames", "count"),
    ("delta.resyncs", "count"),
    ("delta.resync_ratio", "ratio"),
    ("delta.bytes_per_frame", "B/frame"),
    ("message_order.covering_pairs_s", "s"),
    ("message_order.message_poset_s", "s"),
    ("chains.partition_s", "s"),
    ("chains.width", "count"),
    ("linear_extensions.realizer_s", "s"),
    ("linear_extensions.ranks_s", "s"),
    ("offline.timestamp_self_s", "s"),
    ("parallel.plan_s", "s"),
    ("parallel.poset_and_chains_s", "s"),
    ("parallel.shards", "count"),
    ("wire.send_calls_per_msg", "count/msg"),
    ("wire.send_s", "s"),
    ("wire.bytes_out_per_msg", "B/msg"),
    ("wire.pop_message_s", "s"),
    ("wire.frames_in_per_msg", "count/msg"),
    ("distributed.select_wait_s", "s"),
    ("distributed.busy_share", "ratio"),
    ("distributed.coordinator_self_s", "s"),
    ("distributed.runner_self_s", "s"),
    ("obs.sketch_observe_calls_per_msg", "count/msg"),
    ("obs.sketch_observe_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_sum_gap", "ratio"),
]


def layer_values(
    spans: Dict[str, List[float]],
    counters: Dict[str, object],
    committed: int,
    tracer: Optional[Tracer] = None,
    slowdown: float = 1.0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (0 for layers not entered).

    ``committed`` is the number of rendezvous the pass committed; the
    per-message wire and sketch rates divide by it.  Seconds are divided
    by the pass's host ``slowdown``, as the end-to-end timings are.
    """

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def per_msg(value: float) -> float:
        return value / committed if committed else 0.0

    frames = counters.get("delta.frames", 0)
    values = {
        "decomposition.decompose_s": total("decomposition.decompose"),
        "decomposition.groups": counters.get("decomposition.groups", 0),
        "fastpath.stamp_batch_s": total("fastpath.stamp_batch"),
        "fastpath.kernel_self_s": self_s("fastpath.stamp_batch_wire"),
        "delta.encode_calls": calls("delta.encode"),
        "delta.encode_s": total("delta.encode"),
        "delta.frames": frames,
        "delta.resyncs": counters.get("delta.resyncs", 0),
        "delta.resync_ratio": (
            counters.get("delta.resyncs", 0) / frames if frames else 0.0
        ),
        "delta.bytes_per_frame": (
            counters.get("delta.payload_bytes", 0) / frames
            if frames else 0.0
        ),
        "message_order.covering_pairs_s": total(
            "message_order.covering_pairs"
        ),
        "message_order.message_poset_s": self_s(
            "message_order.message_poset"
        ),
        "chains.partition_s": total("chains.partition"),
        "chains.width": counters.get("chains.width", 0),
        "linear_extensions.realizer_s": total(
            "linear_extensions.realizer"
        ),
        "linear_extensions.ranks_s": total("linear_extensions.ranks"),
        "offline.timestamp_self_s": (
            self_s("offline.timestamp_computation")
            + self_s("offline.timestamp_poset")
        ),
        "parallel.plan_s": total("parallel.plan"),
        "parallel.poset_and_chains_s": self_s("parallel.poset_and_chains"),
        "parallel.shards": counters.get("parallel.shards", 0),
        "wire.send_calls_per_msg": per_msg(calls("wire.send_message")),
        "wire.send_s": total("wire.send_message"),
        "wire.bytes_out_per_msg": per_msg(counters.get("wire.bytes_out", 0)),
        "wire.pop_message_s": total("wire.pop_message"),
        "wire.frames_in_per_msg": per_msg(counters.get("wire.frames_in", 0)),
        "distributed.select_wait_s": total("distributed.select"),
        "distributed.coordinator_self_s": self_s("distributed.serve"),
        "distributed.runner_self_s": self_s("distributed.run"),
        "obs.sketch_observe_calls_per_msg": per_msg(
            calls("obs.sketch_observe")
        ),
        "obs.sketch_observe_s": total("obs.sketch_observe"),
    }
    busy = 0.0
    window = counters.get("distributed.traffic_window")
    if window is not None and tracer is not None:
        first, last = window
        if last > first:
            waited = tracer.clipped_total("distributed.select", first, last)
            busy = 1.0 - waited / (last - first)
    values["distributed.busy_share"] = busy
    for name, unit in LAYER_METRICS:
        if unit == "s" and name in values:
            values[name] /= slowdown
    return values

"""Per-layer spans for a traced run, and the per-layer metrics they give.

Spans wrap each layer's public functions where they are looked up:
``repro.serve.engine`` imports ``decode_step``/``prefill_chunk`` by name,
``repro.core.kv`` imports ``plan_encoding`` by name and
``repro.core.codec`` imports ``pack_blocks``/``unpack_blocks`` by name,
so those module attributes are patched, not the defining modules'.
The metrics in ``SELF_TIME_METRICS`` are self times; together with
``bench.unattributed_s`` they partition ``bench.traced_wall_s``, the
wall time of the traced serving regions.
"""

from __future__ import annotations

import inspect

import numpy as np

import repro.core.codec
import repro.core.kv
import repro.serve.engine
import repro.serve.storage
from repro.core import KVCacheCodec
from repro.llm.model import ProxyModel
from repro.obs import MetricsRegistry
from repro.serve import ClusterRouter, ContinuousBatchingScheduler, PagedKVPool, ServingEngine
from repro.serve.storage import EccoRequestKV, RequestKV

import workloads
from tracer import Tracer, clock

#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("setup.load_s", "s"),
    ("setup.calibrate_s", "s"),
    ("setup.codec_fit_s", "s"),
    ("setup.codec_fit_calls", "count"),
    ("llm.decode_step.self_s", "s"),
    ("llm.decode_step.calls", "count"),
    ("llm.decode_step.rows_per_call", "count"),
    ("llm.prefill_chunk.self_s", "s"),
    ("llm.prefill_chunk.tokens", "count"),
    ("llm.forward.self_s", "s"),
    ("llm.forward.calls", "count"),
    ("core.encode.s", "s"),
    ("core.encode.calls", "count"),
    ("core.encode.rows_per_call", "count"),
    ("core.plan.s", "s"),
    ("core.pack.s", "s"),
    ("core.decode.s", "s"),
    ("core.unpack.s", "s"),
    ("core.unpack.calls", "count"),
    ("core.unpack.blocks_per_call", "count"),
    ("core.decoded_tokens", "count"),
    ("storage.self_s", "s"),
    ("storage.append_calls", "count"),
    ("storage.read_calls", "count"),
    ("pool.self_s", "s"),
    ("pool.lookup_s", "s"),
    ("pool.prefix_hit_share", "share"),
    ("pool.evictions", "count"),
    ("pool.swap_out_bytes", "B"),
    ("pool.peak_occupancy", "share"),
    ("scheduler.self_s", "s"),
    ("scheduler.batch_mean", "count"),
    ("scheduler.preemptions", "count"),
    ("scheduler.queue_wait_p95_ms", "ms"),
    ("scheduler.modeled_ttft_p95_s", "s"),
    ("engine.steps", "count"),
    ("engine.step.self_s", "s"),
    ("engine.step_p50_ms", "ms"),
    ("engine.step_p95_ms", "ms"),
    ("cluster.route_s", "s"),
    ("cluster.affinity_hit_share", "share"),
    ("frontend.pump_self_s", "s"),
    ("frontend.queue_depth_peak", "count"),
    ("obs.registry_s", "s"),
    ("bench.trace_overhead", "share"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.gen_late_p95_ms", "ms"),
]

#: The self-time metrics that, with ``bench.unattributed_s``, add up to
#: ``bench.traced_wall_s``: every serving span lands in exactly one.
SELF_TIME_METRICS = [
    "llm.decode_step.self_s",
    "llm.prefill_chunk.self_s",
    "llm.forward.self_s",
    "core.encode.s",
    "core.plan.s",
    "core.pack.s",
    "core.decode.s",
    "core.unpack.s",
    "storage.self_s",
    "pool.self_s",
    "scheduler.self_s",
    "engine.step.self_s",
    "cluster.route_s",
    "obs.registry_s",
]

_REGISTRY_WRITES = (
    "inc", "counter_set", "gauge_set", "gauge_max", "observe", "define_histogram",
)
_LOOKUPS = ("pool.lookup_prefix", "pool.match_prefix", "pool.probe_prefix")


def _public_methods(cls) -> list[str]:
    return [
        name
        for name, attr in cls.__dict__.items()
        if inspect.isfunction(attr) and not name.startswith("_")
    ]


def _rows(args, kwargs) -> int:
    vectors = args[1]
    return 1 if np.ndim(vectors) == 1 else len(vectors)


def trace_setup(tracer: Tracer) -> Tracer:
    """Spans for the set-up phase: zoo load, calibration, codec fits.
    Returns ``tracer``, whose ``with`` block restores them."""
    tracer.span(workloads, "load_model", "setup.load")
    tracer.span(workloads, "calibrate", "setup.calibrate")
    tracer.span(repro.serve.storage, "fit_kv_codec", "setup.codec_fit")
    return tracer


class ServeTrace:
    """Spans for the serving phase, plus wall stamps for queue waits.

    A context manager: entering patches every layer, leaving restores
    it; figures accumulate over every ``with`` block."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.submitted: dict[int, float] = {}
        self.queue_wait_s: list[float] = []

    def __enter__(self) -> "ServeTrace":
        t = self.tracer
        # Hooks first, so spans wrap them and their cost lands in the
        # scheduler's self time.
        t.hook(ContinuousBatchingScheduler, "submit", self._on_submit)
        t.hook(ContinuousBatchingScheduler, "activate", self._on_activate)
        t.keep_durations.add("engine.step")
        t.span(repro.serve.engine, "decode_step", "llm.decode_step",
               count=lambda a, k: len(a[1]))
        t.span(repro.serve.engine, "prefill_chunk", "llm.prefill_chunk",
               count=lambda a, k: len(a[1]))
        t.span(ProxyModel, "forward", "llm.forward")
        t.span(KVCacheCodec, "encode_tokens", "core.encode", count=_rows)
        t.span(KVCacheCodec, "decode_tokens", "core.decode")
        t.span(KVCacheCodec, "decode_all", "core.decode")
        t.span(repro.core.kv, "plan_encoding", "core.plan")
        t.span(repro.core.codec, "pack_blocks", "core.pack")
        t.span(repro.core.codec, "unpack_blocks", "core.unpack",
               count=lambda a, k: len(a[1]))
        for cls in (RequestKV, EccoRequestKV):
            for name in _public_methods(cls):
                t.span(cls, name, f"storage.{name}")
        for name in _public_methods(PagedKVPool):
            t.span(PagedKVPool, name, f"pool.{name}")
        for name in _public_methods(ContinuousBatchingScheduler):
            t.span(ContinuousBatchingScheduler, name, f"scheduler.{name}")
        t.span(ServingEngine, "step", "engine.step")
        t.span(ClusterRouter, "submit", "cluster.route")
        for name in _REGISTRY_WRITES:
            t.span(MetricsRegistry, name, "obs.registry")
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.tracer.restore()

    def _on_submit(self, result, args) -> None:
        self.submitted[id(args[1])] = clock()

    def _on_activate(self, result, args) -> None:
        request, source = args[1], args[2]
        submitted = self.submitted.pop(id(request), None)
        if source == "waiting" and submitted is not None:
            self.queue_wait_s.append(clock() - submitted)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(
    setup: Tracer,
    setups: int,
    serve: ServeTrace,
    arms: list,
    traced_wall_s: float,
    trace_overhead: float,
) -> dict[str, float]:
    """Per-layer metrics of the traced rounds (``arms`` holds each traced
    round's Ecco arm): set-up figures per set-up, other times and counts
    per round, shares, means and percentiles over all traced rounds."""
    t = serve.tracer
    engines = [e for arm in arms for e in arm.engines]
    requests = [r for e in engines for r in e.requests]
    pools = [e.pool for e in engines]
    summaries = [e.metrics for e in engines]
    decode_steps = sum(s.decode_steps for s in summaries)
    routed = sum(sum(a.cluster.stats["routed"]) for a in arms if a.cluster)
    hits = sum(a.cluster.stats["affinity_hits"] for a in arms if a.cluster)
    sums = {
        "llm.decode_step.self_s": t.self_s.get("llm.decode_step", 0.0),
        "llm.decode_step.calls": t.calls.get("llm.decode_step", 0),
        "llm.prefill_chunk.self_s": t.self_s.get("llm.prefill_chunk", 0.0),
        "llm.prefill_chunk.tokens": t.counts.get("llm.prefill_chunk", 0.0),
        "llm.forward.self_s": t.self_s.get("llm.forward", 0.0),
        "llm.forward.calls": t.calls.get("llm.forward", 0),
        "core.encode.s": t.self_s.get("core.encode", 0.0),
        "core.encode.calls": t.calls.get("core.encode", 0),
        "core.plan.s": t.self_s.get("core.plan", 0.0),
        "core.pack.s": t.self_s.get("core.pack", 0.0),
        "core.decode.s": t.self_s.get("core.decode", 0.0),
        "core.unpack.s": t.self_s.get("core.unpack", 0.0),
        "core.unpack.calls": t.calls.get("core.unpack", 0),
        "core.decoded_tokens": sum(
            sum(r.kv.decoded_token_counters.values())
            for r in requests
            if r.kv is not None
        ),
        "storage.self_s": t.self_sum("storage."),
        "storage.append_calls": t.calls.get("storage.append_token_layer", 0),
        "storage.read_calls": t.calls.get("storage.read", 0),
        "pool.self_s": t.self_sum("pool."),
        "pool.lookup_s": sum(t.self_s.get(name, 0.0) for name in _LOOKUPS),
        "pool.evictions": sum(p.stats["pages_evicted"] for p in pools),
        "pool.swap_out_bytes": sum(p.stats["swap_out_bytes"] for p in pools),
        "scheduler.self_s": t.self_sum("scheduler."),
        "scheduler.preemptions": sum(s.preemptions for s in summaries),
        "engine.steps": t.calls.get("engine.step", 0),
        "engine.step.self_s": t.self_s.get("engine.step", 0.0),
        "cluster.route_s": t.self_s.get("cluster.route", 0.0),
        "frontend.pump_self_s": sum(a.wall_region_s for a in arms)
        - t.total_s.get("engine.step", 0.0),
        "obs.registry_s": t.self_s.get("obs.registry", 0.0),
        "bench.traced_wall_s": traced_wall_s,
        "bench.unattributed_s": traced_wall_s - sum(t.self_s.values()),
    }
    out = {name: value / len(arms) for name, value in sums.items()}
    out.update({
        "setup.load_s": setup.total_s.get("setup.load", 0.0) / setups,
        "setup.calibrate_s": setup.total_s.get("setup.calibrate", 0.0) / setups,
        "setup.codec_fit_s": setup.total_s.get("setup.codec_fit", 0.0) / setups,
        "setup.codec_fit_calls": setup.calls.get("setup.codec_fit", 0) / setups,
        "llm.decode_step.rows_per_call": t.per_call("llm.decode_step"),
        "core.encode.rows_per_call": t.per_call("core.encode"),
        "core.unpack.blocks_per_call": t.per_call("core.unpack"),
        "pool.prefix_hit_share": sum(s.prefix_tokens_reused for s in summaries)
        / sum(r.prompt_len for r in requests),
        "pool.peak_occupancy": max(
            p.stats["peak_bytes_resident"] / p.byte_budget for p in pools
        ),
        "scheduler.batch_mean": (
            sum(s.decode_tokens for s in summaries) / decode_steps
            if decode_steps
            else 0.0
        ),
        "scheduler.queue_wait_p95_ms": 1e3 * _pct(serve.queue_wait_s, 95),
        "scheduler.modeled_ttft_p95_s": _pct(
            [x for a in arms for x in a.modeled_ttft_s], 95
        ),
        "engine.step_p50_ms": 1e3 * _pct(t.durations["engine.step"], 50),
        "engine.step_p95_ms": 1e3 * _pct(t.durations["engine.step"], 95),
        "cluster.affinity_hit_share": hits / routed if routed else 0.0,
        "frontend.queue_depth_peak": max(
            (a.frontend.report()["queue_depth_peak"] for a in arms if a.frontend),
            default=0,
        ),
        "bench.trace_overhead": trace_overhead,
        "bench.gen_late_p95_ms": 1e3
        * _pct([x for a in arms for x in a.late_s], 95),
    })
    return {name: out[name] for name, _ in PER_LAYER}

"""The round loop: set up, serve, check, and reduce rounds to metrics.

One run of a workload serves a fixed number of rounds: ``seconds``
divided by the workload's nominal round time, so the count never
depends on how fast the run goes.  Every round builds a fresh stack (the
timed set-up), serves that round's inputs on the Ecco arm and the fp16
arm, then checks the outputs outside the timed region.  Throughput and
set-up time are medians over the rounds (fp16 throughput over all the
run's fp16 passes); latency percentiles are taken over the samples of
all rounds pooled.

Every timed figure is taken at the nominal machine speed: each set-up
and each serving pass is timed on a meter of ``speed.py``, which runs a
reference probe between its parts or steps.  The wall figures, without
the probes, are printed too, on the line before the result.

A traced run does the same on half-size rounds, but serves the Ecco arm
twice on each round's inputs, once untraced and once inside the
per-layer spans of ``layers.py``; the two give ``bench.trace_overhead``.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.llm.data import SyntheticCorpus

import layers
from speed import Meter
from tracer import Tracer
from workloads import WORKLOADS, Audit, audit_arm, audit_ecco

#: (metric name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("tok_s", "tok/s"),
    ("fp16_tok_s", "tok/s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p95_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("itl_p95_ms", "ms"),
    ("kv_rel_err", "ratio"),
    ("token_match", "share"),
    ("peak_rss_mb", "MB"),
]

#: Set-ups timed per run at the least; ``setup_s`` is their median.
MIN_SETUPS = 3
#: Request-count scale and round index of the untimed warm-up round.
WARMUP_SCALE = 0.05
WARMUP_ROUND = 1_000_000


@dataclass
class Tally:
    """What the rounds of one run add up to."""

    #: Timed figures at the nominal machine speed.
    setup_s: list[float] = field(default_factory=list)
    tok_s: list[float] = field(default_factory=list)
    #: Throughput of every fp16 pass of the run.
    fp16_tok_s: list[float] = field(default_factory=list)
    #: TTFT and ITL samples of every Ecco pass, in seconds.
    ttft_s: list[float] = field(default_factory=list)
    itl_s: list[float] = field(default_factory=list)
    #: The same set-up times and throughputs in wall time, and the
    #: slowness of every timed pass and set-up.
    wall_setup_s: list[float] = field(default_factory=list)
    wall_tok_s: list[float] = field(default_factory=list)
    wall_fp16_tok_s: list[float] = field(default_factory=list)
    slowness: list[float] = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    matched: int = 0
    compared: int = 0
    audit: Audit = field(default_factory=Audit)

    def add_ecco(self, arm) -> None:
        self.tok_s.append(arm.tok_s)
        self.wall_tok_s.append(arm.wall_tok_s)
        self.slowness.append(arm.slowness)
        self.ttft_s.extend(arm.ttft_s)
        self.itl_s.extend(arm.itl_s)
        self.sent += arm.sent
        self.failed += arm.failed
        audit_arm(arm, self.audit)

    def add_fp16(self, arms, ecco) -> None:
        """The round's fp16 passes: their throughput, and how many of
        Ecco's greedy tokens equal fp16's at the same position."""
        self.fp16_tok_s.extend(arm.tok_s for arm in arms)
        self.wall_fp16_tok_s.extend(arm.wall_tok_s for arm in arms)
        self.slowness.extend(arm.slowness for arm in arms)
        for arm in arms:
            audit_arm(arm, self.audit)
        for i, reference in arms[0].tokens.items():
            ours = ecco.tokens.get(i, [])
            self.compared += len(reference)
            self.matched += sum(a == b for a, b in zip(ours, reference))


@dataclass
class Traced:
    """What the traced rounds of a run collect."""

    setup: Tracer = field(default_factory=Tracer)
    serve: layers.ServeTrace = field(default_factory=lambda: layers.ServeTrace(Tracer()))
    setups: int = 0
    arms: list = field(default_factory=list)
    untraced_tok_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0

    def metrics(self) -> dict[str, float]:
        overhead = statistics.median(self.untraced_tok_s) / statistics.median(
            arm.tok_s for arm in self.arms
        ) - 1.0
        return layers.per_layer_metrics(
            self.setup, self.setups, self.serve, self.arms, self.wall_s, overhead
        )


def _timed_setup(workload, tally: Tally):
    meter = Meter()
    stack = workload.setup(meter)
    # A set-up has a few long parts, not many short steps: its wall time
    # over its mean slowness follows the machine better than the meter,
    # which times each part at the speed just before it.
    tally.setup_s.append(meter.wall() / meter.slowness)
    tally.wall_setup_s.append(meter.wall())
    tally.slowness.append(meter.slowness)
    return stack


def _fp16_passes(workload, stack, inputs) -> list:
    arms = [workload.serve(stack, inputs, "fp16")]
    for _ in range(workload.fp16_passes - 1):
        stack["fp16"] = workload.build(*stack["model"], "fp16")
        arms.append(workload.serve(stack, inputs, "fp16"))
    return arms


def _warm_up(seed: int, corpus) -> None:
    """A few requests through one engine per backend, untimed: first-call
    costs (BLAS start-up, first codec fits, encodes and decodes) stay
    out of every timed figure."""
    workload = WORKLOADS["decode_batch"](scale=WARMUP_SCALE)
    stack = workload.setup()
    inputs = workload.inputs(seed, WARMUP_ROUND, corpus)
    for storage in ("ecco", "fp16"):
        workload.serve(stack, inputs, storage)


def _round(workload, inputs, tally: Tally) -> None:
    """One measured round; its stack is garbage once this returns."""
    stack = _timed_setup(workload, tally)
    ecco = workload.serve(stack, inputs, "ecco")
    tally.add_ecco(ecco)
    tally.add_fp16(_fp16_passes(workload, stack, inputs), ecco)
    audit_ecco(workload, stack, inputs, tally.audit)


def _traced_round(workload, inputs, tally: Tally, traced: Traced) -> None:
    """The Ecco arm untraced, then on a fresh stack inside the spans."""
    stack = _timed_setup(workload, tally)
    untraced = workload.serve(stack, inputs, "ecco")
    audit_ecco(workload, stack, inputs, tally.audit)
    tally.add_ecco(untraced)
    traced.untraced_tok_s.append(untraced.tok_s)
    del untraced
    with layers.trace_setup(traced.setup):
        stack = workload.setup()
    traced.setups += 1
    with traced.serve:
        arm = workload.serve(stack, inputs, "ecco")
    traced.wall_s += arm.wall_region_s
    tally.add_ecco(arm)
    traced.arms.append(arm)


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    corpus = SyntheticCorpus()
    _warm_up(seed, corpus)
    workload = WORKLOADS[name](scale / 2 if trace else scale)
    rounds = workload.rounds(seconds)
    tally, traced = Tally(), Traced()
    for round_index in range(rounds):
        inputs = workload.inputs(seed, round_index, corpus)
        if trace:
            _traced_round(workload, inputs, tally, traced)
        else:
            _round(workload, inputs, tally)
            # Engines, requests and the front-end's event loop form
            # reference cycles: free the round now, so the peak RSS is
            # one round's and not a function of the round count.
            gc.collect()
    while len(tally.setup_s) < MIN_SETUPS:
        _timed_setup(workload, tally)

    if trace:
        values = traced.metrics()
        units = dict(layers.PER_LAYER)
    else:
        values = end_to_end_metrics(tally)
        units = dict(END_TO_END)
    return {
        "correct": not tally.audit.problems,
        "attempted": tally.sent,
        "failed": tally.failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in values.items()
        },
        "problems": tally.audit.problems,
        "rounds": rounds,
        "wall": {
            "setup_s": statistics.median(tally.wall_setup_s),
            "tok_s": statistics.median(tally.wall_tok_s),
            "fp16_tok_s": _median_or_zero(tally.wall_fp16_tok_s),
            "round_tok_s": [round(x, 3) for x in tally.wall_tok_s],
        },
        "slowness": [round(x, 3) for x in tally.slowness],
        "fp16_pass_tok_s": [round(x, 3) for x in tally.fp16_tok_s],
        "samples": {"ttft": len(tally.ttft_s), "itl": len(tally.itl_s)},
    }


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(tally: Tally) -> dict[str, float]:
    audit = tally.audit
    ttft_ms, itl_ms = 1e3 * np.asarray(tally.ttft_s), 1e3 * np.asarray(tally.itl_s)
    return {
        "setup_s": statistics.median(tally.setup_s),
        "tok_s": statistics.median(tally.tok_s),
        "fp16_tok_s": statistics.median(tally.fp16_tok_s),
        "ttft_p50_ms": np.percentile(ttft_ms, 50),
        "ttft_p95_ms": np.percentile(ttft_ms, 95),
        "itl_p50_ms": np.percentile(itl_ms, 50),
        "itl_p95_ms": np.percentile(itl_ms, 95),
        "kv_rel_err": (audit.err_sq / audit.ref_sq) ** 0.5 if audit.ref_sq else 0.0,
        "token_match": tally.matched / tally.compared if tally.compared else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

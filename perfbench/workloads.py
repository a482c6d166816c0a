"""The benchmark's serving workloads, built on the public serving API.

Each workload makes its inputs from a seed, builds a fresh serving stack
per round (the timed set-up) and serves one round of inputs on the Ecco
backend and on the fp16 backend.  Every arm returns the same
:class:`Arm` record: wall throughput, latency samples, request outcomes
and the engines it ran on, so the round loop in ``bench.py`` treats the
workloads alike.

Why these two (see README.md for the metric map and the open-loop
workload that was tried and dropped):

* ``decode_batch`` — a closed offline batch of short unshared prompts
  and long outputs: per-token codec encode/decode and ``decode_step`` do
  almost all the work; pool, trie, scheduler and front-end idle.
* ``prefix_replay`` — a bursty chat/RAG/agent trace with long,
  page-aligned shared prefixes replayed through the async front-end onto
  a two-replica cluster: prefill-heavy, exercises trie, pool eviction,
  preemption, cluster affinity and the front-end pump.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import KVCacheStream
from repro.llm import calibrate, get_trained_model
from repro.llm.train import _checkpoint_path
from repro.serve import (
    AsyncServingEngine,
    BudgetExceededError,
    ClusterRouter,
    RequestState,
    ServingEngine,
    TraceRequest,
    VirtualClock,
    WorkloadConfig,
    generate_trace,
    replay_trace,
)

from speed import Meter

MODEL = "proxy-medium"
PAGE_TOKENS = 8
MAX_BATCH = 16
#: Requests per round re-served, recording, for the audit.
AUDIT_REQUESTS = 4
#: Rows per codec call in the round-trip error audit.
ROUND_TRIP_ROWS = 32


class ZooMissingError(RuntimeError):
    """The trained proxy is not on disk; set-up must not train it."""


def round_seed(seed: int, round_index: int, salt: int) -> int:
    """Independent, reproducible sub-seed for one round's inputs."""
    return int(np.random.SeedSequence([seed, round_index, salt]).generate_state(1)[0])


def load_model():
    """Load the trained proxy from the zoo, refusing to train it."""
    if not _checkpoint_path(MODEL, 0).exists():
        raise ZooMissingError(
            f"{MODEL} is not in the model zoo ({_checkpoint_path(MODEL, 0)}); "
            f"build it before timing (run.py does this untimed)"
        )
    return get_trained_model(MODEL)


def load_and_calibrate():
    """The part of set-up every workload shares: model and calibration.

    ``load_model`` and ``calibrate`` are looked up in this module at call
    time, which is where a traced set-up wraps them."""
    trained = load_model()
    tokens = trained.generator.batches(16 * 65 + 65, 16, 64, seed=777)[0]
    return trained, calibrate(trained.model, tokens)


@dataclass
class Arm:
    """One backend's pass over one round's inputs."""

    backend: str
    #: Input index -> tokens the request generated.
    tokens: dict[int, list[int]]
    #: Seconds from the first submit to the last finish, on the pass's
    #: meter (at the nominal machine speed; see ``speed.py``).
    elapsed_s: float
    ttft_s: list[float]
    itl_s: list[float]
    sent: int
    failed: int
    engines: list[ServingEngine]
    #: How late each request was submitted against its due time, in
    #: seconds of the workload's clock (virtual on prefix_replay; the
    #: closed batch is due at its start).
    late_s: list[float] = field(default_factory=list)
    cluster: ClusterRouter | None = None
    frontend: AsyncServingEngine | None = None
    #: Virtual-clock TTFTs (prefix_replay only), labelled as modeled.
    modeled_ttft_s: list[float] = field(default_factory=list)
    #: Wall seconds of the serving region (submit loop included) without
    #: the reference probes, and the machine's mean slowness over the
    #: pass.
    wall_region_s: float = 0.0
    slowness: float = 1.0

    @property
    def generated(self) -> int:
        return sum(len(t) for t in self.tokens.values())

    @property
    def tok_s(self) -> float:
        return self.generated / self.elapsed_s

    @property
    def wall_tok_s(self) -> float:
        """Throughput over the serving region in wall time."""
        return self.generated / self.wall_region_s


def _engine(model, calib, storage, budget, **kwargs) -> ServingEngine:
    return ServingEngine(
        model,
        calib,
        storage=storage,
        byte_budget=budget,
        page_tokens=PAGE_TOKENS,
        max_batch_size=MAX_BATCH,
        **kwargs,
    )


def _finished_ok(request, max_new_tokens: int) -> bool:
    return (
        request.state is RequestState.FINISHED
        and len(request.generated) == max_new_tokens
    )


class Workload:
    """Inputs from a seed, a stack per round, one serving pass per arm."""

    name: str
    #: Requests per round at ``scale=1``.
    requests: int
    #: Nominal wall seconds of one round, which sets how many rounds a
    #: run of a given length serves; the count never depends on how fast
    #: a run actually goes.
    round_s: float
    #: fp16 passes per round, each on freshly built fp16 engines; the
    #: run reports their median.
    fp16_passes: int

    def __init__(self, scale: float = 1.0):
        self.count = max(2, round(self.requests * scale))

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def setup(self, meter: Meter | None = None) -> dict:
        """The timed set-up: load, calibrate, and build both arms, with
        a reference probe between the parts when timed on a meter."""
        probe = meter.probe if meter else lambda: None
        probe()
        trained, calib = load_and_calibrate()
        probe()
        stack = {"model": (trained, calib)}
        for storage in ("ecco", "fp16"):
            stack[storage] = self.build(trained, calib, storage)
            probe()
        return stack

    def build(self, trained, calib, storage: str):
        raise NotImplementedError

    def ecco_engine(self, stack: dict) -> ServingEngine:
        """An Ecco engine of the stack, for the audit after timing."""
        raise NotImplementedError

    def inputs(self, seed: int, round_index: int, corpus) -> list:
        raise NotImplementedError

    def serve(self, stack: dict, inputs: list, storage: str) -> Arm:
        raise NotImplementedError


# ----------------------------------------------------------------------
# decode_batch: closed offline batch, one engine, run() to drain.
# ----------------------------------------------------------------------
class DecodeBatch(Workload):
    name = "decode_batch"
    fp16_passes = 5
    #: A 32 s run serves four rounds: 272 TTFT samples, 13 beyond p95.
    requests = 68
    round_s = 8.0
    prompt_tokens = 8
    #: Output lengths cover this range evenly: long next to the
    #: prompts, and varied so that slots free one at a time and
    #: continuous batching refills them (no lock-step waves).
    new_tokens = (6, 14)
    #: Ample: every request of a round fits at once, even in fp16.
    budget = 4_000_000

    def inputs(self, seed: int, round_index: int, corpus):
        """Short, unshared prompts: consecutive windows of a fresh
        synthetic-corpus stream.  Every length in ``new_tokens`` comes
        up equally often in every round, in a seeded order, so each
        round asks for the same decode work."""
        n, p = self.count, self.prompt_tokens
        stream = corpus.token_stream(n * p, seed=round_seed(seed, round_index, 1))
        rng = np.random.default_rng(round_seed(seed, round_index, 5))
        low, high = self.new_tokens
        lengths = rng.permutation(np.resize(np.arange(low, high + 1), n))
        return [
            TraceRequest(0.0, stream[i * p : (i + 1) * p], int(lengths[i]))
            for i in range(n)
        ]

    def build(self, trained, calib, storage: str):
        """One engine, on a meter of its own as its clock."""
        return _engine(trained.model, calib, storage, self.budget, clock=Meter())

    def ecco_engine(self, stack: dict) -> ServingEngine:
        return stack["ecco"]

    def serve(self, stack, batch, storage: str) -> Arm:
        """Submit the whole batch at once and drain it with ``run()``,
        probing the machine's speed between steps."""
        engine = stack[storage]
        meter = engine.clock
        step = engine.step

        def probed_step() -> int:
            tokens = step()
            meter.maybe_probe()
            return tokens

        meter.probe()
        region_start, wall_start = meter(), meter.wall()
        requests, failed = {}, 0
        for i, item in enumerate(batch):
            try:
                requests[i] = engine.submit(item.prompt, item.max_new_tokens)
            except BudgetExceededError:
                failed += 1
        engine.step = probed_step
        try:
            engine.run()
        finally:
            del engine.step
        wall_region_s = meter.wall() - wall_start
        meter.probe()
        done = [
            r
            for i, r in requests.items()
            if _finished_ok(r, batch[i].max_new_tokens)
        ]
        return Arm(
            backend=storage,
            tokens={i: list(r.generated) for i, r in requests.items()},
            elapsed_s=max(r.metrics.finish_s for r in done)
            - min(r.metrics.arrival_s for r in requests.values()),
            ttft_s=[r.metrics.ttft_s for r in done],
            itl_s=[g for r in done for g in r.metrics.inter_token_s],
            sent=len(batch),
            failed=failed + len(requests) - len(done),
            engines=[engine],
            late_s=[r.metrics.arrival_s - region_start for r in requests.values()],
            wall_region_s=wall_region_s,
            slowness=meter.slowness,
        )


# ----------------------------------------------------------------------
# prefix_replay: bursty shared-prefix trace, async front-end, 2 replicas.
# ----------------------------------------------------------------------
class _WallStamps:
    """The cluster as the front-end sees it, stamping on the pass's meter
    the tokens each step delivers (the virtual clock only orders
    events), and probing the machine's speed between steps."""

    def __init__(self, cluster: ClusterRouter, meter: Meter):
        self.cluster = cluster
        self.meter = meter
        self.live: list = []
        self.token_wall: dict[str, list[float]] = {}

    def __getattr__(self, name):
        return getattr(self.cluster, name)

    def submit(self, *args, **kwargs):
        request = self.cluster.submit(*args, **kwargs)
        self.live.append(request)
        self.token_wall[request.request_id] = []
        return request

    def step(self) -> int:
        tokens = self.cluster.step()
        now = self.meter()
        live = []
        for request in self.live:
            stamps = self.token_wall[request.request_id]
            stamps.extend([now] * (len(request.generated) - len(stamps)))
            if request.state is not RequestState.FINISHED:
                live.append(request)
        self.live = live
        self.meter.maybe_probe()
        return tokens


class _StampedFrontend(AsyncServingEngine):
    """The async front-end, recording the meter time of every client
    submit so TTFT counts front-end queueing too."""

    def __init__(self, target: _WallStamps, **kwargs):
        super().__init__(target, **kwargs)
        self.meter = target.meter
        #: (meter time, virtual time, handle, trace arrival time) per submit.
        self.submits: list[tuple[float, float, object, float]] = []

    def submit(self, prompt, max_new_tokens, **kwargs):
        wall, virtual = self.meter(), self.clock()
        handle = super().submit(prompt, max_new_tokens, **kwargs)
        self.submits.append((wall, virtual, handle, kwargs["arrival_s"]))
        return handle


class PrefixReplay(Workload):
    name = "prefix_replay"
    fp16_passes = 2
    #: A 32 s run serves five rounds: 350 TTFT samples, 17 beyond p95.
    #: Five, because each round's mix of prefill and decode steps moves
    #: the inter-token percentiles, and more rounds even it out.
    requests = 70
    round_s = 6.4
    #: Each round is one burst: its requests arrive at uniform random
    #: times within ``burst_s`` virtual seconds (a Poisson process
    #: conditioned on its count, so every seed offers the same load).
    #: The burst queues far more work than a step serves, so it is
    #: served from a full batch.
    burst_s = 0.25
    #: The generator's own arrival rate, which sets how the chat, RAG
    #: and agent sessions interleave; the burst replaces its times.
    trace_rate_rps = 12.0
    #: Every round has exactly this mix, so the rounds of every seed ask
    #: for about the same prefill work.
    mix = {"rag": 0.3, "agent": 0.2, "chat": 0.5}
    #: Every request fits one replica on both backends (longest request:
    #: 72 + 32 tokens x 1152 B fp16 = 120 kB), yet a burst overflows it
    #: on both: the pools evict cached prefixes, and decode growth makes
    #: the schedulers preempt (a few times a round on Ecco, some twenty
    #: to thirty times on fp16).
    budget = 120_000
    max_prompt_tokens = 72
    max_new_tokens = 32
    #: Short replies, their lengths kept close to the mean so that the
    #: work a round asks for varies little from seed to seed.
    output_mean = 7.0
    output_sigma = 0.3
    chunk_tokens = 32
    step_token_budget = 64
    #: Engine-side waiting requests the front-end allows before it holds
    #: dispatches back in its own queue.
    max_pending = 4

    def inputs(self, seed: int, round_index: int, corpus):
        """A chat/RAG/agent mix with long page-aligned shared prefixes
        (multi-page RAG corpora, agent loops growing two pages a turn),
        arriving in one burst."""
        config = WorkloadConfig(
            # Long enough to always hold ``count`` requests.
            duration_s=2.0 * self.count / self.trace_rate_rps + 10.0,
            rate_rps=self.trace_rate_rps,
            vocab_size=corpus.vocab_size,
            page_tokens=PAGE_TOKENS,
            mix=self.mix,
            rag_corpora=3,
            rag_system_pages=8,
            agent_seed_pages=3,
            agent_growth_pages=2,
            chat_turn_mean=10.0,
            output_mean=self.output_mean,
            output_sigma=self.output_sigma,
            max_tokens=self.max_new_tokens,
        )
        trace = generate_trace(config, seed=round_seed(seed, round_index, 2))
        rng = np.random.default_rng(round_seed(seed, round_index, 4))
        times = np.sort(rng.uniform(0.0, self.burst_s, size=self.count))
        # The first requests of each scenario, in trace order.
        wanted = {name: round(self.count * share) for name, share in self.mix.items()}
        wanted["chat"] = self.count - wanted["rag"] - wanted["agent"]
        picked = []
        for item in trace:
            if wanted[item.scenario]:
                wanted[item.scenario] -= 1
                picked.append(item)
        if len(picked) != self.count:
            raise RuntimeError(f"trace too short for {self.count} requests")
        # Agent loops grow without bound; cutting the prompt keeps its
        # shared prefix and keeps every request within one replica.
        return [
            replace(
                item,
                arrival_s=float(times[i]),
                prompt=item.prompt[: self.max_prompt_tokens],
            )
            for i, item in enumerate(picked)
        ]

    def build(self, trained, calib, storage: str):
        virtual = VirtualClock()
        engines = [
            _engine(
                trained.model,
                calib,
                storage,
                self.budget,
                prefill_chunk_tokens=self.chunk_tokens,
                step_token_budget=self.step_token_budget,
                clock=virtual,
            )
            for _ in range(2)
        ]
        return virtual, ClusterRouter(engines)

    def ecco_engine(self, stack: dict) -> ServingEngine:
        return stack["ecco"][1].engines[0]

    def serve(self, stack, trace, storage: str) -> Arm:
        virtual, cluster = stack[storage]
        meter = Meter()
        stamps = _WallStamps(cluster, meter)
        frontend = _StampedFrontend(stamps, max_pending=self.max_pending)
        meter.probe()
        wall_start = meter.wall()
        outcome = replay_trace(frontend, trace, virtual)
        wall_region_s = meter.wall() - wall_start
        meter.probe()
        index = {
            (item.arrival_s, item.prompt.tobytes()): i
            for i, item in enumerate(trace)
        }
        tokens, ttft, itl, modeled, failed = {}, [], [], [], outcome["rejected"]
        first, last = None, None
        for submit_wall, _, handle, arrival_s in frontend.submits:
            request = handle.request
            if request is None:
                failed += 1
                continue
            i = index[(arrival_s, request.prompt.tobytes())]
            tokens[i] = list(request.generated)
            if not _finished_ok(request, trace[i].max_new_tokens):
                failed += 1
                continue
            walls = stamps.token_wall[request.request_id]
            ttft.append(walls[0] - submit_wall)
            itl.extend(np.diff(walls).tolist())
            modeled.append(request.metrics.ttft_s)
            first = submit_wall if first is None else min(first, submit_wall)
            last = walls[-1] if last is None else max(last, walls[-1])
        return Arm(
            backend=storage,
            tokens=tokens,
            elapsed_s=last - first,
            ttft_s=ttft,
            itl_s=itl,
            sent=len(trace),
            failed=failed,
            engines=cluster.engines,
            late_s=[virtual - arrival for _, virtual, _, arrival in frontend.submits],
            cluster=cluster,
            frontend=frontend,
            modeled_ttft_s=modeled,
            wall_region_s=wall_region_s,
            slowness=meter.slowness,
        )


WORKLOADS = {w.name: w for w in (DecodeBatch, PrefixReplay)}


# ----------------------------------------------------------------------
# Correctness checks, run after the timed region.
# ----------------------------------------------------------------------
@dataclass
class Audit:
    """Outcome of the post-round checks."""

    problems: list[str] = field(default_factory=list)
    #: Squared-error and squared-norm sums of the K/V round trip.
    err_sq: float = 0.0
    ref_sq: float = 0.0


def audit_arm(arm: Arm, audit: Audit) -> None:
    """Outcome counts and budget overruns on every engine of a timed arm."""
    for engine in arm.engines:
        overruns = engine.pool.stats["budget_overruns"]
        if overruns:
            audit.problems.append(
                f"{arm.backend}: {overruns} pool budget overruns"
            )
    if arm.failed:
        audit.problems.append(
            f"{arm.backend}: {arm.failed} of {arm.sent} requests refused "
            f"or short of their token count"
        )


def audit_ecco(workload: Workload, stack: dict, inputs: list, audit: Audit) -> None:
    """Re-serve a few of the round's requests, evenly spaced, on an Ecco
    engine of the timed stack, so with the codecs it fitted.  The timed
    pass recorded nothing; from here on the engine records every raw K/V
    row and starts every request cold (an attached prefix has no raw
    rows).  The audited requests' decoded KV must be bit-identical to a
    single-stream :class:`KVCacheStream` fed the same raw K/V, and their
    raw rows give the codec round-trip error."""
    engine = workload.ecco_engine(stack)
    engine.record_reference, engine.prefix_reuse = True, False
    step = max(1, len(inputs) // AUDIT_REQUESTS)
    picks = inputs[::step][:AUDIT_REQUESTS]
    requests = [engine.submit(item.prompt, item.max_new_tokens) for item in picks]
    engine.run()
    for request, item in zip(requests, picks):
        if not _finished_ok(request, item.max_new_tokens):
            audit.problems.append(
                f"audit: {request.request_id} did not finish its "
                f"{item.max_new_tokens} tokens"
            )
            continue
        _audit_bit_exact(engine, request, audit)
    _round_trip_error(engine, requests, audit)


def _audit_bit_exact(engine: ServingEngine, request, audit: Audit) -> None:
    kv = request.kv
    for layer, (key_codec, value_codec) in enumerate(engine.backend.codecs):
        reference = KVCacheStream(key_codec=key_codec, value_codec=value_codec)
        prompt, decode = kv.raw_prompt[layer], kv.raw_decode[layer]
        reference.append_tokens(prompt["keys"], prompt["values"])
        for k_row, v_row in zip(decode["keys"], decode["values"]):
            reference.append(k_row, v_row)
        if not (
            np.array_equal(reference.read_keys(), kv.read(layer, "keys"))
            and np.array_equal(reference.read_values(), kv.read(layer, "values"))
        ):
            audit.problems.append(
                f"{request.request_id}: layer {layer} decoded KV differs "
                f"from the single-stream reference"
            )


def _round_trip_error(engine: ServingEngine, requests: list, audit: Audit) -> None:
    """Every raw K/V row the audited requests recorded (their prompts and
    every decode token), through the fitted codecs and back."""
    for layer, codecs in enumerate(engine.backend.codecs):
        for side, codec in zip(("keys", "values"), codecs):
            rows = []
            for request in requests:
                rows.append(request.kv.raw_prompt[layer][side])
                rows.extend(r[None, :] for r in request.kv.raw_decode[layer][side])
            raw = np.concatenate(rows)
            # Serving-sized calls, so the audit never sets the peak RSS.
            for start in range(0, len(raw), ROUND_TRIP_ROWS):
                chunk = raw[start : start + ROUND_TRIP_ROWS]
                decoded = codec.decode_tokens(codec.encode_tokens(chunk))
                audit.err_sq += float(np.sum((chunk - decoded) ** 2))
                audit.ref_sq += float(np.sum(chunk**2))

"""The benchmark's workloads, driven through the simulator's library API.

An *episode* is one cold simulator run: a fresh engine built from the
seed, driven over a fixed, seed-generated input. Everything before the
first engine step is set-up and is timed apart from the episode. The
same seed gives the same inputs and, since the simulator is
deterministic, the same simulated outputs in every episode; the digest of
those outputs is how a run proves that a change left the simulation
alone.

Correctness checks run outside the timed region: every layer's routing
plan must conserve tokens (``validate_conservation``), no step may cause
a ``DeltaStepCost`` fallback, and a serving run must account for every
offered request exactly once (served or rejected).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from perf_trace import CHECK, SETUP_BUILD, SETUP_GENERATE
from repro.bench.harness import cluster_for
from repro.bench.serving import probe_batch_seconds
from repro.config import MoEModelConfig, SchedulerConfig, WorkloadConfig
from repro.core.router import validate_conservation
from repro.exceptions import RoutingError
from repro.runtime.pipeline import build_engine
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import build_flexmoe_serving
from repro.serving.engine import TopicRoutingModel
from repro.serving.requests import RequestStream, RequestStreamConfig
from repro.serving.slo import SLOConfig
from repro.sim import Scenario, ServingSource
from repro.workload.synthetic import make_multilayer_trace


@dataclass
class Episode:
    """Host timings, simulated outputs and check outcomes of one episode.

    Attributes:
        step_seconds: Host seconds of each engine step (training step or
            serving micro-batch).
        timed_seconds: Host seconds of the whole timed region, checks
            excluded.
        tokens: Simulated tokens processed (per step times steps for
            training, served request tokens for serving).
        sim_step_s: Simulated seconds of each step or batch execution.
        sim_latency_s: Simulated latency of each unit of work: a training
            step, or a served request (queue plus execute).
        sim_goodput: Simulated tokens per simulated second (serving: the
            report's SLO goodput).
        attempted: Operations checked (steps, plus requests when serving).
        failed: Operations that failed a check.
        digest: Hash of the simulated outputs.
        kernel_events: Events the discrete-event kernel processed.
        engine_stats: Memo and delta-evaluator counters after the run.
        errors: First few check failure messages.
    """

    step_seconds: list[float]
    timed_seconds: float
    tokens: int
    sim_step_s: list[float]
    sim_latency_s: np.ndarray
    sim_goodput: float
    attempted: int
    failed: int
    digest: str
    kernel_events: int = 0
    engine_stats: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


class StepChecks:
    """Per-step correctness checks against one engine."""

    MAX_ERRORS = 5

    def __init__(self, engine) -> None:
        self._engine = engine
        self._fallbacks = engine.delta_fallbacks()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)

    def check(self, pending) -> None:
        """Check one executed step (a ``PendingStep`` with its plans)."""
        self.attempted += 1
        problems = []
        for layer, (assignment, plan) in enumerate(
            zip(pending.assignments, pending.plans)
        ):
            try:
                validate_conservation(assignment, plan)
            except RoutingError as exc:
                problems.append(f"layer {layer}: {exc}")
        fallbacks = self._engine.delta_fallbacks()
        if fallbacks != self._fallbacks:
            problems.append(
                f"{fallbacks - self._fallbacks} DeltaStepCost fallback(s)"
            )
            self._fallbacks = fallbacks
        if problems:
            self.fail(f"step {pending.step_index}: " + "; ".join(problems))


def engine_stats(engine) -> dict[str, float]:
    """Memo hits/misses and delta fallbacks summed over the engine's
    layers (the migrate planner shares the policy's evaluator and memo)."""
    hits = misses = fallbacks = 0.0
    evaluators = {}
    for layer in engine.layers:
        scheduler = layer.scheduler
        memo = scheduler.policy.memo.stats()
        hits += memo["hits"]
        misses += memo["misses"]
        for delta in (scheduler.policy.delta, scheduler.migration.delta):
            if delta is not None:
                evaluators[id(delta)] = delta
    for delta in evaluators.values():
        fallbacks += delta.stats()["fallbacks"]
    return {"memo_hits": hits, "memo_misses": misses, "fallbacks": fallbacks}


def _digest(
    sim_step_s: list[float], signatures: tuple[bytes, ...], extra: dict
) -> str:
    digest = hashlib.sha256(np.asarray(sim_step_s, dtype=np.float64).tobytes())
    for signature in signatures:
        digest.update(signature)
    digest.update(json.dumps(extra, sort_keys=True).encode())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class TrainWorkload:
    """Multi-layer training engine over a skewed drifting gate trace,
    under the default imbalance trigger; the planner picks flat or
    hierarchical search from the cluster size."""

    name: str
    num_gpus: int
    num_experts: int
    num_moe_layers: int
    episodes: int
    steps: int
    tokens_per_gpu: int = 16_384
    d_model: int = 2048
    d_ffn: int = 8192

    def setup(self, seed: int, recorder):
        with recorder.span(SETUP_GENERATE):
            trace = make_multilayer_trace(
                self.num_moe_layers,
                self.num_experts,
                self.num_gpus,
                WorkloadConfig(
                    tokens_per_step=self.tokens_per_gpu * self.num_gpus,
                    num_steps=self.steps,
                    seed=seed,
                ),
            )
        with recorder.span(SETUP_BUILD):
            model = MoEModelConfig(
                name=self.name,
                num_layers=2 * self.num_moe_layers,
                d_model=self.d_model,
                d_ffn=self.d_ffn,
                num_experts=self.num_experts,
            )
            engine = build_engine(
                cluster_for(self.num_gpus),
                model,
                num_moe_layers=self.num_moe_layers,
                scheduler_config=SchedulerConfig(),
                seed=seed,
            )
        return engine, trace

    def run(self, prepared, recorder) -> Episode:
        """Drive the engine's schedule/execute/commit phases step by step
        (no event kernel), timing each step and checking it after."""
        engine, trace = prepared
        checks = StepChecks(engine)
        step_seconds: list[float] = []
        sim_step_s: list[float] = []
        tokens = 0
        for step in range(trace.num_steps):
            assignments = trace.step(step)
            start = time.perf_counter()
            try:
                pending = engine.step_schedule(assignments, step)
                engine.step_execute(pending)
                result = engine.step_commit(pending)
            except Exception as exc:  # a raising step is a failed operation
                checks.attempted += 1
                checks.fail(f"step {step} raised {type(exc).__name__}: {exc}")
                break
            step_seconds.append(time.perf_counter() - start)
            checks.check(pending)
            sim_step_s.append(result.step_time)
            tokens += int(assignments[0].sum())
        sim_total = float(np.sum(sim_step_s))
        return Episode(
            step_seconds=step_seconds,
            timed_seconds=float(np.sum(step_seconds)),
            tokens=tokens,
            sim_step_s=sim_step_s,
            sim_latency_s=np.asarray(sim_step_s),
            sim_goodput=tokens / sim_total if sim_total > 0 else 0.0,
            attempted=checks.attempted,
            failed=checks.failed,
            digest=_digest(sim_step_s, engine.placement_signatures(), {}),
            engine_stats=engine_stats(engine),
            errors=checks.errors,
        )


@dataclass(frozen=True)
class ServeWorkload:
    """Single-tenant online serving (inference, latency trigger) of a
    bursty request stream whose rate is calibrated against the probed
    duration of one balanced full micro-batch.

    Attributes:
        load: Offered load as a fraction of the balanced capacity.
        slo_batches: Request latency target in balanced batch durations;
            scheduling triggers at the SLO config's default 0.6 of it.
        queue_limit_batches: Queue-depth trigger in full batches.
        skew: Zipf exponent of the topic-to-expert popularity.
    """

    name: str
    num_gpus: int
    num_experts: int
    num_moe_layers: int
    episodes: int
    num_requests: int
    mean_tokens: int = 64
    batch_tokens: int = 2048
    load: float = 0.7
    slo_batches: float = 8.0
    queue_limit_batches: float = 4.0
    queue_capacity_batches: int = 16
    skew: float = 1.3
    num_topics: int = 4
    topic_drift: float = 0.4
    d_model: int = 1024
    d_ffn: int = 8192

    def setup(self, seed: int, recorder):
        with recorder.span(SETUP_BUILD):
            # Calibration probe: modelled seconds of one balanced batch.
            base = probe_batch_seconds(
                self.num_moe_layers, self.num_gpus, self.num_experts,
                self.batch_tokens, seed=seed,
            )
        rate_rps = self.load * self.batch_tokens / base / self.mean_tokens
        with recorder.span(SETUP_GENERATE):
            requests = RequestStream(
                RequestStreamConfig(
                    arrival="bursty",
                    rate_rps=rate_rps,
                    num_requests=self.num_requests,
                    mean_tokens=self.mean_tokens,
                    max_tokens=self.batch_tokens,
                    num_topics=self.num_topics,
                    topic_drift=self.topic_drift,
                    seed=seed,
                )
            ).generate()
        with recorder.span(SETUP_BUILD):
            model = MoEModelConfig(
                name=self.name,
                num_layers=2 * self.num_moe_layers,
                d_model=self.d_model,
                d_ffn=self.d_ffn,
                num_experts=self.num_experts,
            )
            server = build_flexmoe_serving(
                cluster_for(self.num_gpus),
                model,
                requests,
                BatchingConfig(
                    max_batch_tokens=self.batch_tokens,
                    max_queue_tokens=(
                        self.queue_capacity_batches * self.batch_tokens
                    ),
                ),
                SLOConfig(
                    latency_target=self.slo_batches * base,
                    queue_limit_tokens=(
                        self.queue_limit_batches * self.batch_tokens
                    ),
                ),
                num_moe_layers=self.num_moe_layers,
                routing=TopicRoutingModel(
                    self.num_moe_layers, self.num_experts, self.num_topics,
                    skew=self.skew, seed=seed,
                ),
                skew=self.skew,
                seed=seed,
            )
        return server, len(requests)

    def run(self, prepared, recorder) -> Episode:
        """Serve the stream the way ``ServingEngine.run`` does (lazy bulk
        admission on the event kernel), with the per-batch serve
        callback timed and checked."""
        server, offered = prepared
        engine = server.engine
        checks = StepChecks(engine)
        step_seconds: list[float] = []
        sim_step_s: list[float] = []
        executed: list = []
        excluded = 0.0

        execute_phase = engine.step_execute

        def step_execute(pending):
            executed.append(pending)
            return execute_phase(pending)

        engine.step_execute = step_execute
        handle = server.event_source(lazy_admission=True)

        def serve(batch, now, index):
            nonlocal excluded
            start = time.perf_counter()
            with recorder.span("serving"):
                execute = handle.serve(batch, now, index)
            step_seconds.append(time.perf_counter() - start)
            with recorder.span(CHECK):
                check_start = time.perf_counter()
                sim_step_s.append(execute)
                checks.check(executed.pop())
                excluded += time.perf_counter() - check_start
            return execute

        handle.source = ServingSource(
            handle.requests, handle.queue, serve, vectorized=True
        )
        start = time.perf_counter()
        try:
            kernel = Scenario(
                name=f"perfbench-{self.name}", sources=(handle.source,)
            ).run()
            with recorder.span("serving"):
                report = handle.report()
        except Exception as exc:  # a raising batch is a failed operation
            checks.attempted += 1
            checks.fail(f"serving raised {type(exc).__name__}: {exc}")
            return Episode(
                step_seconds=step_seconds,
                timed_seconds=time.perf_counter() - start - excluded,
                tokens=0,
                sim_step_s=sim_step_s,
                sim_latency_s=np.zeros(0),
                sim_goodput=0.0,
                attempted=checks.attempted,
                failed=checks.failed,
                digest="raised",
                engine_stats=engine_stats(engine),
                errors=checks.errors,
            )
        finally:
            del engine.step_execute
        timed = time.perf_counter() - start - excluded

        indices = [record.request.index for record in report.records]
        indices += [request.index for request in report.rejected]
        seen = np.bincount(indices, minlength=offered)
        unconserved = int(np.count_nonzero(seen != 1))
        checks.attempted += offered
        if unconserved:
            checks.failed += unconserved
            checks.errors.append(
                f"{unconserved} of {offered} requests not served or "
                "rejected exactly once"
            )
        summary = report.summary()
        return Episode(
            step_seconds=step_seconds,
            timed_seconds=timed,
            tokens=int(report.served_tokens),
            sim_step_s=sim_step_s,
            sim_latency_s=report.latencies,
            sim_goodput=float(report.goodput_tokens_per_s),
            attempted=checks.attempted,
            failed=checks.failed,
            digest=_digest(
                sim_step_s, engine.placement_signatures(), summary
            ),
            kernel_events=int(kernel.processed_events),
            engine_stats=engine_stats(engine),
            errors=checks.errors,
        )


WORKLOADS = {
    "train-64": TrainWorkload(
        "train-64", num_gpus=64, num_experts=64, num_moe_layers=4,
        episodes=8, steps=24,
    ),
    "train-256": TrainWorkload(
        "train-256", num_gpus=256, num_experts=128, num_moe_layers=2,
        episodes=8, steps=4,
    ),
    "serve-8": ServeWorkload(
        "serve-8", num_gpus=8, num_experts=16, num_moe_layers=2,
        episodes=6, num_requests=20_000,
    ),
}

#: Tiny shapes of the same workloads, for the benchmark's own tests.
TINY_WORKLOADS = {
    "train-64": TrainWorkload(
        "train-64", num_gpus=8, num_experts=8, num_moe_layers=2,
        episodes=2, steps=4,
        tokens_per_gpu=512, d_model=256, d_ffn=1024,
    ),
    "train-256": TrainWorkload(
        "train-256", num_gpus=16, num_experts=16, num_moe_layers=1,
        episodes=1, steps=3,
        tokens_per_gpu=512, d_model=256, d_ffn=1024,
    ),
    "serve-8": ServeWorkload(
        "serve-8", num_gpus=4, num_experts=8, num_moe_layers=1,
        episodes=2, num_requests=300,
    ),
}

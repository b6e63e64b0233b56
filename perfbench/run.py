"""Simulator wall-clock benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 15 --trace 0

``--trace 0`` runs whole cycles of cold episodes (set-up, then a fixed
seed-generated input; one episode per sub-seed) until ``--seconds`` of
engine time are measured and prints the end-to-end metrics. ``--trace 1``
plays every episode untraced and then traced and prints the per-layer
metrics; the last traced episode's spans are written to
``perfbench/out/`` as Chrome trace-event JSON. Human-readable lines come first; the last line of standard output
is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every check passed, 1 when a check failed and 2
when the simulator cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Thread pools pinned to one thread: each workload is one
#: single-threaded process.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: A further cycle starts only if it should end within this much wall
#: time, so one invocation stays well inside three minutes.
MAX_WALL_S = 45.0

#: ``--trace 0`` metrics (name -> unit).
END_TO_END = {
    "tokens_per_s": "tok/s",
    "step_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_step_ms": "ms",
    "sim_goodput_tok_s": "tok/s",
}

#: ``--trace 1`` metrics (name -> unit), in the order of the layer table.
PER_LAYER = {
    "router.calls": "count",
    "router.self_s": "s",
    "executor.calls": "count",
    "executor.self_s": "s",
    "scheduler.calls": "count",
    "scheduler.self_s": "s",
    "scheduler.trigger_ratio": "ratio",
    "policy.calls": "count",
    "policy.self_s": "s",
    "policy.action_ratio": "ratio",
    "migration.calls": "count",
    "migration.self_s": "s",
    "migration.move_ratio": "ratio",
    "delta.calls": "count",
    "delta.self_s": "s",
    "delta.fallbacks": "count",
    "collectives.calls": "count",
    "collectives.self_s": "s",
    "collectives.miss_ratio": "ratio",
    "cost_model.memo_hit_ratio": "ratio",
    "adjustment.calls": "count",
    "adjustment.self_s": "s",
    "adjustment.committed": "count",
    "kernel.events": "count",
    "kernel.self_s": "s",
    "serving.self_s": "s",
    "admission.calls": "count",
    "admission.self_s": "s",
    "slo.self_s": "s",
    "setup.profile_s": "s",
    "setup.generate_s": "s",
    "setup.build_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("train-64", "train-256", "serve-8")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> dict[str, str]:
    for name in THREAD_ENV:
        os.environ[name] = "1"
    return {name: os.environ[name] for name in THREAD_ENV}


def load_program():
    """Import the simulator from ``src/`` and the benchmark's modules."""
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import perf_trace
    import perf_workloads

    return perf_workloads, perf_trace


def git_state() -> tuple[str, bool | None]:
    """``(commit, dirty)`` of the checkout, without looking above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode != 0:
            return "unknown", None
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    return head.stdout.strip(), bool(status.stdout.strip())


def provenance(args: argparse.Namespace, argv: list[str], threads: dict) -> dict:
    import numpy

    commit, dirty = git_state()
    return {
        "command": shlex.join(["python3", "perfbench/run.py", *argv]),
        "argv": argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": threads,
    }


@dataclass
class Record:
    """One episode of a run, with the recorder that traced it (if any)."""

    sub_seed: int
    episode: object
    setup_s: float
    recorder: object
    run_start: float


def run_cycles(workload, seed: int, seconds: float, traced: bool, trace_mod):
    """Whole cycles of cold episodes until ``seconds`` of timed work.

    A cycle runs one episode per sub-seed ``seed * K + k`` (``K =
    workload.episodes``), so every run averages over the same number of
    independent inputs. Traced runs play each sub-seed twice, untraced
    then traced, which gives the tracing overhead and a digest
    comparison. A further cycle starts only if it should end within
    :data:`MAX_WALL_S` and no check failed.
    """
    null = trace_mod.NullRecorder()
    sub_seeds = [seed * workload.episodes + k for k in range(workload.episodes)]
    cycles: list[list[Record]] = []
    timed = 0.0
    started = time.perf_counter()
    while True:
        cycle = []
        for sub_seed in sub_seeds:
            for recorder in (null, trace_mod.SpanRecorder()) if traced else (null,):
                begin = time.perf_counter()
                with (
                    trace_mod.instrumented(recorder)
                    if recorder is not null else nullcontext()
                ):
                    prepared = workload.setup(sub_seed, recorder)
                    run_start = recorder.begin_run()
                    episode = workload.run(prepared, recorder)
                del prepared
                cycle.append(
                    Record(
                        sub_seed, episode, run_start - begin,
                        recorder if recorder is not null else None, run_start,
                    )
                )
                timed += episode.timed_seconds
        cycles.append(cycle)
        elapsed = time.perf_counter() - started
        if (
            timed >= seconds
            or any(record.episode.failed for record in cycle)
            or elapsed * (1 + 1 / len(cycles)) > MAX_WALL_S
        ):
            return cycles


def check_outcome(cycles) -> tuple[int, int, list[str]]:
    """``(attempted, failed, errors)`` over all episodes, counting each
    episode whose simulated digest differs from the first one of its
    sub-seed as one more failed operation."""
    first: dict[int, str] = {}
    attempted = failed = 0
    errors: list[str] = []
    for record in (r for cycle in cycles for r in cycle):
        episode = record.episode
        attempted += episode.attempted
        failed += episode.failed
        errors.extend(episode.errors)
        expected = first.setdefault(record.sub_seed, episode.digest)
        if episode.digest != expected:
            failed += 1
            errors.append(
                f"sub-seed {record.sub_seed}: digest {episode.digest} != "
                f"{expected}: the simulated outputs changed between "
                "identical runs"
            )
    return attempted, failed, errors


def run_digest(cycles) -> str:
    """One digest of the simulated outputs of a cycle's sub-seeds."""
    digests = sorted({(r.sub_seed, r.episode.digest) for r in cycles[0]})
    joined = ",".join(f"{seed}:{digest}" for seed, digest in digests)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def end_to_end_metrics(cycles) -> tuple[dict, dict]:
    """``(metrics, extras)``: the bounded metrics, and the ones printed for
    people only (sample counts, the step-time p90, the simulated p99)."""
    records = [r for cycle in cycles for r in cycle]
    episodes = [r.episode for r in records]
    steps = [s for episode in episodes for s in episode.step_seconds]
    timed = sum(episode.timed_seconds for episode in episodes)
    # Simulated outputs repeat exactly per sub-seed: one cycle holds them.
    first = [r.episode for r in cycles[0]]
    latencies = [lat for episode in first for lat in episode.sim_latency_s]
    metrics = {
        "tokens_per_s": sum(e.tokens for e in episodes) / timed,
        "step_ms_p50": statistics.median(steps) * 1e3,
        "setup_s": statistics.median(r.setup_s for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_step_ms": statistics.fmean(
            statistics.fmean(e.sim_step_s) for e in first
        ) * 1e3,
        "sim_goodput_tok_s": statistics.fmean(e.sim_goodput for e in first),
    }
    extras = {
        "cycles": len(cycles),
        "episodes": len(episodes),
        "steps": len(steps),
        "setups": len(records),
    }
    # Timings get the highest percentile with ten samples beyond it.
    if len(steps) >= 100:
        extras["step_ms_p90"] = statistics.quantiles(steps, n=10)[-1] * 1e3
    extras["sim_units"] = len(latencies)
    if len(latencies) >= 1000:
        extras["sim_p99_ms"] = statistics.quantiles(latencies, n=100)[-1] * 1e3
    return metrics, extras


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def layer_metrics(records, trace_mod) -> dict:
    """Per-layer metrics of one cycle's traced episodes: calls and self
    seconds summed over the cycle, ratios of the summed counts, set-up
    seconds per episode."""
    own: Counter = Counter()
    setup: Counter = Counter()
    counters: Counter = Counter()
    stats: Counter = Counter()
    kernel_events = 0
    timed = 0.0
    for record in records:
        own.update(record.recorder.self_times(since=record.run_start))
        setup.update(record.recorder.durations(until=record.run_start))
        counters.update(record.recorder.counters)
        stats.update(record.episode.engine_stats)
        kernel_events += record.episode.kernel_events
        timed += record.episode.timed_seconds
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, kind = name.partition(".")
        if kind == "calls":
            metrics[name] = float(counters[name])
        elif kind == "self_s" and layer in trace_mod.LAYERS:
            metrics[name] = float(own[layer])
    episodes = len(records)
    metrics.update(
        {
            "scheduler.trigger_ratio": ratio(
                counters["scheduler.triggered"], counters["scheduler.calls"]
            ),
            "policy.action_ratio": ratio(
                counters["policy.with_actions"], counters["policy.calls"]
            ),
            "migration.move_ratio": ratio(
                counters["migration.with_moves"], counters["migration.calls"]
            ),
            "delta.fallbacks": stats["fallbacks"],
            "collectives.miss_ratio": ratio(
                counters["collectives.misses"], counters["collectives.calls"]
            ),
            "adjustment.committed": float(counters["adjustment.committed"]),
            "cost_model.memo_hit_ratio": ratio(
                stats["memo_hits"], stats["memo_hits"] + stats["memo_misses"]
            ),
            "kernel.events": float(kernel_events),
            "setup.profile_s": setup[trace_mod.SETUP_PROFILE] / episodes,
            "setup.generate_s": setup[trace_mod.SETUP_GENERATE] / episodes,
            "setup.build_s": (
                setup[trace_mod.SETUP_BUILD] - setup[trace_mod.SETUP_PROFILE]
            ) / episodes,
            "trace.coverage": sum(own[layer] for layer in trace_mod.LAYERS)
            / timed,
        }
    )
    return metrics


def traced_metrics(cycles, trace_mod) -> dict:
    """Medians over cycles of the per-cycle layer metrics, plus the
    tracing overhead: traced over untraced timed seconds, minus one."""
    rows = []
    overheads = []
    for cycle in cycles:
        traced = [r for r in cycle if r.recorder is not None]
        plain = [r for r in cycle if r.recorder is None]
        row = layer_metrics(traced, trace_mod)
        row["trace.overhead"] = (
            sum(r.episode.timed_seconds for r in traced)
            / sum(r.episode.timed_seconds for r in plain)
            - 1.0
        )
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def write_chrome_trace(cycles, args, prov: dict) -> Path:
    """Write the last traced episode's spans as Chrome trace-event JSON."""
    recorder = cycles[-1][-1].recorder
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    document = recorder.chrome_trace({"provenance": prov})
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")
    return path


def print_table(metrics: dict, units: dict, note: str) -> None:
    print("metrics:")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    if note:
        print(f"  ({note})")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    threads = pin_threads()
    try:
        perf_workloads, perf_trace = load_program()
    except ImportError as exc:
        print(
            f"error: cannot import the simulator from {ROOT / 'src'}: {exc}",
            file=sys.stderr,
        )
        return 2
    workload = perf_workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    cycles = run_cycles(workload, args.seed, args.seconds, traced, perf_trace)
    attempted, failed, errors = check_outcome(cycles)
    prov = provenance(args, argv, threads)
    digest = run_digest(cycles)
    units = PER_LAYER if traced else END_TO_END
    try:
        if traced:
            metrics = traced_metrics(cycles, perf_trace)
            path = write_chrome_trace(cycles, args, prov)
            note = (
                f"median over {len(cycles)} cycle(s) of {workload.episodes} "
                "traced episodes; self time is span time minus child spans; "
                f"trace written to {os.path.relpath(path, ROOT)}"
            )
        else:
            metrics, extras = end_to_end_metrics(cycles)
            extra_units = {"step_ms_p90": "ms", "sim_p99_ms": "ms"}
            note = ", ".join(
                f"{k}={v:.6g}{extra_units.get(k, '')}"
                for k, v in extras.items()
            )
    except (statistics.StatisticsError, ZeroDivisionError):
        if not failed:
            raise
        # Failed steps left nothing to measure; the result reports them.
        metrics, note = dict.fromkeys(units, 0.0), "nothing to measure"
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"digest {digest}, error_rate {failed}/{attempted} = "
        f"{failed / attempted:.6g}"
    )
    print_table(metrics, units, note)
    for message in errors[:10]:
        print(f"  check failed: {message}")
    print(json.dumps({"provenance": prov, "digest": digest}, sort_keys=True))
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The in-process workloads: ``cold-exact`` and ``approx-disk``.

Both are closed loops with one caller: the next job starts when the
previous one has returned.  In a traced run every odd job goes through
the layers' public functions one call at a time, each inside a span,
and every even job runs untraced, so one run gives both the per-layer
times and the tracing overhead.

The fixed reference work of :class:`common.MachineSpeed` runs before
every job, every disk hit and every set-up child and once after the
last of each, outside every timing, and each timing is reported at the
nominal machine's speed by the two reference samples around it.
``runtime.gc_s`` is a wall time.  The run and its set-up children stay
on one CPU, so the reference runs where the work does.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import inputs
import oracle
from common import (
    SETUP_SAMPLES,
    GcMonitor,
    MachineSpeed,
    Outcome,
    Settings,
    SpanLog,
    check_fidelity,
    mean,
    median_or_zero,
    on_one_cpu,
    percentile,
    self_peak_rss_mb,
    time_python_setup,
)

#: Circuits per run re-simulated by the oracle.
ORACLE_SAMPLES = 8
#: Pipeline stages reported as ``pipeline.<stage>_s``.
PIPELINE_LAYERS = ("build", "approximate", "synthesize", "verify", "finalize")

COLD_SETUP = """
import repro
from repro import StateVector, prepare_state
from repro.pipeline import PipelineConfig
PipelineConfig()
print("ready", flush=True)
"""

APPROX_SETUP = """
import sys, tempfile
import repro
from repro.engine import CircuitCache, PreparationEngine, PreparationJob
PreparationEngine(cache=CircuitCache(disk_dir=tempfile.mkdtemp(dir=sys.argv[1])))
print("ready", flush=True)
"""


def traced_prepare(spans: SpanLog, job: int, config, state):
    """``prepare_state`` done by hand: ``default_passes`` in order, then
    ``finalize``, each call inside a ``pipeline.<stage>`` span."""
    from repro.pipeline import PipelineContext
    from repro.pipeline.pipeline import default_passes, finalize

    context = PipelineContext(config=config, state=state)
    for stage in default_passes(config):
        with spans.span(f"pipeline.{stage.name}", job) as span:
            context = stage.run(context)
        context.record(stage.name, span.seconds)
    with spans.span("pipeline.finalize", job):
        return finalize(context)


def pipeline_layers(spans: SpanLog) -> dict[str, float]:
    return {
        f"pipeline.{stage}_s": median_or_zero(
            spans.per_job(f"pipeline.{stage}")
        )
        for stage in PIPELINE_LAYERS
    }


def overhead_ratio(traced: list[float], untraced: list[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced)


def time_setups(
    speed: MachineSpeed, snippet: str, args: list[str],
    seconds: list[float], segments: list[int],
) -> None:
    """Time half of :data:`SETUP_SAMPLES` set-up children, each between
    two reference samples, into ``seconds`` and ``segments``."""
    for _ in range(SETUP_SAMPLES // 2):
        segments.append(speed.sample())
        seconds.append(time_python_setup(snippet, args))
    speed.sample()


def _directory_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


@on_one_cpu()
def cold_exact(settings: Settings, jobs: int) -> Outcome:
    """``prepare_state`` with the default config on fresh dense states."""
    from repro import StateVector, prepare_state
    from repro.circuit import qasm
    from repro.pipeline import PipelineConfig

    setup_speed = MachineSpeed()
    setup: list[float] = []
    setup_segments: list[int] = []
    time_setups(setup_speed, COLD_SETUP, [], setup, setup_segments)
    amplitudes = inputs.dense_states(settings.seed, jobs)
    states = [StateVector(row, inputs.COLD_DIMS) for row in amplitudes]
    sample = set(
        inputs.sample_indices("cold-exact", settings.seed, jobs, ORACLE_SAMPLES)
    )
    config = PipelineConfig()
    speed = MachineSpeed()
    spans = SpanLog(speed)
    monitor = GcMonitor()
    failures: dict[int, str] = {}
    times: list[float] = []
    segments: list[int] = []
    operations: list[int] = []
    fidelities: list[float] = []
    nodes: list[int] = []
    kept = {}

    gc.collect()
    with monitor if settings.trace else nullcontext():
        cpu_start = time.process_time()
        for position, state in enumerate(states):
            segment = speed.sample()
            if settings.trace and position % 2:
                with spans.span("job", position):
                    result = traced_prepare(spans, position, config, state)
            else:
                start = time.perf_counter()
                result = prepare_state(state)
                times.append(time.perf_counter() - start)
                segments.append(segment)
            report = result.report
            operations.append(report.operations)
            fidelities.append(report.fidelity)
            nodes.append(report.dag_nodes)
            check_fidelity(failures, position, report.fidelity, 1.0)
            if position in sample:
                kept[position] = result.circuit
        speed.sample()  # closes the last job's segment
        cpu = time.process_time() - cpu_start - speed.reference_seconds()
    nominal = speed.nominal(times, segments)
    time_setups(setup_speed, COLD_SETUP, [], setup, setup_segments)

    for number, position in enumerate(sorted(kept)):
        text = qasm.dumps(kept[position])
        if settings.corrupt and number == 0:
            text = oracle.perturb_first_rotation(text)
        oracle.check_sample(
            failures, position, text, amplitudes[position],
            fidelities[position], 1.0,
        )

    layers = pipeline_layers(spans)
    layers.update({
        "dd.nodes_mean": mean(nodes),
        "runtime.gc_s": monitor.seconds,
        "runtime.gc_gen2": monitor.gen2,
        "machine.probe_s": speed.median,
        "trace.overhead_ratio": overhead_ratio(spans.per_job("job"), nominal),
    })
    return Outcome(
        attempted=jobs,
        failures=failures,
        end_to_end={
            "setup_s": statistics.median(
                setup_speed.nominal(setup, setup_segments)
            ),
            "jobs_per_s": jobs / speed.nominal_busy_seconds(),
            "job_s_p50": percentile(nominal, 50),
            "job_s_p90": percentile(nominal, 90),
            "ops_mean": mean(operations),
            "fidelity_mean": mean(fidelities),
            "peak_rss_mb": self_peak_rss_mb(),
        },
        layers=layers,
        samples={
            "setup_s": len(setup),
            "job_s_p50": len(times),
            "job_s_p90": len(times),
            "pipeline": len(spans.per_job("job")),
        },
        info={
            "inputs": inputs.fingerprint(amplitudes),
            "oracle_samples": len(kept),
            "window_s": speed.busy_seconds(),
            "window_cpu_s": cpu,
            "probe_s": speed.median,
            "wall": {
                "setup_s": statistics.median(setup),
                "jobs_per_s": jobs / speed.busy_seconds(),
                "job_s_p50": percentile(times, 50),
                "job_s_p90": percentile(times, 90),
            },
            "ops_mean": mean(operations),
            "fidelity_mean": mean(fidelities),
            "dd.nodes_mean": mean(nodes),
        },
    )


@on_one_cpu()
def approx_disk(settings: Settings, jobs: int) -> Outcome:
    """A ``PreparationEngine`` over a disk cache at ``min_fidelity`` 0.95.

    Each job runs once as a miss (pipeline and disk store) and then
    again through a fresh engine and cache over the same directory,
    which is a disk hit.
    """
    from repro.circuit import qasm
    from repro.engine import (
        CircuitCache,
        PreparationEngine,
        PreparationJob,
        SynthesisOptions,
    )
    from repro.engine.cache import CacheEntry
    from repro.engine.jobs import content_key

    setup_speed = MachineSpeed()
    setup: list[float] = []
    setup_segments: list[int] = []
    setup_args = [str(settings.work_dir)]
    time_setups(setup_speed, APPROX_SETUP, setup_args, setup, setup_segments)
    options = SynthesisOptions(min_fidelity=inputs.APPROX_MIN_FIDELITY)
    seeds = inputs.distinct_seeds("approx-disk", settings.seed, jobs)
    job_list = [
        PreparationJob(
            dims=inputs.APPROX_DIMS,
            family="random",
            params={"rng": seed},
            options=options,
        )
        for seed in seeds
    ]
    sample = set(
        inputs.sample_indices("approx-disk", settings.seed, jobs, ORACLE_SAMPLES)
    )
    cache_dir = settings.work_dir / "cache"
    engine = PreparationEngine(cache=CircuitCache(disk_dir=cache_dir))
    speed = MachineSpeed()
    spans = SpanLog(speed)
    monitor = GcMonitor()
    failures: dict[int, str] = {}
    times: list[float] = []
    segments: list[int] = []
    hit_times: list[float] = []
    hit_segments: list[int] = []
    operations: list[int] = []
    fidelities: list[float] = []
    nodes: list[int] = []
    entry_bytes: list[int] = []
    hit_lookups = hit_hits = 0
    kept = {}

    gc.collect()
    with monitor if settings.trace else nullcontext():
        cpu_start = time.process_time()
        for position, job in enumerate(job_list):
            segment = speed.sample()
            traced = settings.trace and position % 2 == 1
            if traced:
                stored_before = _directory_bytes(cache_dir)
                with spans.span("job", position):
                    state = job.resolve_state()
                    with spans.span("engine.key", position):
                        key = content_key(state, options)
                    engine.cache.get(key)  # the lookup run_batch makes
                    result = traced_prepare(spans, position, options, state)
                    with spans.span("engine.cache_put", position):
                        engine.cache.put(
                            CacheEntry(key, result.circuit, result.report)
                        )
                circuit, report = result.circuit, result.report
                entry_bytes.append(_directory_bytes(cache_dir) - stored_before)
                with spans.span("circuit.dumps", position):
                    text = qasm.dumps(circuit)
                with spans.span("circuit.loads", position):
                    qasm.loads(text)
            else:
                start = time.perf_counter()
                outcome = engine.run_batch([job]).outcomes[0]
                elapsed = time.perf_counter() - start
                if not outcome.ok or outcome.cache_hit:
                    failures[position] = f"miss phase returned {outcome!r}"
                    continue
                times.append(elapsed)
                segments.append(segment)
                circuit, report = outcome.circuit, outcome.report
            operations.append(report.operations)
            fidelities.append(report.fidelity)
            nodes.append(report.dag_nodes)
            check_fidelity(
                failures, position, report.fidelity, options.min_fidelity
            )

            hit_segments.append(speed.sample())
            hit_engine = PreparationEngine(cache=CircuitCache(disk_dir=cache_dir))
            start = time.perf_counter()
            hit = hit_engine.run_batch([job]).outcomes[0]
            hit_times.append(time.perf_counter() - start)
            hit_stats = hit_engine.stats()
            hit_lookups += hit_stats.cache_lookups
            hit_hits += hit_stats.cache_hits
            if not (hit.ok and hit.cache_hit and hit.circuit == circuit):
                failures.setdefault(
                    position, "disk hit differs from the stored circuit"
                )
            if traced:
                with spans.span("engine.cache_get", position):
                    CircuitCache(disk_dir=cache_dir).get(key)
            if position in sample and hit.ok:
                kept[position] = (hit.circuit, report.fidelity)
        speed.sample()  # closes the last hit's segment
        cpu = time.process_time() - cpu_start - speed.reference_seconds()
    nominal = speed.nominal(times, segments)
    nominal_hits = speed.nominal(hit_times, hit_segments)
    completed = len(times) + len(spans.per_job("job")) + len(hit_times)
    time_setups(setup_speed, APPROX_SETUP, setup_args, setup, setup_segments)

    # The targets are the program's own random states, so the inputs
    # fingerprint covers the resolved amplitudes, not only their seeds:
    # a change in what the program is asked to prepare shows there.
    targets = [job.resolve_state().amplitudes for job in job_list]
    for number, position in enumerate(sorted(kept)):
        circuit, reported = kept[position]
        text = qasm.dumps(circuit)
        if settings.corrupt and number == 0:
            text = oracle.perturb_first_rotation(text)
        oracle.check_sample(
            failures, position, text, targets[position],
            reported, options.min_fidelity,
        )

    miss_stats = engine.stats()
    layers = pipeline_layers(spans)
    layers.update({
        "dd.nodes_mean": mean(nodes),
        "engine.key_s": median_or_zero(spans.per_job("engine.key")),
        "engine.cache_put_s": median_or_zero(spans.per_job("engine.cache_put")),
        "engine.cache_get_s": median_or_zero(spans.per_job("engine.cache_get")),
        "engine.entry_bytes": mean(entry_bytes),
        "engine.hit_ratio": (miss_stats.cache_hits + hit_hits)
        / max(1, miss_stats.cache_lookups + hit_lookups),
        "circuit.dumps_s": median_or_zero(spans.per_job("circuit.dumps")),
        "circuit.loads_s": median_or_zero(spans.per_job("circuit.loads")),
        "hit_s_p50": percentile(nominal_hits, 50) or 0.0,
        "hit_s_p90": percentile(nominal_hits, 90) or 0.0,
        "runtime.gc_s": monitor.seconds,
        "runtime.gc_gen2": monitor.gen2,
        "machine.probe_s": speed.median,
        "trace.overhead_ratio": overhead_ratio(spans.per_job("job"), nominal),
    })
    return Outcome(
        attempted=jobs,
        failures=failures,
        end_to_end={
            "setup_s": statistics.median(
                setup_speed.nominal(setup, setup_segments)
            ),
            "jobs_per_s": completed / speed.nominal_busy_seconds(),
            "job_s_p50": percentile(nominal, 50),
            "job_s_p90": percentile(nominal, 90),
            "ops_mean": mean(operations),
            "fidelity_mean": mean(fidelities),
            "peak_rss_mb": self_peak_rss_mb(),
        },
        layers=layers,
        samples={
            "setup_s": len(setup),
            "job_s_p50": len(times),
            "job_s_p90": len(times),
            "hit_s_p50": len(hit_times),
            "hit_s_p90": len(hit_times),
            "pipeline": len(spans.per_job("job")),
        },
        info={
            "inputs": inputs.fingerprint(*targets),
            "oracle_samples": len(kept),
            "window_s": speed.busy_seconds(),
            "window_cpu_s": cpu,
            "probe_s": speed.median,
            "wall": {
                "setup_s": statistics.median(setup),
                "jobs_per_s": completed / speed.busy_seconds(),
                "job_s_p50": percentile(times, 50),
                "job_s_p90": percentile(times, 90),
            },
            "ops_mean": mean(operations),
            "fidelity_mean": mean(fidelities),
            "dd.nodes_mean": mean(nodes),
            "engine.hit_ratio": layers["engine.hit_ratio"],
        },
    )

"""The ``serve-small`` workload: small jobs over HTTP to a real server.

``python -m repro serve --listen 127.0.0.1:0`` with default flags runs
as a child process.  This process is the only client: two threads,
each a closed loop over one keep-alive connection, post
``/v1/prepare``.  Every other request of a connection is fresh; the
rest repeat one of that connection's latest fresh requests, which has
already been answered and so is a memory hit whatever the
interleaving.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

import inputs
import oracle
from common import (
    ROOT,
    SETUP_SAMPLES,
    MachineSpeed,
    Outcome,
    Settings,
    SpanLog,
    check_fidelity,
    mean,
    on_one_cpu,
    percentile,
    pinned_environ,
    process_peak_rss_mb,
    read_line_until,
    stop_process,
)
from inproc import overhead_ratio, pipeline_layers, traced_prepare

CONNECTIONS = 2
#: Fresh requests re-fetched with their circuits for the oracle.
ORACLE_SAMPLES = 16
#: Fresh states whose pipeline the traced run drives in this process.
PIPELINE_SAMPLES = 100
HEADERS = {"Content-Type": "application/json"}
_LISTENING = re.compile(r"listening on \S+:(\d+) ")


class Server:
    """One ``repro serve`` child, started and answering ``/healthz``."""

    def __init__(self, log_path) -> None:
        start = time.perf_counter()
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0"],
            cwd=ROOT,
            env=pinned_environ(dict(os.environ)),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            line = read_line_until(self.process, "listening on", timeout=120.0)
            self.port = int(_LISTENING.search(line).group(1))
            self._wait_healthy(deadline=time.monotonic() + 60.0)
        except BaseException:
            self.close()
            raise
        self.ready_seconds = time.perf_counter() - start

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                self.get("/healthz")
                return
            except (OSError, http.client.HTTPException, RuntimeError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def request(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(method, path, body=body, headers=HEADERS)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get(self, path: str) -> bytes:
        status, data = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return data

    def close(self) -> None:
        try:
            stop_process(self.process)
        finally:
            self._log.close()


def _scrape(server: Server) -> dict[str, float]:
    """Unlabelled samples of the server's Prometheus exposition."""
    values = {}
    for line in server.get("/metrics").decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def _engine_counters(server: Server) -> tuple[int, int]:
    engine = json.loads(server.get("/v1/stats"))["result"]["engine"]
    return engine["cache_hits"], engine["cache_lookups"]


def _delta_mean(before: dict, after: dict, name: str) -> float:
    count = after[f"{name}_count"] - before.get(f"{name}_count", 0.0)
    total = after[f"{name}_sum"] - before.get(f"{name}_sum", 0.0)
    return total / count if count else 0.0


def _drive(port, plan, barrier, results, spans) -> None:
    """One closed-loop client over one keep-alive connection."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.connect()
        barrier.wait()
        for request, body, traced in plan:
            with spans.span("net.request", request.index) if traced else nullcontext():
                start = time.perf_counter()
                connection.request(
                    "POST", "/v1/prepare", body=body, headers=HEADERS
                )
                response = connection.getresponse()
                data = response.read()
                end = time.perf_counter()
            results.append((request, end - start, response.status, data, traced))
    except (OSError, http.client.HTTPException, threading.BrokenBarrierError) as error:
        barrier.abort()
        results.append((None, 0.0, 0, repr(error).encode(), False))
    finally:
        connection.close()


@on_one_cpu()
def _time_server_starts(
    settings: Settings, speed: MachineSpeed, first: int,
    seconds: list[float], segments: list[int],
) -> None:
    """Start and stop half of :data:`SETUP_SAMPLES` servers, each between
    two reference samples on the same CPU, into ``seconds`` and
    ``segments``."""
    for number in range(first, first + SETUP_SAMPLES // 2):
        segments.append(speed.sample())
        server = Server(settings.work_dir / f"server-{number}.log")
        seconds.append(server.ready_seconds)
        server.close()
    speed.sample()


def serve_small(settings: Settings, pairs: int) -> Outcome:
    """``pairs`` fresh requests plus as many repeats per connection."""
    from repro import StateVector
    from repro.pipeline import PipelineConfig

    plans = inputs.wire_requests(settings.seed, pairs, CONNECTIONS)
    fresh = [request for plan in plans for request in plan if request.fresh]
    total = sum(len(plan) for plan in plans)
    spans = SpanLog()
    # In a traced run every other fresh request of a connection is
    # wrapped in a span, the rest are timed bare.
    encoded = [
        [
            (request, request.body,
             settings.trace and request.fresh and request.index % 4 == 2)
            for request in plan
        ]
        for plan in plans
    ]

    setup: list[float] = []
    setup_segments: list[int] = []
    speed = MachineSpeed()
    server = None
    try:
        _time_server_starts(settings, speed, 0, setup, setup_segments)
        # The server that serves the window may use every CPU.
        server = Server(settings.work_dir / "server.log")
        metrics_before = _scrape(server)
        hits_before, lookups_before = _engine_counters(server)
        results: list[list] = [[] for _ in plans]
        barrier = threading.Barrier(CONNECTIONS + 1)
        threads = [
            threading.Thread(
                target=_drive,
                args=(server.port, plan, barrier, sink, spans),
            )
            for plan, sink in zip(encoded, results)
        ]
        for thread in threads:
            thread.start()
        try:
            barrier.wait(timeout=120.0)
        except threading.BrokenBarrierError:
            pass  # a client failed to connect; it is counted below
        window_start = time.perf_counter()
        cpu_start = time.process_time()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - window_start
        cpu = time.process_time() - cpu_start
        peak_rss = process_peak_rss_mb(server.process.pid)
        metrics_after = _scrape(server)
        hits_after, lookups_after = _engine_counters(server)

        failures: dict[int, str] = {}
        job_times, hit_times, overheads, traced_times = [], [], [], []
        response_bytes, operations, fidelities, nodes = [], [], [], []
        answered = 0
        for request, seconds, status, data, traced in (
            item for sink in results for item in sink
        ):
            if request is None:
                failures[-1 - len(failures)] = f"connection failed: {data!r}"
                continue
            answered += 1
            try:
                envelope = json.loads(data)
                outcome = envelope["result"]
                ok = status == 200 and envelope["ok"] and outcome["ok"]
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                failures[request.index] = f"status {status}: {data[:200]!r}"
                continue
            if outcome["cache_hit"] == request.fresh:
                failures[request.index] = (
                    f"cache_hit {outcome['cache_hit']} on a "
                    f"{'fresh' if request.fresh else 'repeated'} request"
                )
            report = outcome["report"]
            check_fidelity(failures, request.index, report["fidelity"], 1.0)
            response_bytes.append(len(data))
            if not request.fresh:
                hit_times.append(seconds)
                continue
            operations.append(report["operations"])
            fidelities.append(report["fidelity"])
            nodes.append(report["dag_nodes"])
            overheads.append(seconds - outcome["elapsed"])
            if traced:
                traced_times.append(seconds)
            else:
                job_times.append(seconds)
        if answered < total:
            failures.setdefault(-1, f"{total - answered} requests unanswered")

        for number, position in enumerate(
            inputs.sample_indices("serve-small", settings.seed, len(fresh),
                                  ORACLE_SAMPLES)
        ):
            request = fresh[position]
            status, data = server.request(
                "POST", "/v1/prepare",
                json.dumps({"job": request.job, "include_circuit": True}).encode(),
            )
            try:
                outcome = json.loads(data)["result"]
                text = outcome["circuit"]
                reported = outcome["report"]["fidelity"]
            except (ValueError, KeyError, TypeError):
                failures.setdefault(request.index, f"re-fetch: {data[:200]!r}")
                continue
            if settings.corrupt and number == 0:
                text = oracle.perturb_first_rotation(text)
            oracle.check_sample(
                failures, request.index, text,
                inputs.wire_target(request.job), reported, 1.0,
            )
        server.close()
        server = None
        _time_server_starts(
            settings, speed, SETUP_SAMPLES // 2, setup, setup_segments
        )
    finally:
        if server is not None:
            server.close()

    if settings.trace:
        config = PipelineConfig()
        for position in inputs.sample_indices(
            "serve-small/pipeline", settings.seed, len(fresh), PIPELINE_SAMPLES
        ):
            job = fresh[position].job
            state = StateVector(inputs.wire_target(job), tuple(job["dims"]))
            traced_prepare(spans, position, config, state)

    layers = pipeline_layers(spans)
    layers.update({
        "dd.nodes_mean": mean(nodes),
        "engine.hit_ratio": (hits_after - hits_before)
        / max(1, lookups_after - lookups_before),
        "hit_s_p50": percentile(hit_times, 50) or 0.0,
        "hit_s_p90": percentile(hit_times, 90) or 0.0,
        "net.overhead_s": percentile(overheads, 50) or 0.0,
        "net.response_bytes": mean(response_bytes),
        "service.queue_wait_s_mean": _delta_mean(
            metrics_before, metrics_after, "repro_queue_wait_seconds"
        ),
        "service.batch_size_mean": _delta_mean(
            metrics_before, metrics_after, "repro_batch_size"
        ),
        "machine.probe_s": speed.median,
        "trace.overhead_ratio": overhead_ratio(traced_times, job_times),
    })
    return Outcome(
        attempted=total,
        failures=failures,
        end_to_end={
            "setup_s": statistics.median(speed.nominal(setup, setup_segments)),
            "jobs_per_s": answered / window,
            "job_s_p50": percentile(job_times, 50),
            "job_s_p90": percentile(job_times, 90),
            "ops_mean": mean(operations),
            "fidelity_mean": mean(fidelities),
            "peak_rss_mb": peak_rss,
        },
        layers=layers,
        samples={
            "setup_s": len(setup),
            "job_s_p50": len(job_times),
            "job_s_p90": len(job_times),
            "hit_s_p50": len(hit_times),
            "hit_s_p90": len(hit_times),
            "net.overhead_s": len(overheads),
            "pipeline": len(spans.per_job("pipeline.finalize")),
        },
        info={
            "inputs": inputs.fingerprint(
                *(inputs.wire_target(request.job) for request in fresh)
            ),
            "oracle_samples": min(ORACLE_SAMPLES, len(fresh)),
            "window_s": window,
            "window_cpu_s": cpu,
            "probe_s": speed.median,
            "wall": {"setup_s": statistics.median(setup)},
            "ops_mean": mean(operations),
            "fidelity_mean": mean(fidelities),
            "dd.nodes_mean": mean(nodes),
            "engine.hit_ratio": layers["engine.hit_ratio"],
        },
    )

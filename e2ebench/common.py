"""Measurement helpers shared by every workload.

Statistics with the sample-count rule, spans recorded around the
benchmark's own calls into the program, garbage-collector accounting,
the machine-speed reference, set-up timing of child processes, and the
facts about the run environment that each run prints.

This module imports neither numpy nor the program, so ``run.py`` can
pin the environment before either is loaded.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources, put on ``sys.path`` and ``PYTHONPATH``.
SRC = ROOT / "src"

#: Pinned to one thread in every process the benchmark starts.  On a
#: 2-core machine a 600x600 matmul took 0.024 s with two OpenBLAS
#: threads and 0.010 s with one, and two threads fight the load
#: generator or the server for the second core.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)
#: Switches that select a non-default implementation; removed so the
#: default path is the one measured.
IMPLEMENTATION_SWITCHES = ("REPRO_DD_BACKEND", "REPRO_FUSED_VERIFY")

#: Each timing percentile needs this many samples beyond it.
SAMPLES_BEYOND = 10
#: Set-ups timed per run, half before and half after the measured
#: window; ``setup_s`` is the median of their times at nominal speed.
#: The fastest one is no steadier: it picks whichever start's
#: bracketing reference samples happened to read slow.
SETUP_SAMPLES = 12


@contextmanager
def on_one_cpu():
    """Run this thread, and the processes it starts meanwhile, on one CPU.

    The two vCPUs of the VM the benchmark was built on were often not
    equally fast (one read the reference 1.5 times slower than the
    other for minutes), so the reference must run on the CPU that does
    the work it scales.  Usable as a decorator.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def pinned_environ(base: dict[str, str]) -> dict[str, str]:
    """``base`` with BLAS pinned to one thread, the implementation
    switches removed, and the program's sources on ``PYTHONPATH``."""
    env = {
        key: value
        for key, value in base.items()
        if key not in IMPLEMENTATION_SWITCHES
    }
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], pct: int) -> float | None:
    """Linear-interpolated ``pct``-th percentile of ``values``.

    ``None`` unless at least :data:`SAMPLES_BEYOND` samples lie beyond
    it (the median needs 20 samples, p90 needs 100).
    """
    count = len(values)
    if count * (100 - pct) // 100 < SAMPLES_BEYOND:
        return None
    ordered = sorted(values)
    position = (count - 1) * pct / 100
    low = math.floor(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def median_or_zero(values: list[float]) -> float:
    """Median of per-layer samples; 0.0 when the layer never ran."""
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into the program, made by the benchmark."""

    name: str
    job: int
    start: float
    end: float = 0.0
    #: The :class:`MachineSpeed` segment the call ran in, if any.
    segment: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SpanLog:
    """Spans kept in memory and rolled up when the run ends.

    A ``job`` span encloses the spans of one job's layer calls, which
    share its job number.  With a ``speed``, every span remembers its
    segment and is rolled up at the nominal machine's speed.
    """

    speed: "MachineSpeed | None" = None
    spans: list[Span] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, job: int):
        segment = len(self.speed.times) - 1 if self.speed else None
        record = Span(name, job, time.perf_counter(), segment=segment)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.spans.append(record)

    def per_job(self, name: str) -> list[float]:
        """Seconds spent in spans called ``name``, summed per job."""
        totals: dict[int, float] = {}
        for span in self.spans:
            if span.name == name:
                seconds = span.seconds
                if span.segment is not None:
                    seconds *= self.speed.factor(span.segment)
                totals[span.job] = totals.get(span.job, 0.0) + seconds
        return list(totals.values())


# ----------------------------------------------------------------------
# Python runtime and machine
# ----------------------------------------------------------------------
class GcMonitor:
    """Wall time and generation-2 count of garbage collections run in
    this process while the monitor is installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._started
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


#: Median seconds of :func:`reference_work` on the 2-vCPU Xeon VM
#: (2.1 GHz, Python 3.11) the benchmark was tuned on: the "nominal
#: machine" whose speed in-process timings are reported at.
NOMINAL_REFERENCE_S = 0.0040


def reference_work() -> float:
    """Wall time of a fixed piece of work that touches no program code.

    A pure-Python loop, a chain of small complex numpy products and a
    burst of string allocation: the three kinds of work a preparation
    job is made of, about 1 ms each on the nominal machine.  The work
    runs twice and the second pass is timed, so the caches a job left
    behind do not slow it: the figure follows the machine, not the
    program's memory footprint.  The strings are not tracked by the
    garbage collector, so the work does not move the program's
    collections.
    """
    import numpy

    matrix = numpy.eye(6, dtype=complex)
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for number in range(15_000):
            total += number * number % 7
        product = matrix
        for _ in range(500):
            product = matrix @ product * 1.0
        texts = [str(number) * 3 for number in range(8_000)]
        del texts
        seconds = time.perf_counter() - start
    return seconds


class MachineSpeed:
    """:func:`reference_work` timed between the timed pieces of a run.

    On a shared VM the same code ran up to 1.5 times slower, in spells
    that changed from one second to the next and lasted up to minutes,
    so a wall time says as much about the machine as about the program.
    A workload calls :meth:`sample` between the pieces it times; each
    *segment*, everything between two samples, is then reported at the
    speed of the nominal machine by the two samples that bracket it::

        nominal seconds = wall seconds * NOMINAL_REFERENCE_S
                          / mean(sample before, sample after)

    The program never runs inside the reference, so a slower program
    still reads slower, one for one.
    """

    def __init__(self) -> None:
        #: Reference seconds, in the order they were taken.
        self.times: list[float] = []
        self._bounds: list[tuple[float, float]] = []

    def sample(self) -> int:
        """Time the reference once; returns the segment that starts now."""
        start = time.perf_counter()
        self.times.append(reference_work())
        self._bounds.append((start, time.perf_counter()))
        return len(self.times) - 1

    def factor(self, segment: int) -> float:
        """Nominal seconds per wall second in ``segment``."""
        before, after = self.times[segment], self.times[segment + 1]
        return 2.0 * NOMINAL_REFERENCE_S / (before + after)

    def nominal(self, seconds: list[float], segments: list[int]) -> list[float]:
        """Wall times, each taken in the matching segment, at nominal speed."""
        return [value * self.factor(k) for value, k in zip(seconds, segments)]

    def _segment_seconds(self) -> list[float]:
        return [
            self._bounds[k + 1][0] - self._bounds[k][1]
            for k in range(len(self._bounds) - 1)
        ]

    def busy_seconds(self) -> float:
        """Wall time of all closed segments: the run outside the reference."""
        return math.fsum(self._segment_seconds())

    def nominal_busy_seconds(self) -> float:
        """:meth:`busy_seconds` at the nominal machine's speed."""
        return math.fsum(
            seconds * self.factor(k)
            for k, seconds in enumerate(self._segment_seconds())
        )

    def reference_seconds(self) -> float:
        """Wall time spent in the reference, both passes included."""
        return math.fsum(end - start for start, end in self._bounds)

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a child process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or ``None`` if unknown."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {
            line.split()[-1]
            for line in maps
            if "openblas" in line.lower() and ".so" in line.split()[-1]
        }
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def on_tmpfs(path: Path) -> bool:
    """Whether ``path`` lives on a tmpfs mount."""
    resolved = str(path.resolve())
    best, best_type = "", ""
    with open("/proc/mounts") as mounts:
        for line in mounts:
            parts = line.split()
            mount_point, fs_type = parts[1], parts[2]
            inside = resolved == mount_point or resolved.startswith(
                mount_point.rstrip("/") + "/"
            )
            if inside and len(mount_point) > len(best):
                best, best_type = mount_point, fs_type
    return best_type == "tmpfs"


def environment_facts(work_dir: Path) -> dict[str, object]:
    """What a reader needs to compare two runs' machines."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "work_dir_tmpfs": on_tmpfs(work_dir),
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def read_line_until(
    process: subprocess.Popen, marker: str, timeout: float
) -> str:
    """Read ``process``'s binary stdout until a line containing ``marker``.

    Reads the pipe's descriptor directly, so a line already sitting in
    a reader's buffer can never be missed by ``select``.

    Raises:
        RuntimeError: If the process exits or ``timeout`` passes first.
    """
    deadline = time.monotonic() + timeout
    descriptor = process.stdout.fileno()
    pending = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"no {marker!r} line within {timeout} s")
        ready, _, _ = select.select([descriptor], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(descriptor, 65536)
        if not chunk:
            raise RuntimeError(
                f"process exited with {process.wait()} before {marker!r}"
            )
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            text = line.decode(errors="replace")
            if marker in text:
                return text


def stop_process(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """Terminate ``process`` (SIGTERM, then SIGKILL) and reap it."""
    if process.poll() is None:
        process.terminate()
        try:
            process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
    else:
        process.communicate()


def time_python_setup(snippet: str, args: list[str]) -> float:
    """Seconds from starting ``python -c snippet`` to its ``ready`` line.

    The snippet does a workload's set-up (imports, temp dir, engine)
    and prints ``ready``; the child is reaped before returning.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", snippet, *args],
        cwd=ROOT,
        env=pinned_environ(dict(os.environ)),
        stdout=subprocess.PIPE,
    )
    try:
        read_line_until(process, "ready", timeout=120.0)
        elapsed = time.perf_counter() - start
        process.communicate(timeout=60.0)
    finally:
        stop_process(process)
    if process.returncode != 0:
        raise RuntimeError(f"set-up child exited with {process.returncode}")
    return elapsed


# ----------------------------------------------------------------------
# What a workload is given and returns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Settings:
    """One run's arguments.

    Attributes:
        seed: Determines every input.
        trace: Record spans and report per-layer metrics.
        work_dir: Scratch directory inside the checkout, removed after.
        corrupt: Perturb one rotation angle of the first oracle sample
            (self-test: the run must then fail).
    """

    seed: int
    trace: bool
    work_dir: Path
    corrupt: bool = False


@dataclass
class Outcome:
    """What a workload measured and checked.

    Attributes:
        attempted: Jobs (or requests) run in the measured window.
        failures: Reason per failed job position.
        end_to_end: Values of the end-to-end metrics; ``None`` marks a
            percentile the sample count does not support.
        layers: Values of the per-layer metrics the workload runs.
        samples: Sample count behind each metric, or behind every
            metric of a layer (key ``"pipeline"``).
        info: Facts printed beside the metrics (input fingerprint,
            deterministic figures, probe times).
    """

    attempted: int
    failures: dict[int, str]
    end_to_end: dict[str, float | None]
    layers: dict[str, float]
    samples: dict[str, int]
    info: dict[str, object]


def check_fidelity(
    failures: dict[int, str], job: int, reported: float, floor: float
) -> None:
    """Record a failure when a reported fidelity is below its floor."""
    if not reported >= floor - 1e-9:
        failures.setdefault(job, f"fidelity {reported!r} below {floor}")

#!/usr/bin/env python3
"""End-to-end benchmark of mixed-dimensional qudit state preparation.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload cold-exact --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics.  A run does a fixed amount of work
set by the workload and ``--seconds`` (at 30, 16 to 50 s of measuring
on a 2-vCPU VM), checks every output, and prints a table, one ``info``
JSON line, and last one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every check passed, 1 when a job failed a check,
2 when the program or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from common import ROOT, SRC, Settings, environment_facts, pinned_environ

# Pin BLAS and drop implementation switches before numpy is imported,
# here and in every child process (they inherit this environment).
_PINNED = pinned_environ(dict(os.environ))
os.environ.clear()
os.environ.update(_PINNED)
sys.path.insert(0, str(SRC))

#: Work per second of ``--seconds``: jobs (``cold-exact``), jobs each
#: run as a miss and a hit (``approx-disk``), fresh-plus-repeat pairs
#: per connection (``serve-small``).  At the 30 s of BENCHMARK.json
#: this is 300 jobs (more than the 256 circuits the process-wide plan
#: cache holds), 110 jobs and 3000 requests: at least 110 samples
#: behind every p90.
WORK_PER_SECOND = {
    "cold-exact": 10.0,
    "approx-disk": 11.0 / 3.0,
    "serve-small": 25.0,
}
WORK_DIR = ".e2ebench_work"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: perturb one rotation angle of the first circuit "
             "the oracle checks; the run must report a failure",
    )
    return parser.parse_args(argv)


def _catalogue() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        document = json.load(handle)
    return {
        section: {metric["name"]: metric["unit"] for metric in document[section]}
        for section in ("end_to_end", "per_layer")
    }


def _run(args) -> int:
    try:
        catalogue = _catalogue()
    except (OSError, ValueError, KeyError) as error:
        print(f"e2ebench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as error:
        print(f"e2ebench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"e2ebench: the program is not in {SRC}, refusing to measure "
              f"{repro.__file__}", file=sys.stderr)
        return 2
    import inproc
    import serving

    workload = {
        "cold-exact": inproc.cold_exact,
        "approx-disk": inproc.approx_disk,
        "serve-small": serving.serve_small,
    }[args.workload]
    work = max(1, round(args.seconds * WORK_PER_SECOND[args.workload]))
    work_dir = ROOT / WORK_DIR / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        facts = environment_facts(work_dir)
        outcome = workload(
            Settings(
                seed=args.seed,
                trace=bool(args.trace),
                work_dir=work_dir,
                corrupt=args.corrupt,
            ),
            work,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    section = "per_layer" if args.trace else "end_to_end"
    measured = outcome.layers if args.trace else outcome.end_to_end
    unknown = set(measured) - set(catalogue[section])
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    print(
        f"e2ebench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{outcome.attempted} attempted, {len(outcome.failures)} failed"
    )
    for name, unit in catalogue[section].items():
        # A layer the workload does not run reads 0; a percentile
        # without enough samples is left out.
        value = measured.get(name, 0.0 if args.trace else None)
        count = outcome.samples.get(
            name, outcome.samples.get(name.partition(".")[0])
        )
        if value is None:
            print(f"  {name:28s} {'-':>14s} {unit:6s} too few samples (n={count})")
            continue
        metrics[name] = {"value": value, "unit": unit}
        note = f"n={count}" if count is not None else ""
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    for position, reason in sorted(outcome.failures.items())[:10]:
        print(f"  FAILED job {position}: {reason}", file=sys.stderr)
    print(json.dumps({"info": {**facts, **outcome.info, "samples": outcome.samples}}))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0 if not outcome.failures else 1


def main(argv=None) -> int:
    return _run(_arguments(argv))


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the triforms library and CLI.

    python3 bench/run.py --workload elim|v22|scan --seed N --seconds S --trace 0|1

Each workload is a closed loop: one caller in one process and one thread
starts the next job only when the last one has finished.  The inputs come
from the seed, and every answer is checked exactly after its timed span.
Every time in the metrics is a wall time scaled by the machine-speed probe
of speed.py, which cancels the speed swings of a shared host; the report
line holds the unscaled wall-clock figures too.  The loop runs whole rounds
(see workloads.py) until the scaled job spans add up to --seconds, so a run
holds about as many jobs whatever the host's speed, or until the unscaled
ones add up to UNSCALED_CAP times that, which bounds a run on a slow host.

With --trace 0 the last line of stdout holds the end-to-end metrics.  With
--trace 1 the loop first runs untraced for a share of --seconds, then runs
as many rounds again with timing wrappers installed (tracing.py); the last
line holds the per-layer metrics of the traced rounds, and
trace.overhead_ratio compares the two.  The line before the last is a report
with the run's metadata, the job-kind and outcome histograms and
ops_failed_ratio.  Exit code 0 means a result was printed; ``correct`` in it
says whether every answer passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TAIL_SAMPLES_BEYOND = 10
SETUP_REPEATS = 5  # fresh interpreters before and again after the loop
UNTRACED_SHARE = 0.4  # share of --seconds a traced run spends untraced
UNSCALED_CAP = 1.6  # a loop also stops when its unscaled job spans reach this many --seconds

# Timed in a fresh interpreter: what every CLI user pays before the first job.
# The probes before and after it scale the time as the jobs' times are scaled.
SETUP_CODE = """\
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
import speed
probes = [speed.probe() for _ in range(5)]
start = time.perf_counter()
import triforms, triforms.cli, warmup
warmup.warm_up()
elapsed = time.perf_counter() - start
probes += [speed.probe() for _ in range(5)]
print(elapsed, statistics.median(probes))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Stats:
    """Latencies, job kinds and outcomes of the jobs run so far."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.kinds: Counter = Counter()
        self.outcomes: Counter = Counter()
        self.busy_s = 0.0

    def run(self, job, tracer=None) -> None:
        from triforms.errors import TriformsError

        outcome = None
        start = perf_counter()
        try:
            result = job.run() if tracer is None else tracer.job(job.kind, job.run)
        except TriformsError as exc:
            outcome = Counter({"refused:" + exc.kind: 1})
        except Exception:  # an uncaught non-TriformsError exception is a failure
            outcome = _failure(job)
        elapsed = perf_counter() - start
        self.starts.append(start)
        self.latencies.append(elapsed)
        self.busy_s += elapsed
        self.kinds[job.kind] += 1
        if outcome is None:
            try:
                outcome = job.check(result)
            except Exception:  # a wrong answer or a check that could not run
                outcome = _failure(job)
        self.outcomes.update(outcome)

    @property
    def failed(self) -> int:
        return self.outcomes["failed"]


def _failure(job) -> Counter:
    print(f"job {job.kind} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
    return Counter({"failed": 1})


def measure(stream, stats: Stats, track: speed.SpeedTrack, seconds=None, rounds=None,
            tracer=None) -> int:
    """Run whole rounds until the scaled job spans add up to ``seconds`` (or
    the unscaled ones to UNSCALED_CAP times that), or for a fixed number of ``rounds``,
    probing the machine's speed between jobs; returns the number of rounds run."""
    done = 0
    busy_s = scaled_s = 0.0
    track.tick(force=True)
    while (
        (scaled_s < seconds and busy_s < UNSCALED_CAP * seconds) if rounds is None else (done < rounds)
    ):
        for job in next(stream):
            track.tick()
            stats.run(job, tracer)
            busy_s += stats.latencies[-1]
            scaled_s += stats.latencies[-1] * track.recent_factor()
        done += 1
    for _ in range(speed.PROBE_SIDE):
        track.tick(force=True)
    return done


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it,
    that percentile, and the samples beyond; the maximum when there are fewer
    samples than that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return ordered[-1], 100.0, 0
    return (
        ordered[n - 1 - TAIL_SAMPLES_BEYOND],
        100.0 * (n - TAIL_SAMPLES_BEYOND) / n,
        TAIL_SAMPLES_BEYOND,
    )


def setup_times(repeats: int) -> list[tuple[float, float]]:
    """Import-plus-warm-up times of ``repeats`` fresh interpreters, each with
    the median time of the probes around it."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        elapsed, probe_s = map(float, proc.stdout.split())
        times.append((elapsed, probe_s))
    return times


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(stream, seconds: float) -> tuple[Stats, dict, dict]:
    setup_times(1)  # may compile bytecode in a fresh checkout; not counted
    # half the set-up samples before the loop and half after, so that one
    # slow spell of a shared machine does not hit them all
    setup_runs = setup_times(SETUP_REPEATS)
    stats = Stats()
    track = speed.SpeedTrack()
    measure(stream, stats, track, seconds=seconds)
    setup_runs += setup_times(SETUP_REPEATS)
    scaled = track.scaled(stats.starts, stats.latencies)
    setup_scaled = [elapsed * speed.PROBE_REF_S / probe_s for elapsed, probe_s in setup_runs]
    tail_s, tail_pct, beyond = tail(scaled)
    metrics = {
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_p50_ms": statistics.median(scaled) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB
        "setup_s": statistics.median(setup_scaled),
    }
    details = {
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "samples": len(scaled),
        "setup_runs_s": setup_scaled,
        "wall_clock": {
            "jobs_per_s": len(stats.latencies) / stats.busy_s,
            "job_p50_ms": statistics.median(stats.latencies) * 1e3,
            "job_tail_ms": tail(stats.latencies)[0] * 1e3,
            "setup_s": statistics.median(elapsed for elapsed, _ in setup_runs),
        },
        "probe_s_quartiles": statistics.quantiles(
            track.durations + [probe_s for _, probe_s in setup_runs], n=4
        ),
    }
    return stats, metrics, details


def run_traced(stream, seconds: float, name: str) -> tuple[Stats, dict, dict]:
    stats = Stats()
    track = speed.SpeedTrack()
    rounds = measure(stream, stats, track, seconds=seconds * UNTRACED_SHARE)
    untraced_jobs = len(stats.latencies)
    untraced_outcomes = stats.outcomes.copy()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        measure(stream, stats, track, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{name}.json")
    traced_jobs = len(stats.latencies) - untraced_jobs
    scaled = track.scaled(stats.starts, stats.latencies)
    untraced_s, traced_s = sum(scaled[:untraced_jobs]), sum(scaled[untraced_jobs:])
    # the wrapped calls run inside the traced jobs, so they scale as those do
    time_scale = traced_s / sum(stats.latencies[untraced_jobs:])
    metrics = tracer.metrics(traced_jobs, traced_s / untraced_s, time_scale)
    details = {
        "untraced_jobs": untraced_jobs,
        "traced_jobs": traced_jobs,
        "traced_outcomes": dict(stats.outcomes - untraced_outcomes),
    }
    return stats, metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "triforms" / "__init__.py").is_file():
        print(f"bench: no triforms sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import triforms
    import workloads

    if not Path(triforms.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported triforms from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import warmup

    warmup.warm_up()  # the loop times warm caches; setup_s times filling them
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stream = workloads.rounds(args.workload, args.seed, workdir)
        if args.trace:
            units = tracing.metric_units()
            trace_name = f"{args.workload}-seed{args.seed}"
            stats, metrics, details = run_traced(stream, args.seconds, trace_name)
        else:
            units = E2E_UNITS
            stats, metrics, details = run_untraced(stream, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(stats.latencies)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "job_kinds": dict(sorted(stats.kinds.items())),
        "outcomes": dict(sorted(stats.outcomes.items())),
        "ops_failed_ratio": {"value": stats.failed / attempted, "unit": "ratio"},
        **details,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

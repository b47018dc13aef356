"""Self-test of the benchmark: ``python3 -m pytest bench -q`` from the repo root.

Each workload runs at a tiny size, untraced and traced.  The tests check
that every metric BENCHMARK.json names is printed with its unit, that no job
fails, that the traced run confirms the intended split of layers between
the workloads, that every job kind's check rejects a corrupted answer, and
that a job time is scaled by the speed probes taken around it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def test_workloads_match_the_spec():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    report, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] == sum(report["job_kinds"].values()) >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert report["ops_failed_ratio"] == {"value": 0.0, "unit": "ratio"}


def _layer_values(workload: str, prefix: str) -> dict:
    _report, result = run_bench(workload, 1)
    return {
        name: m["value"] for name, m in result["metrics"].items() if name.startswith(prefix)
    }


def test_v22_calls_no_elimination_or_finitefield():
    for prefix in ("elimination.", "finitefield."):
        values = _layer_values("v22", prefix)
        assert values and not any(values.values())


def test_elim_calls_no_biquadratic():
    values = _layer_values("elim", "biquadratic.")
    assert values and not any(values.values())


def test_scan_builds_gram_matrices_about_once_per_point():
    report, result = run_bench("scan", 1)
    calls = result["metrics"]["biquadratic.gram_matrices.calls"]["value"] * report["traced_jobs"]
    points = report["traced_outcomes"]["points_scanned"]
    assert 1.0 <= calls / points <= 1.05


def test_speed_scaling_uses_the_probes_around_a_job():
    track = speed.SpeedTrack()
    track.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    track.durations = [d * speed.PROBE_REF_S for d in (1, 1, 2, 2, 4, 4)]
    # two probes before the job and two after it: median of 1, 1, 2, 2
    assert track.factor(2.5, 2.6) == pytest.approx(1 / 1.5)
    # a job spanning probes 3 and 4 also sees them
    assert track.factor(2.5, 4.5) == pytest.approx(1 / 2)
    assert track.scaled([4.5], [0.1]) == [pytest.approx(0.1 / 3)]
    # the loop's running estimate uses the last four probes
    assert track.recent_factor() == pytest.approx(1 / 3)


@pytest.fixture
def workdir():
    path = BENCH / "out" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _with_json(result, edit):
    code, text = result
    out = json.loads(text)
    edit(out)
    return code, json.dumps(out)


def _bump_json(key, bump):
    return lambda result: _with_json(result, lambda out: out.update({key: bump(out[key])}))


def _corrupt_report(report):
    # consistent with the normalization, so only the mod-p identity can catch it
    return dataclasses.replace(
        report, raw=report.raw + report.constant, normalized=report.normalized + 1
    )


def _corrupt_scan(tried):
    return [
        (verdict, cls, report and dataclasses.replace(report, points_checked=1))
        for verdict, cls, report in tried
    ]


CORRUPT = {
    "disc_zz_3": _corrupt_report,
    "disc_zz_4": _corrupt_report,
    "disc_qq_3": _corrupt_report,
    "disc_qq_4": _corrupt_report,
    "raw_zz_5": lambda raw: raw + 1,
    "raw_gf_4": lambda raw: (raw + 1) % workloads.ELIM_PRIME,
    "raw_gf_5": lambda raw: (raw + 1) % workloads.ELIM_PRIME,
    "raw_gf_6": lambda raw: (raw + 1) % workloads.ELIM_PRIME,
    "smooth_sweep": lambda verdicts: [not verdicts[0]] + verdicts[1:],
    "cubic_invariants": lambda ij: (ij[0] + 1, ij[1]),
    "bad_primes": lambda result: (result[0], result[1] + 1),
    "cli_disc": _bump_json("raw", lambda raw: str(Fraction(raw) + 1)),
    "cli_disc_mod": _bump_json("raw", lambda raw: str((int(raw) + 1) % workloads.ELIM_PRIME)),
    "cli_cubic_invariants": _bump_json("I", lambda i: str(Fraction(i) + 1)),
    "cli_good_reduction": _bump_json("unfactored_cofactor", lambda c: str(int(c) + 1)),
    "act_qq": lambda r: (r[0], r[1], r[2].scale(2), r[3]),
    "act_zz": lambda r: (r[0], r[1], r[2], r[3].scale(2)),
    "act_gf101": lambda r: (r[0], r[1], r[2].scale(2), r[3]),
    "welldef_qq": lambda same: False,
    "welldef_zz": lambda same: False,
    "welldef_gf101": lambda same: False,
    "scan_gf11": _corrupt_scan,
    "scan_gf13": _corrupt_scan,
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_checks_reject_corrupted_answers(workload, workdir):
    jobs = {job.kind: job for job in next(workloads.rounds(workload, 7, workdir))}
    for kind, job in sorted(jobs.items()):
        result = job.run()
        outcome = job.check(result)
        assert outcome["ok"] + outcome["generic"] == 1, kind
        with pytest.raises(workloads.CheckError):
            job.check(CORRUPT[kind](result))


def test_cli_usage_error_is_a_failure():
    with pytest.raises(workloads.CheckError):
        workloads._cli_output((2, ""))

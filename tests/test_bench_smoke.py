"""Smoke runs of the benchmark's workloads: in-process, and through the
worker as the benchmark starts it.

bench/worker.py and bench/workloads.py are used from the checkout, as they
are, and their requests run through bellbench.cli.main with the benchmark's
own checks. A request that fails here would count as a failed operation of
the benchmark. Timings are not looked at.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench(request):
    """(worker, workloads, spans) modules of bench/, imported without bytecode
    files, so nothing is written under bench/."""
    saved_flag, saved_path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import worker
        import workloads
    finally:
        sys.dont_write_bytecode = saved_flag
        sys.path[:] = saved_path
    return worker, workloads, spans


@pytest.mark.parametrize("name", ["analyze-ladder", "lhv-tables"])
def test_workload_sessions_have_no_failed_requests(bench, name):
    worker, workloads, _ = bench
    assert name in workloads.WORKLOADS
    run = worker.Run(worker.import_cli())
    warm = workloads.warmup(name, 1)
    run.judge(warm, worker.call(run.cli, warm.argv, warm.stdin))
    for index in range(2):
        run.session(*workloads.session(name, 1, index))
    assert run.failed == 0, run.failures
    # the warm-up, and per session every request plus one byte-identity re-run
    assert run.attempted > 3


def test_traced_session_has_no_failed_requests(bench):
    worker, workloads, spans = bench
    run = worker.Run(worker.import_cli())
    requests, _ = workloads.session("analyze-ladder", 1, 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.session(requests, 0, rerun=False)
    finally:
        tracer.restore()
    assert run.failed == 0, run.failures
    assert run.attempted == len(requests)
    assert tracer.self_times()[0]["cli.main"] > 0


@pytest.mark.parametrize("name", ["analyze-ladder", "lhv-tables"])
def test_worker_run_end_to_end(name):
    # The worker as the benchmark starts it, in a fresh interpreter, for a
    # fraction of a second of sessions. Timings are not looked at.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "run", name, "1", "0.2", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert {"attempted", "failed", "failures", "numpy", "peak_rss_kib", "probe",
            "sessions"} <= result.keys()
    assert result["failed"] == 0, result["failures"]
    assert result["probe"]["failed"] == 0, result["probe"]["failures"]
    assert result["attempted"] > 0 and result["sessions"]

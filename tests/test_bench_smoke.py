"""In-process smoke run of the benchmark's workloads.

bench/worker.py and bench/workloads.py are imported from the checkout, as
they are, and their requests run through bellbench.cli.main with the
benchmark's own checks. A request that fails here would count as a failed
operation of the benchmark. Timings are not looked at.
"""

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

"""Benchmark worker: runs in a fresh interpreter started by run.py.

    worker.py setup
        Read one warm-up request as JSON from stdin, import bellbench.cli, run
        the request, and print the CLOCK_MONOTONIC time (ns) at which it ended.
        run.py subtracts the time it spawned this process: one set-up sample.

    worker.py run WORKLOAD SEED SECONDS TRACE
        Run the warm-up request, then whole sessions of the workload until the
        next one would overrun SECONDS, checking every report. With TRACE 1
        each session runs both untraced and under span tracing, one pass
        right after the other. Prints one JSON object with the results.

Requests go through bellbench.cli.main(argv) in this process, one at a time,
with stdin, stdout and stderr redirected to memory. Only run mode imports the
harness modules (workloads, checks, spans), so a set-up sample times the
interpreter, the program's imports and the warm-up request alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """bellbench.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    from bellbench import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "bellbench":
        raise ImportError(f"bellbench.cli imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def call(cli, argv, stdin_text):
    """(exit code or None if it raised, stdout, error text) of one request."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising request is a failed request, not a failed run
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def setup_main() -> int:
    request = json.load(sys.stdin)
    cli = import_cli()
    code, _, error = call(cli, request["argv"], request["stdin"])
    end = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    print(json.dumps({"end_ns": end, "code": code, "error": error}))
    return 0


class Run:
    """Outcome counts of the requests one worker makes."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def judge(self, request, outcome) -> None:
        """Count one request, and record why if it failed."""
        self.attempted += 1
        code, stdout, error = outcome
        reason = None
        if code is None:
            reason = f"raised {error}"
        elif code != 0:
            reason = f"exit {code}: {error.strip()[-300:]}"
        else:
            try:
                request.check(stdout)
            except Exception as exc:  # a malformed report fails its request, whatever it breaks
                reason = f"check failed: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.fail(request, reason)

    def fail(self, request, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{' '.join(request.argv)}: {reason}")

    def session(self, requests, rerun_index, rerun=True) -> float:
        """Run one session; return its wall time. Checks run after the clock stops."""
        start = time.perf_counter()
        outcomes = [call(self.cli, r.argv, r.stdin) for r in requests]
        elapsed = time.perf_counter() - start
        for request, outcome in zip(requests, outcomes):
            self.judge(request, outcome)
        if not rerun:
            return elapsed
        # Identical flags must give identical bytes: repeat one request.
        request = requests[rerun_index]
        again = call(self.cli, request.argv, request.stdin)
        self.attempted += 1
        if again[:2] != outcomes[rerun_index][:2]:
            self.fail(request, "re-run output differs")
        return elapsed


def run_sessions(run: Run, workload: str, seed: int, seconds: float, tracer=None):
    """Session times, sessions 0, 1, ... until the next would overrun `seconds`.

    With a tracer, each session also runs a second time under spans, right
    before or after its untraced pass (alternately, so neither mode always
    runs on warmer caches); the re-run check is made in the untraced pass.
    Returns (untraced times, traced times).
    """
    import workloads

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        session_start = time.perf_counter()
        index = len(untraced)
        requests, rerun_index = workloads.session(workload, seed, index)
        if tracer is not None and index % 2:
            traced.append(traced_session(run, tracer, requests))
        untraced.append(run.session(requests, rerun_index))
        if tracer is not None and not index % 2:
            traced.append(traced_session(run, tracer, requests))
        now = time.perf_counter()
        if now - start + (now - session_start) > seconds:
            return untraced, traced


def traced_session(run: Run, tracer, requests) -> float:
    tracer.install()
    try:
        return run.session(requests, 0, rerun=False)
    finally:
        tracer.restore()


def run_main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import resource

    import workloads

    cli = import_cli()
    run = Run(cli)
    warm = workloads.warmup(workload, seed)
    run.judge(warm, call(cli, warm.argv, warm.stdin))
    # One untimed session first, so the timed ones do not pay first-touch
    # costs (the first 1.4 GB --copies 6 request runs about 1.5x slower).
    run.session(*workloads.session(workload, seed, -1))

    result = {}
    if not trace:
        result["sessions"] = run_sessions(run, workload, seed, seconds)[0]
    else:
        import spans as tracing

        tracer = tracing.Tracer()
        untraced, traced = run_sessions(run, workload, seed, seconds, tracer)
        result["sessions"] = traced
        result["layers"] = tracing.layer_metrics(tracer, traced, untraced)
        self_s = tracer.self_times()[0]
        result["span_self_s"] = dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    # Peak RSS of the workload alone: read before the defect probe, whose
    # tables are not part of it.
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    probe = Run(cli)
    for request in workloads.defect_probe(seed):
        probe.judge(request, call(cli, request.argv, request.stdin))

    result.update(
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures,
        peak_rss_kib=peak_rss_kib,
        numpy=sys.modules["numpy"].__version__,
        probe={"attempted": probe.attempted, "failed": probe.failed, "failures": probe.failures},
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        sys.exit(setup_main())
    _, _, name, seed_text, seconds_text, trace_text = sys.argv
    sys.exit(run_main(name, int(seed_text), float(seconds_text), trace_text == "1"))

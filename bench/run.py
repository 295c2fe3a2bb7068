"""bellctl benchmark: time to reproduce sets of the paper's claims.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; the program under test is src/bellbench of the checkout
this file sits in. For one workload it

1. spawns one worker interpreter that makes closed-loop sessions, one request
   at a time through bellbench.cli.main(argv), for S seconds and checks every
   report against the harness's own ground truth (worker.py, checks.py);
2. before and after it, spawns SETUP_SAMPLES fresh interpreters one after
   another; each imports bellbench.cli and answers the workload's warm-up
   request (setup_s, their median);
3. prints the metrics, an environment block and, as the last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from spans recorded around every
public function of the package (spans.py). `--workload all` runs every
workload both ways and prints every metric with its unit and sample count.
Nothing runs concurrently: at most one child process is alive at a time.
Results and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh interpreters per run for setup_s, half before and half after the
# worker, so their median spans the minute the run takes.
SETUP_SAMPLES = 21
# Every run must end within 180 s; leave room for set-up and the final checks.
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
TAIL_BEYOND = 10

# Layers whose combined self-time share should exceed one half, per workload.
PREDICTIONS = {
    "analyze-ladder": ("mermin", "states", "operators"),
    "lhv-tables": ("lhv", "simplex"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(args, stdin_text: str, timeout: float) -> str:
    """Start one child, feed it stdin, wait for it to end; return its stdout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(stdin_text, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return out


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up request."""
    request = workloads.warmup(workload, seed)
    payload = json.dumps({"argv": list(request.argv), "stdin": request.stdin})
    samples = []
    for _ in range(count):
        spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        out = spawn(["setup"], payload, SETUP_TIMEOUT_S)
        answer = json.loads(out.splitlines()[-1])
        if answer["code"] != 0:
            raise BenchError(f"warm-up request failed: {answer}")
        samples.append((answer["end_ns"] - spawned) / 1e9)
    return samples


def tail(times: list[float]) -> tuple[float, int] | None:
    """Nearest-rank value at the highest whole percentile with TAIL_BEYOND
    sessions above it, and that percentile; None when that percentile would
    not lie above the median."""
    n = len(times)
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    if p <= 50:
        return None
    return sorted(times)[math.ceil(p * n / 100) - 1], p


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (unknown outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload_seed": seed,
        "git_commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    before = SETUP_SAMPLES // 2 + 1
    setup = setup_samples(name, seed, before)
    # Leave room for the samples after the worker within the 180 s a run may take.
    budget = min(WORKER_TIMEOUT_S, 160 - (time.monotonic() - started))
    out = spawn(["run", name, str(seed), repr(seconds), "1" if trace else "0"], "", budget)
    worker = json.loads(out.splitlines()[-1])
    setup += setup_samples(name, seed, SETUP_SAMPLES - before)

    sessions = worker["sessions"]
    session_tail = tail(sessions)
    samples = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "session_p50_s": f"median of {len(sessions)} sessions",
        "peak_rss_mb": "worker ru_maxrss",
    }
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in worker["layers"].items()}
        probe = worker["probe"]
        metrics["probe.lhv_7party.failed_fraction"] = {
            "value": probe["failed"] / probe["attempted"], "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "session_p50_s": {"value": statistics.median(sessions), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
    return {
        "workload": name,
        "why": workloads.WORKLOADS[name].why,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed, worker["numpy"]),
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "failed_fraction": worker["failed"] / worker["attempted"],
        "failures": worker["failures"],
        "metrics": metrics,
        "samples": samples,
        "session_tail": None if session_tail is None else
                        {"value": session_tail[0], "unit": "s", "percentile": session_tail[1]},
        "setup_samples_s": setup,
        "session_times_s": sessions,
        "defect_probe": worker["probe"],
        "layer_wait": "none: one request at a time in one thread, no queue",
        "span_self_s": worker.get("span_self_s"),
        "spans_file": worker.get("spans_file"),
    }


def prediction(result: dict) -> str | None:
    layers = PREDICTIONS.get(result["workload"])
    if not result["trace"] or layers is None:
        return None
    share = sum(result["metrics"][f"{layer}.share"]["value"] for layer in layers)
    verdict = "holds" if share > 0.5 else "FAILED"
    return f"prediction {'+'.join(layers)} dominate self time: share {share:.3f} -> {verdict}"


def note(result: dict, name: str, unit: str) -> str:
    """How a printed metric was sampled."""
    if not result["trace"]:
        return result["samples"][name]
    if name == "trace.overhead_s":
        return f"median of {len(result['session_times_s'])} paired differences"
    if name.startswith("trace."):
        return f"median of {len(result['session_times_s'])} sessions"
    if name.startswith("probe."):
        return "defect probe, not timed"
    return "per session" if unit in ("s", "count", "bytes") else ""


def report_lines(result: dict) -> list[str]:
    lines = [f"workload {result['workload']} (trace {int(result['trace'])}): {result['why']}",
             "environment " + json.dumps(result["environment"], sort_keys=True)]
    for name, metric in result["metrics"].items():
        how = note(result, name, metric["unit"])
        lines.append(f"  {name:48s} {metric['value']:.6g} {metric['unit']}  {how}".rstrip())
    if not result["trace"]:
        # Printed, not in the result line: it is not measured on every workload.
        count = len(result["session_times_s"])
        if session_tail := result["session_tail"]:
            lines.append(f"  {'session_tail_s':48s} {session_tail['value']:.6g} s  "
                         f"p{session_tail['percentile']} of {count} sessions")
        else:
            lines.append(f"  {'session_tail_s':48s} not measured: {count} sessions, a tail "
                         f"above the median with {TAIL_BEYOND} beyond needs "
                         f"{2 * TAIL_BEYOND + 1}")
    lines.append(f"  requests: {result['attempted']} attempted, {result['failed']} failed, "
                 f"failed_fraction {result['failed_fraction']:.6g} ratio")
    lines += [f"  failure: {f}" for f in result["failures"]]
    probe = result["defect_probe"]
    lines.append(f"  defect probe (7-party lhv, not timed): {probe['failed']} of "
                 f"{probe['attempted']} failed")
    lines += [f"    {f}" for f in probe["failures"]]
    if result["trace"]:
        lines.append(f"  layer wait: {result['layer_wait']}")
        if line := prediction(result):
            lines.append("  " + line)
    return lines


def save(result: dict, seed: int) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{result['workload']}-seed{seed}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellbench" / "cli.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'bellbench'} is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.workload == "all":
        correct = True
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = run_workload(name, args.seed, seconds, trace)
                save(result, args.seed)
                print("\n".join(report_lines(result)), flush=True)
                correct &= result["correct"]
        return 0 if correct else 1

    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    save(result, args.seed)
    print("\n".join(report_lines(result)))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)

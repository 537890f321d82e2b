"""tribkit benchmark: four workloads, end-to-end metrics, a separate traced run.

Usage, from the root of a checkout:

    python3 tribench/run.py --workload corpus --seed 1 --seconds 21 --trace 0
    python3 tribench/run.py --workload all --seed 1 --seconds 21 --trace 1

``--trace 0`` measures the end-to-end metrics: set-up time of a fresh
interpreter, op latency p50/p90, ops per second, success rate and peak RSS.
``--trace 1`` runs a fixed, seed-determined op list four times (untraced
and traced, twice), reports per-layer metrics from the first traced pass
and the tracing overhead against the untraced passes, and exits with an
error if the two traced passes disagree on any count.  ``--workload all``
runs each workload in a fresh interpreter, one after the other, and
prints a table.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  ``correct`` is
false when the program gave a wrong answer; an op that raised or exited with
an error code counts in ``failed`` only.  Uses the standard library only and
imports tribkit from ``src/`` of the checkout; it changes no interpreter
setting (in particular not the int/str digit limit).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Rounds over the same op list in a timed run; an op's latency is its fastest.
ROUNDS = 7

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
import tribkit, tribkit.cli
tribkit.load_corpus()
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
"""


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def setup_seconds() -> float:
    """Seconds from launching a fresh interpreter until tribkit, tribkit.cli
    and load_corpus() are done.  The child reports the system monotonic
    clock, which parent and child share."""
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"set-up failed in a fresh interpreter:\n{proc.stderr}")
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def import_tribkit() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    names = ("dsl", "certify", "derive", "fasteval", "corpus", "cli", "sequences")
    return SimpleNamespace(**{n: importlib.import_module(f"tribkit.{n}") for n in names})


def run_ops(wl, ops, tracer=None) -> tuple[list[int], list]:
    """Run each op once: its latency in ns and its failure (None if correct)."""
    clock = time.perf_counter_ns
    latencies, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        exc = None
        start = clock()
        try:
            result = wl.run(op)
        except Exception as e:  # the program under test failed this op
            result, exc = None, e
        latencies.append(clock() - start)  # a failed op counts until it failed
        failures.append(wl.check(op, result, exc))
    return latencies, failures


class Outcome:
    def __init__(self, failures: list):
        self.attempted = len(failures)
        found = [f for f in failures if f is not None]
        self.failed = len(found)
        self.wrong = sum(f.kind == "wrong" for f in found)
        self.reasons = Counter(f"{f.kind}: {f.reason}" for f in found)


def end_to_end(args, wl, tk, env) -> tuple[Outcome, dict]:
    """Seven rounds over one op list sized so that a round takes about a
    seventh of --seconds.  Each op's latency is the fastest of its runs:
    on the shared 2-vCPU host the same op flips between a fast state and
    one up to twice as slow every few tens of milliseconds, and the slow
    state's share drifts from run to run, so the fastest of seven runs far
    apart is what stays comparable.  A fresh interpreter is launched
    before each round and after the last (after one warm-up launch), and
    setup_s is the median of those launches."""
    ops = wl.ops(wl.blocks_for(args.seconds / ROUNDS))  # generated before timing
    setup_seconds()  # warms the bytecode cache; not counted
    setup, rounds, failures, walls = [], [], [None] * len(ops), []
    for _ in range(ROUNDS):
        setup.append(setup_seconds())
        start = time.monotonic()
        latencies, found = run_ops(wl, ops)
        walls.append(time.monotonic() - start)
        rounds.append(latencies)
        failures = [a or b for a, b in zip(failures, found)]
    setup.append(setup_seconds())
    best = [min(times) for times in zip(*rounds)]
    outcome = Outcome(failures)
    done = outcome.attempted - outcome.failed
    p90 = statistics.quantiles(best, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms.p50": (statistics.median(best) / 1e6, "ms"),
        "op_ms.p90": (p90 / 1e6, "ms"),
        "ops_per_s": (done / (sum(best) / 1e9), "1/s"),
        "success_rate": (done / outcome.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# {wl.name}: {len(ops)} ops x {ROUNDS} rounds; round wall s "
          + " ".join(f"{w:.2f}" for w in walls)
          + f"; busy {sum(map(sum, rounds)) / 1e9:.3f} s, best-of-{ROUNDS} {sum(best) / 1e9:.3f} s")
    print(f"# setup_s: median of {len(setup)} fresh interpreters")
    print(f"# op_ms samples: {len(best)}; beyond p90: {sum(x > p90 for x in best)}")
    print(f"# fail_rate {outcome.failed / outcome.attempted:.6f} ({outcome.failed}/{outcome.attempted})")
    return outcome, metrics


def traced(args, wl, tk, env) -> tuple[Outcome, dict]:
    from tracing import Tracer, layer_metrics

    ops = wl.ops(wl.trace_blocks)
    untraced, passes = [], []
    for _ in range(2):  # untraced and traced passes alternate
        untraced.append(run_ops(wl, ops)[0])
        tracer = Tracer()
        wl.counts.clear()
        tk.fasteval.reset_mul_count()
        tracer.install()
        try:
            tk.corpus.load_corpus()  # the set-up every workload pays
            latencies, failures = run_ops(wl, ops, tracer)
        finally:
            tracer.uninstall()
        counts = {**tracer.counts, **wl.counts, "fasteval.muls": tk.fasteval.mul_count()}
        passes.append((tracer, latencies, failures, counts))
    (tracer, latencies, failures, counts), (_, again_latencies, _, again) = passes
    if counts != again:
        differ = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
        sys.exit(f"counts differ between two traced passes over the same ops: {differ}")
    # Best of two per op on each side, as in the timed run.
    untraced_ns = sum(map(min, *untraced))
    traced_ns = sum(map(min, latencies, again_latencies))
    metrics = layer_metrics(tracer, counts["fasteval.muls"], counts.get("cli.stdout_bytes", 0))
    metrics["trace.overhead_pct"] = ((traced_ns / untraced_ns - 1) * 100, "%")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(path, {"env": env, "fields": ["name", "start_ns", "end_ns", "parent", "op"]})
    print(f"# {wl.name}: {len(ops)} ops per pass, {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"# busy, best of two passes per op: untraced {untraced_ns / 1e9:.3f} s, traced {traced_ns / 1e9:.3f} s")
    print(f"# counts repeat exactly across two traced passes: {len(counts)} counters")
    return Outcome(failures), metrics


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    from workloads import WORKLOADS

    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        *lines, last = proc.stdout.splitlines() or [""]
        print("\n".join(lines))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        report = json.loads(last)
        merged["correct"] &= report["correct"]
        merged["attempted"] += report["attempted"]
        merged["failed"] += report["failed"]
        for metric, value in report["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        rows.append((name, report))
    metric_names = list(rows[0][1]["metrics"])
    print(f"{'metric':<34}" + "".join(f"{name:>16}" for name, _ in rows))
    for metric in metric_names:
        unit = rows[0][1]["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for _, r in rows)
        print(f"{metric + ' [' + unit + ']':<34}{cells}")
    print(f"{'fail_rate':<34}" + "".join(f"{r['failed'] / r['attempted']:>16.6g}" for _, r in rows))
    print(f"{'samples (ops attempted)':<34}" + "".join(f"{r['attempted']:>16}" for _, r in rows))
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tribkit" / "__init__.py").is_file():
        print(f"no tribkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    env = environment(args)
    print("# env " + json.dumps(env))
    tk = import_tribkit()
    wl = WORKLOADS[args.workload](tk, args.seed)
    result, metrics = (traced if args.trace else end_to_end)(args, wl, tk, env)
    for reason, count in sorted(result.reasons.items()):
        print(f"# failed x{count}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

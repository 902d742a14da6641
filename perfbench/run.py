"""Run one tableprep benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed (``gen.py``, in a child process),
loads them several times to time set-up, makes one untimed reference pass,
then repeats the timed pass for ``--seconds`` and reports medians. With
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the per-layer metrics are printed instead of the end-to-end ones.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every output check passed. Results, spans and inputs go under
``.perfbench_out/`` at the checkout root. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = tuple(gen.WORKLOADS)

# (name, unit, better); BENCHMARK.json lists the same metrics.
E2E = (
    ("throughput_ips", "instances/s", "higher"),
    ("setup_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
    ("accuracy", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)
PER_LAYER_NAMES = (
    "table.ingest_ms", "table.cells_ingested", "table.markdown_ms", "table.markdown_calls",
    "data.load_ms", "config.load_ms",
    "llm.generate_ms", "llm.requests", "llm.retries", "llm.request_failures", "llm.transport_ms",
    "llm.extract_ms", "llm.extract_ok_ratio",
    "merge.ms", "merge.calls", "merge.ops_out",
    "engine.execute_ms", "engine.steps_ok", "engine.steps_failed", "engine.steps_skipped",
    "engine.truncated_ratio",
    "ops.select_ms", "ops.filter_ms", "ops.sort_by_ms", "ops.group_by_ms", "ops.rows_in",
    "semantic.add_column_ms", "semantic.clean_column_ms", "semantic.calls",
    "rollback.ms", "rollback.qa_ms", "rollback.qa_calls",
    "rollback.state1", "rollback.state2", "rollback.state3",
    "reward.total_ms", "reward.calls", "reward.cells_scanned", "reward.filter_ms",
    "gate.sample_ms", "gate.groups", "gate.attempts", "gate.accept_ratio",
    "runner.instance_ms.p50", "runner.instance_ms.p95", "runner.instance_ms.count",
    "runner.overhead_ms", "runner.busy_share", "runner.dump_ms",
    "trace.overhead_pct",
    "share.table", "share.llm", "share.merge", "share.engine", "share.ops", "share.semantic",
    "share.rollback", "share.qa", "share.reward", "share.gate", "share.runner", "share.harness",
)
HIGHER = {"llm.extract_ok_ratio", "engine.steps_ok", "rollback.state1", "gate.accept_ratio",
          "runner.instance_ms.count", "runner.busy_share"}
SETUP_LAYER = ("table.ingest_ms", "table.cells_ingested", "data.load_ms", "config.load_ms")


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms", ".p50", ".p95")):
        return "ms"
    if name.endswith(("_ratio", "_share")) or name.startswith("share."):
        return "ratio"
    return "%" if name.endswith("_pct") else "count"


PER_LAYER = tuple((n, layer_unit(n), "higher" if n in HIGHER else "lower") for n in PER_LAYER_NAMES)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import tableprep from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tableprep", "__init__.py")):
        fail(f"no tableprep sources under {SRC}")
    sys.path.insert(0, SRC)
    import tableprep

    if os.path.dirname(os.path.dirname(os.path.abspath(tableprep.__file__))) != SRC:
        fail(f"imported tableprep from {tableprep.__file__}, not from {SRC}")
    # The program logs per-instance warnings; keep them off the terminal so
    # terminal speed is not part of the measurement.
    logging.getLogger("tableprep").addHandler(logging.NullHandler())


def pin_to_one_cpu() -> int:
    """Run on one CPU, as pyperf's --affinity does.

    serve_small starts a 5-thread pool per instance. Unpinned, its threads
    wake each other across CPUs, and on a loaded virtual machine those
    wake-ups stalled often enough to halve its throughput in some runs. With
    the interpreter lock the program gets no CPU parallelism from a second
    CPU, so pinning costs the workloads nothing they use. The highest-numbered
    CPU is chosen because CPU 0 usually also handles device interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def generate(workload: str, seed: int, size: str, work_dir: str) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", work_dir, "--size", size],
                   check=True, timeout=300)


def measure_setup(workloads, work_dir: str, min_reps: int = 5, min_seconds: float = 2.0):
    """Median of repeated set-ups (config + dataset load); returns it with the last inputs."""
    times: list[float] = []
    inputs = None
    started = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - started < min_seconds and len(times) < 1000):
        inputs = None  # drop the previous copy first, so peak memory holds one
        t0 = time.perf_counter()
        inputs = workloads.setup(work_dir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), inputs


def timed(workload, seconds: float, tracer=None) -> tuple[list[float], list[list]]:
    """Repeat the timed pass for ``seconds`` (at least once); returns walls and span sets."""
    walls, passes = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        walls.append(workload.repeat(tracer))
        if tracer is not None:
            passes.append(tracer.take())
    return walls, passes


def median_dict(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def run(args) -> int:
    import_program()
    import spans as tracing
    import workloads

    machine = {"nproc": os.cpu_count(), "pinned_cpu": pin_to_one_cpu(), "python": platform.python_version(),
               "implementation": platform.python_implementation(), "machine": platform.machine()}
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    work_dir = os.path.join(OUT, f"{tag}-inputs")
    generate(args.workload, args.seed, args.size, work_dir)
    with open(os.path.join(work_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)

    checks = workloads.Checks()
    try:
        if args.trace:
            tracer = tracing.Tracer()
            setup_sets = []
            for _ in range(3):
                with tracer.install():
                    inputs = workloads.setup(work_dir)
                setup_sets.append(tracer.take())
            workload = workloads.make_workload(inputs, plan, work_dir, checks)
            plain, _ = timed(workload, args.seconds / 2)
            traced, passes = timed(workload, args.seconds / 2, tracer)
            parallelism = inputs.config.run.parallelism
            setup_layer = median_dict([tracing.span_metrics(s, parallelism) for s in setup_sets])
            metrics = median_dict([tracing.span_metrics(p, parallelism) for p in passes])
            metrics.update({k: setup_layer[k] for k in SETUP_LAYER})
            metrics.update(tracing.instance_latency([s for p in passes for s in p]))
            plain_ips = statistics.median(workload.n / w for w in plain)
            traced_ips = statistics.median(workload.n / w for w in traced)
            metrics["trace.overhead_pct"] = (plain_ips / traced_ips - 1) * 100
            walls = plain + traced
            spec = PER_LAYER
            tracing.write_spans(os.path.join(OUT, f"{tag}-spans.jsonl"),
                                [("setup", s) for s in setup_sets] + [(f"pass{i}", p) for i, p in enumerate(passes)])
        else:
            setup_s, inputs = measure_setup(workloads, work_dir)
            workload = workloads.make_workload(inputs, plan, work_dir, checks)
            walls, _ = timed(workload, args.seconds)
            metrics = {
                "throughput_ips": statistics.median(workload.n / w for w in walls),
                "setup_s": setup_s,
                **workload.e2e(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            spec = E2E
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": checks.ok,
        "attempted": workload.n * len(walls),
        "failed": checks.mismatched,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    with open(os.path.join(OUT, f"{tag}-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "size": args.size, "machine": machine, "passes": len(walls),
                   "walls_s": walls, "check_failures": checks.failures, **result}, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(walls)} "
          f"instances/pass={workload.n}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, unit, better in spec:
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<12} ({better} is better)")
    for failure in checks.failures[:20]:
        print(f"  CHECK FAILED: {failure}")
    print("checks: " + ("ok" if checks.ok else f"{len(checks.failures)} failed"))
    print(json.dumps(result))
    return 0 if checks.ok else 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a minimal instance of the workload, for the tests")
    sys.exit(run(parser.parse_args()))


if __name__ == "__main__":
    main()

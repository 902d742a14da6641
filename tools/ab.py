"""Paired A/B timing of two tableprep trees on one benchmark workload.

    python3 tools/ab.py --base HEAD~1 --head . --workload train_groups --pairs 40
    python3 tools/ab.py --base HEAD~1 --head . --workload train_groups --pairs 40 --setup

``--base`` and ``--head`` each take a directory holding a checkout (``src/``
and ``perfbench/``) or a git revision of this repository, which is written
out with ``git archive`` under ``.perfbench_out/`` and reused on later runs.
The base tree's ``perfbench/gen.py`` generates the inputs once. Each tree
then gets one long-lived worker process that imports that tree's own
``tableprep`` and ``perfbench/workloads.py``, checks where ``tableprep`` came
from, and builds the workload, whose untimed reference pass checks its
outputs. Both workers are pinned to the same CPU, and only one runs at a time.

The driver asks the workers over a pipe for one timed pass each
(``workloads.make_workload(...).repeat()``, or ``workloads.setup`` with
``--setup``), in ABBA order: base first in even pairs, head first in odd
ones. A pair's ratio is the head's time over the base's, so below 1 is
faster. The tool prints the median ratio with its order-statistic 95%
interval, the wins per side, the machine facts, and whether the two trees'
outputs match (the serve report bytes, or the train reward digest). The last
line of standard output is one JSON object of the same facts. It exits 1 as
soon as a pass fails a workload check, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from fractions import Fraction
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")


def fail(message: str) -> None:
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(2)


# --- trees -------------------------------------------------------------------


def is_tree(path: str) -> bool:
    return os.path.isfile(os.path.join(path, "src", "tableprep", "__init__.py")) and os.path.isfile(
        os.path.join(path, "perfbench", "workloads.py"))


def materialize(spec: str) -> tuple[str, str]:
    """The tree directory for ``spec`` and how to name it: a directory is taken
    as it is; anything else is a git revision, archived once under ``OUT``."""
    if os.path.isdir(spec):
        path = os.path.abspath(spec)
        if not is_tree(path):
            fail(f"{spec} holds no src/tableprep and perfbench/workloads.py")
        return path, path
    found = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}"],
                           capture_output=True, text=True)
    if found.returncode != 0:
        fail(f"{spec} is neither a directory nor a git revision")
    sha = found.stdout.strip()
    path = os.path.join(OUT, f"ab-tree-{sha[:12]}")
    if not is_tree(path):
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                                 capture_output=True, check=True).stdout
        shutil.rmtree(path, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(path, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        if not is_tree(path):
            fail(f"{spec} ({sha[:12]}) has no src/tableprep and perfbench/workloads.py")
    return path, f"{spec} ({sha[:12]})"


# --- worker ------------------------------------------------------------------


def worker(tree: str, work_dir: str, cpu: int) -> None:
    """Serve timing requests for one tree: one JSON line in, one JSON line out."""
    channel, sys.stdout = sys.stdout, sys.stderr  # nothing the program prints reaches the pipe
    os.sched_setaffinity(0, {cpu})
    src, bench = os.path.join(tree, "src"), os.path.join(tree, "perfbench")
    sys.path[:0] = [src, bench]
    import tableprep
    import workloads

    for module, home in ((tableprep, os.path.join(src, "tableprep")), (workloads, bench)):
        if os.path.dirname(os.path.abspath(module.__file__)) != home:
            fail(f"imported {module.__name__} from {module.__file__}, not from {home}")
    # as perfbench/run.py does: per-instance warnings stay off the terminal
    logging.getLogger("tableprep").addHandler(logging.NullHandler())

    def reply(doc: dict) -> None:
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    with open(os.path.join(work_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    checks = workloads.Checks()
    workload = workloads.make_workload(workloads.setup(work_dir), plan, work_dir, checks)
    if plan["kind"] == "serve":
        digest = hashlib.sha256(workload.reference.encode("utf-8")).hexdigest()
    else:
        digest = workload.digest
    reply({"tableprep": tableprep.__file__, "digest": digest, "failures": checks.failures})
    for line in sys.stdin:
        if line.strip() == "setup":
            t0 = time.perf_counter()
            workloads.setup(work_dir)
            wall = time.perf_counter() - t0
        else:
            wall = workload.repeat()
        reply({"wall": wall, "failures": checks.failures})


class Worker:
    def __init__(self, name: str, tree: str, work_dir: str, cpu: int):
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", tree, work_dir, str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)

    def read(self) -> dict:
        """The worker's next reply; exits when it died or a check failed."""
        line = self.proc.stdout.readline()
        if not line:
            fail(f"the {self.name} worker exited with {self.proc.wait()}")
        doc = json.loads(line)
        if doc["failures"]:
            print(f"ab: the {self.name} tree failed its workload checks:", file=sys.stderr)
            for failure in doc["failures"][:20]:
                print(f"  CHECK FAILED: {failure}", file=sys.stderr)
            sys.exit(1)
        return doc

    def time(self, what: str) -> float:
        self.proc.stdin.write(what + "\n")
        return self.read()["wall"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# --- statistics --------------------------------------------------------------


def median_interval(values: list[float], level: float = 0.95) -> tuple[float, float, float]:
    """The distribution-free interval for the median, and its coverage.

    ``[x(k), x(n+1-k)]`` of the sorted values covers the median with
    probability ``1 - 2 P(B <= k-1)`` for ``B ~ Binomial(n, 1/2)``; ``k`` is
    the largest that reaches ``level``, or 1 (min to max) when none does.
    """
    xs = sorted(values)
    n = len(xs)

    def coverage(k: int) -> Fraction:
        return 1 - 2 * sum(Fraction(comb(n, j), 2**n) for j in range(k))

    k = 1
    while 2 * (k + 1) <= n + 1 and coverage(k + 1) >= level:
        k += 1
    return xs[k - 1], xs[n - k], float(coverage(k))


# --- driver ------------------------------------------------------------------


def run(args) -> None:
    base, base_name = materialize(args.base)
    head, head_name = materialize(args.head)
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"ab-{args.workload}-s{args.seed}-{os.getpid()}")
    cpu = max(os.sched_getaffinity(0))
    what = "setup" if args.setup else "pass"
    workers = []
    try:
        generated = subprocess.run([sys.executable, os.path.join(base, "perfbench", "gen.py"),
                                    "--workload", args.workload, "--seed", str(args.seed), "--out", work_dir,
                                    "--size", args.size], timeout=300)
        if generated.returncode != 0:
            fail(f"the base tree's gen.py failed for workload {args.workload}")
        digests = {}
        for name, tree in (("base", base), ("head", head)):  # one at a time: each writes its reference report
            workers.append(Worker(name, tree, work_dir, cpu))
            digests[name] = workers[-1].read()["digest"]
        a, b = workers
        for side in workers:  # one untimed pass each, so both start warm
            side.time(what)
        ratios = []
        for i in range(args.pairs):
            if i % 2 == 0:
                t_base, t_head = a.time(what), b.time(what)
            else:
                t_head, t_base = b.time(what), a.time(what)
            ratios.append(t_head / t_base)
    finally:
        for side in workers:
            side.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    median = statistics.median(ratios)
    lo, hi, coverage = median_interval(ratios)
    head_wins = sum(r < 1 for r in ratios)
    base_wins = sum(r > 1 for r in ratios)
    outputs_match = digests["base"] == digests["head"]
    machine = {"nproc": os.cpu_count(), "pinned_cpu": cpu, "python": platform.python_version(),
               "implementation": platform.python_implementation(), "machine": platform.machine()}

    print(f"ab {args.workload} seed={args.seed} size={args.size} timing={what} pairs={args.pairs}")
    print(f"base: {base_name}")
    print(f"head: {head_name}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"head/base: {median:.4f}x (interval {lo:.4f}-{hi:.4f}, coverage {coverage:.1%})")
    print(f"faster: head in {head_wins} of {args.pairs} pairs, base in {base_wins}")
    print("outputs: " + ("match" if outputs_match else "DIFFER")
          + f" (base {digests['base'][:16]}, head {digests['head'][:16]})")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size, "timing": what,
                      "pairs": args.pairs, "ratio": median, "interval": [lo, hi], "coverage": coverage,
                      "head_wins": head_wins, "base_wins": base_wins, "outputs_match": outputs_match,
                      "machine": machine}))


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:
        tree, work_dir, cpu = sys.argv[2:]
        worker(tree, work_dir, int(cpu))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="a checkout directory or a git revision")
    parser.add_argument("--head", required=True, help="a checkout directory or a git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup", action="store_true", help="time workloads.setup instead of a pass")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    run(args)


if __name__ == "__main__":
    main()

"""Workload runners and output checks for the tableprep benchmark.

Every call into tableprep goes through a module attribute (``runner.run_dataset``,
``engine.execute``, ...) at call time, so the tracer in ``spans.py`` and the
latency seam below can replace those names without touching ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from tableprep import config as tp_config
from tableprep import data as tp_data
from tableprep import engine, gate, llm, reward, runner
from tableprep.errors import TablePrepError
from tableprep.ops import Pipeline

from gen import EXPECTED_STATE

NO_DATA = "No data available"


class Checks:
    """Collects failed output checks; the run is correct only if none failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.mismatched = 0  # instance outcomes that differ from the plan

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class Inputs:
    config: object
    instances: list
    line_errors: list


def setup(work_dir: str) -> Inputs:
    """Everything before the first instance is processed: config and dataset load."""
    config = tp_config.load_config(os.path.join(work_dir, "config.json"))
    instances, line_errors = tp_data.load_instances_jsonl(
        os.path.join(work_dir, "dataset.jsonl"), config.reward.matching)
    return Inputs(config, instances, line_errors)


def patched(target, name: str, value):
    """Context manager that sets ``target.name`` and restores it on exit."""

    @contextlib.contextmanager
    def cm():
        original = getattr(target, name)
        setattr(target, name, value)
        try:
            yield
        finally:
            setattr(target, name, original)

    return cm()


# --- serve -----------------------------------------------------------------


class LatencySeam:
    """Stands in for a model endpoint at runner's GeneratorFactory and build_qa_client.

    Every generator request and QA call sleeps ``delay_s``; planned requests
    fail (``fail_all`` instances always, ``fail_once`` slots on their first
    attempt). Counters let the benchmark prove that the program really went
    through the seam.
    """

    def __init__(self, plan: dict, delay_s: float):
        self.delay_s = delay_s
        self.fail_all = set(plan["fail_all"])
        self.fail_once = {tuple(slot) for slot in plan["fail_once"]}
        self.requests = 0
        self.qa_calls = 0
        self._failed: set = set()
        self._lock = threading.Lock()

    def install(self) -> contextlib.ExitStack:
        seam = self
        inner_factory = runner.GeneratorFactory
        inner_build_qa = runner.build_qa_client

        class Factory:
            def __init__(self, config):
                self._inner = inner_factory(config)

            def transport_for(self, instance_id, question):
                return _SeamTransport(seam, instance_id, self._inner.transport_for(instance_id, question))

        def build_qa_client(config):
            return _SeamQa(seam, inner_build_qa(config))

        stack = contextlib.ExitStack()
        stack.enter_context(patched(runner, "GeneratorFactory", Factory))
        stack.enter_context(patched(runner, "build_qa_client", build_qa_client))
        return stack

    def request(self, instance_id: str, index: int) -> bool:
        """Count one request, wait the delay, and say whether it must fail."""
        with self._lock:
            self.requests += 1
            fail = instance_id in self.fail_all
            slot = (instance_id, index)
            if slot in self.fail_once and slot not in self._failed:
                self._failed.add(slot)
                fail = True
        if self.delay_s:
            time.sleep(self.delay_s)
        return fail

    def qa(self) -> None:
        with self._lock:
            self.qa_calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)


class _SeamTransport:
    def __init__(self, seam: LatencySeam, instance_id: str, inner):
        self._seam = seam
        self._instance_id = instance_id
        self._inner = inner

    def complete(self, messages, config, index=0):
        if self._seam.request(self._instance_id, index):
            raise ConnectionError(f"injected failure for {self._instance_id}/{index}")
        return self._inner.complete(messages, config, index)


class _SeamQa:
    def __init__(self, seam: LatencySeam, inner):
        self._seam = seam
        self._inner = inner

    def ask(self, question, table):
        self._seam.qa()
        return self._inner.ask(question, table)


def serve_once(inputs: Inputs, config=None) -> tuple[str, float]:
    """One timed serve pass: run_dataset plus dump_report. Returns (report, wall s)."""
    t0 = time.perf_counter()
    report = runner.run_dataset(inputs.instances, config or inputs.config, inputs.line_errors)
    text = runner.dump_report(report)
    return text, time.perf_counter() - t0


def seam_expectations(plan: dict) -> tuple[int, int, float]:
    """Expected generator requests, QA calls, and the wall-time floor in seconds.

    The floor holds for any schedule: each of the ``parallelism`` workers runs
    its instances one after another, an instance's QA calls are sequential,
    and its generation phase lasts at least one request chain.
    """
    delay = plan["delay_ms"] / 1000
    n, retries = plan["n"], plan["retries"]
    backoff = sum(min(2**a * 0.1, 2.0) for a in range(retries))
    once = {iid for iid, _ in plan["fail_once"]}
    requests = qa_calls = 0
    busy = 0.0
    for iid, p in plan["instances"].items():
        kind = p["kind"]
        if kind == "blank":
            continue
        if kind == "failall":
            requests += n * (retries + 1)
            busy += (retries + 1) * delay + backoff
            continue
        calls = EXPECTED_STATE[kind][1]
        requests += n
        qa_calls += calls
        busy += (2 * delay + 0.1 if iid in once else delay) + calls * delay
    requests += len(plan["fail_once"])
    return requests, qa_calls, busy / plan["parallelism"]


def check_serve_report(text: str, plan: dict, path: str, checks: Checks) -> dict:
    """Check one report against the plan; returns the parsed document."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        doc = runner.load_run_report(path, verify=True)
    except TablePrepError as err:
        checks.expect(False, f"report does not verify: {err}")
        doc = json.loads(text)
    instances = plan["instances"]
    want_records = {i for i, p in instances.items() if p["kind"] in EXPECTED_STATE}
    want_error_ids = {i for i, p in instances.items() if p["kind"] in ("blank", "failall")}
    records = {r["id"]: r for r in doc["records"]}
    error_ids = {e["id"] for e in doc["errors"] if "id" in e}
    error_lines = sorted(e["line"] for e in doc["errors"] if "line" in e)
    checks.expect(set(records) == want_records,
                  f"records: {len(records)} written, {len(want_records)} planted")
    checks.expect(error_ids == want_error_ids,
                  f"instance errors: {sorted(error_ids ^ want_error_ids)} differ from the plan")
    checks.expect(error_lines == plan["bad_lines"], f"line errors {error_lines} != {plan['bad_lines']}")
    for iid, record in records.items():
        p = instances.get(iid)
        if p is None or p["kind"] not in EXPECTED_STATE:
            continue
        state, calls = EXPECTED_STATE[p["kind"]]
        answer = NO_DATA if p["kind"] == "nocell" else p["gold"]
        got = (record["state_used"], record["qa_calls"], record["final_answer"], record.get("correct"))
        want = (state, calls, answer, p["kind"] != "nocell")
        if got != want:
            checks.mismatched += 1
            checks.expect(False, f"{iid} ({p['kind']}): got {got}, planted {want}")
    checks.mismatched += len(want_records - set(records)) + len(want_error_ids ^ error_ids)
    want_accuracy = sum(1 for i in want_records if instances[i]["kind"] != "nocell") / len(want_records)
    checks.expect(doc["aggregates"]["accuracy"] == want_accuracy,
                  f"accuracy {doc['aggregates']['accuracy']} != planted {want_accuracy}")
    return doc


def serve_reference(inputs: Inputs, plan: dict, work_dir: str, checks: Checks) -> tuple[str, dict]:
    """The untimed first pass every repeat must reproduce byte for byte.

    With a latency seam the reference is a zero-delay, parallelism-1 run of the
    same inputs and planted failures.
    """
    if plan["delay_ms"]:
        seam = LatencySeam(plan, 0.0)
        config = replace(inputs.config, run=replace(inputs.config.run, parallelism=1))
        with seam.install():
            text, _ = serve_once(inputs, config)
        check_seam(seam, plan, None, checks)
    else:
        text, _ = serve_once(inputs)
    doc = check_serve_report(text, plan, os.path.join(work_dir, "report.json"), checks)
    return text, doc


def check_seam(seam: LatencySeam, plan: dict, wall: float | None, checks: Checks) -> None:
    requests, qa_calls, floor = seam_expectations(plan)
    checks.expect(seam.requests == requests,
                  f"latency seam saw {seam.requests} generator requests, expected {requests}")
    checks.expect(seam.qa_calls == qa_calls, f"latency seam saw {seam.qa_calls} QA calls, expected {qa_calls}")
    if wall is not None:
        checks.expect(wall >= floor, f"wall {wall:.3f}s is below the {floor:.3f}s the delays imply")


class ServeWorkload:
    def __init__(self, inputs: Inputs, plan: dict, work_dir: str, checks: Checks):
        self.inputs, self.plan, self.checks = inputs, plan, checks
        self.reference, self.doc = serve_reference(inputs, plan, work_dir, checks)
        self.n = len(inputs.instances)

    def repeat(self, tracer=None) -> float:
        """One timed pass; checks its output and returns its wall time."""
        seam = None
        with contextlib.ExitStack() as stack:
            if self.plan["delay_ms"]:
                seam = LatencySeam(self.plan, self.plan["delay_ms"] / 1000)
                stack.enter_context(seam.install())
            if tracer is not None:  # inside the seam, so client spans include the delay
                stack.enter_context(tracer.install())
            text, wall = serve_once(self.inputs)
        if seam is not None:
            check_seam(seam, self.plan, wall, self.checks)
        if not self.checks.expect(text == self.reference, "report bytes differ between repeats"):
            self.checks.mismatched += self.n
        return wall

    def e2e(self) -> dict:
        attempted = self.n + len(self.inputs.line_errors)
        return {"error_rate": len(self.doc["errors"]) / attempted,
                "accuracy": self.doc["aggregates"]["accuracy"]}


# --- train -----------------------------------------------------------------


class TrainWorkload:
    """filter_dataset, then one gated group of scored candidates per kept instance."""

    def __init__(self, inputs: Inputs, plan: dict, work_dir: str, checks: Checks):
        self.inputs, self.plan, self.checks = inputs, plan, checks
        with open(os.path.join(work_dir, "groups.json"), encoding="utf-8") as fh:
            self.groups = json.load(fh)
        self.executor = tp_config.build_semantic_executor(inputs.config)
        self.n = len(inputs.instances)
        self.digest = None
        self.summary = None
        self.repeat()  # untimed reference pass: later passes must reproduce its rewards

    def _score(self, text: str, instance):
        try:
            pipeline = llm.extract_pipeline_json(text)
        except TablePrepError:
            pipeline = Pipeline()  # an unparseable output scores as no preparation
        trace = engine.execute(pipeline, instance.table, self.executor)
        breakdown = reward.total_reward(trace, instance.answers, reward.approx_token_count(text),
                                        self.inputs.config.reward)
        return gate.GroupMember(text, breakdown.total, pipeline), breakdown

    def _gate_instance(self, instance, wrap):
        draws = iter(self.groups[instance.id])
        log: list = []

        def source(group_size):
            scored = [self._score(text, instance) for text in next(draws)[:group_size]]
            log.append([b for _, b in scored])
            return [m for m, _ in scored]

        source = wrap(source, "harness.source")
        try:
            outcome = gate.sample_accepted_group(source, self.plan["group_size"], self.inputs.config.gate)
        except TablePrepError as err:
            return None, log, str(err)
        return outcome, log, None

    def repeat(self, tracer=None) -> float:
        """One timed pass; checks its output and returns its wall time."""
        with contextlib.ExitStack() as stack:
            wrap = lambda fn, name, instance=None: fn  # noqa: E731
            if tracer is not None:
                stack.enter_context(tracer.install())
                wrap = tracer.wrap
            gate_instance = wrap(self._gate_instance, "harness.instance", instance=lambda a: a[0].id)
            t0 = time.perf_counter()
            kept, stats = reward.filter_dataset(self.inputs.instances, max_tokens=self.plan["max_tokens"])
            results = [(instance.id, *gate_instance(instance, wrap)) for instance in kept]
            wall = time.perf_counter() - t0
        self._check(stats, results)
        return wall

    def _check(self, stats, results) -> None:
        checks, plan = self.checks, self.plan["instances"]
        cfg = self.inputs.config
        want_kept = sorted(i for i, p in plan.items() if "attempts" in p)
        checks.expect(sorted(i for i, *_ in results) == want_kept,
                      f"filter kept {len(results)} instances, planted {len(want_kept)}")
        for reason, kind in (("not_cell_focused", "nocell"), ("length", "long")):
            want = sum(1 for p in plan.values() if p["kind"] == kind)
            checks.expect(stats.dropped[reason] == want,
                          f"filter dropped {stats.dropped[reason]} as {reason}, planted {want}")
        errors = exhausted = perfect = scored = 0
        digest = hashlib.sha256()
        for iid, outcome, log, error in results:
            if error is not None:
                errors += 1
                checks.mismatched += 1
                checks.expect(False, f"{iid}: scoring raised {error}")
                continue
            exhausted += not outcome.accepted
            ok = True
            reasons = []
            inst_perfect = 0
            for breakdowns in log:
                scored += len(breakdowns)
                inst_perfect += sum(1 for b in breakdowns if b.r_acc == 1)
                for b in breakdowns:
                    exact = b.r_acc + cfg.reward.lambda_compress * b.r_compress + cfg.reward.lambda_length * b.r_length
                    ok &= checks.expect(b.total == exact, f"{iid}: total {b.total} != weighted sum {exact}")
                stats_ = gate.group_stats([b.total for b in breakdowns])
                if stats_.variance < cfg.gate.variance_threshold:
                    reasons.append(gate.LOW_VARIANCE)
                elif stats_.max < cfg.gate.quality_threshold:
                    reasons.append(gate.LOW_QUALITY)
                else:
                    reasons.append(None)
                digest.update(json.dumps([iid, [str(b.total) for b in breakdowns]]).encode())
            want_reasons = list(outcome.rejection_reasons) + ([None] if outcome.accepted else [])
            ok &= checks.expect(reasons == want_reasons, f"{iid}: gate decisions {want_reasons} != group_stats {reasons}")
            if outcome.accepted:
                ok &= checks.expect(sum(outcome.advantages, Fraction(0)) == 0, f"{iid}: advantages do not sum to 0")
            perfect += inst_perfect
            got = (outcome.attempts, outcome.accepted, inst_perfect)
            want = (plan[iid]["attempts"], plan[iid]["accepted"], plan[iid]["perfect"])
            ok &= checks.expect(got == want, f"{iid}: (attempts, accepted, perfect) {got} != planted {want}")
            checks.mismatched += not ok
        summary = (errors, exhausted, perfect, scored, len(results))
        if self.digest is None:
            self.digest, self.summary = digest.hexdigest(), summary
        elif not checks.expect(digest.hexdigest() == self.digest, "rewards differ between repeats"):
            checks.mismatched += self.n

    def e2e(self) -> dict:
        errors, exhausted, perfect, scored, kept = self.summary
        return {"error_rate": (errors + exhausted) / kept, "accuracy": perfect / scored}


def make_workload(inputs: Inputs, plan: dict, work_dir: str, checks: Checks):
    cls = ServeWorkload if plan["kind"] == "serve" else TrainWorkload
    return cls(inputs, plan, work_dir, checks)

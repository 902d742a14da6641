"""Batch orchestration: generate, merge, execute, answer, score, report.

The report is deterministic for mock-backed runs: records are sorted by
instance id, aggregates are computed from the records with exact arithmetic,
and the JSON is dumped with sorted keys and no timestamps.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .config import AppConfig, GeneratorFactory, build_qa_client, build_semantic_executor
from .data import Instance
from .engine import OK
from .errors import TablePrepError
from .llm import extract_pipeline_json, generate_candidates
from .merge import merge_pipelines
from .reward import match_answer
from .rollback import answer_with_rollback
from .table import cell_count

log = logging.getLogger(__name__)


@dataclass
class InstanceRecord:
    id: str
    final_answer: str
    state_used: int
    qa_calls: int
    ops_executed: int
    cells_before: int
    cells_after: int
    merged_ops: list[str]
    candidates_ok: int
    candidate_errors: list[str]
    correct: bool | None = None

    def to_json(self) -> dict:
        doc = asdict(self)
        if self.correct is None:
            del doc["correct"]
        return doc


@dataclass
class RunReport:
    records: list[InstanceRecord] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        records = [r.to_json() for r in self.records]
        return {
            "metadata": self.metadata,
            "aggregates": compute_aggregates(records),
            "records": records,
            "errors": self.errors,
        }


def compute_aggregates(records: list[dict]) -> dict:
    """Aggregates derived purely from record fields, so reports self-verify."""
    n = len(records)
    labeled = [r for r in records if "correct" in r]
    accuracy = None
    if labeled:
        accuracy = float(Fraction(sum(1 for r in labeled if r["correct"]), len(labeled)))
    compression = 0.0
    if n:
        total = sum(1 - Fraction(r["cells_after"], r["cells_before"]) if r["cells_before"] else 0 for r in records)
        compression = float(total / n)
    # a rollback happened iff the QA model was re-asked on a less-prepared table
    rollback_rate = float(Fraction(sum(1 for r in records if r["qa_calls"] > 1), n)) if n else 0.0
    histogram: Counter = Counter()
    for r in records:
        histogram.update(r["merged_ops"])
    return {
        "instances": n,
        "accuracy": accuracy,
        "mean_compression": compression,
        "rollback_rate": rollback_rate,
        "op_type_histogram": dict(sorted(histogram.items())),
    }


def run_instance(
    instance: Instance, config: AppConfig, factory: GeneratorFactory, qa, executor, requests: Executor
) -> InstanceRecord:
    """Generate, parse, merge, answer with rollback, and record one instance.
    A candidate that failed is recorded in ``candidate_errors``; when none
    parsed, the merge is the identity pipeline and the QA model sees the table."""
    transport = factory.transport_for(instance.id, instance.question)
    outcomes = generate_candidates(
        instance.question, instance.table, config.generator.settings, transport, config.run.n, requests
    )

    pipelines = []
    candidate_errors = []
    for outcome in outcomes:
        if outcome.text is None:
            candidate_errors.append(f"candidate {outcome.index}: {outcome.error}")
            continue
        try:
            pipelines.append(extract_pipeline_json(outcome.text))
        except TablePrepError as err:
            candidate_errors.append(f"candidate {outcome.index}: {err}")

    merged = merge_pipelines(pipelines)

    result = answer_with_rollback(instance.question, instance.table, merged, qa, executor)
    trace = result.trace
    record = InstanceRecord(
        id=instance.id,
        final_answer=result.answer,
        state_used=result.state_used,
        qa_calls=result.qa_calls,
        ops_executed=sum(1 for s in trace.steps if s.status == OK),
        cells_before=cell_count(trace.initial),
        cells_after=cell_count(trace.final),
        merged_ops=[spec.kind for spec in merged],
        candidates_ok=len(pipelines),
        candidate_errors=candidate_errors,
    )
    if instance.answers is not None:
        record.correct = any(
            match_answer(result.answer, gold, config.run.eval_matching)
            for gold in instance.answers.answers
        )
    return record


def run_dataset(
    instances: list[Instance], config: AppConfig, dataset_errors: list[dict] | None = None
) -> RunReport:
    factory = GeneratorFactory(config)
    qa = build_qa_client(config)
    executor = build_semantic_executor(config)

    report = RunReport()
    report.errors.extend(dataset_errors or [])

    def one(instance: Instance):
        try:
            return instance.id, run_instance(instance, config, factory, qa, executor, requests), None
        except TablePrepError as err:
            log.warning("instance %s failed: %s", instance.id, err)
            return instance.id, None, str(err)

    # Instance tasks wait on their candidates in the request pool, but request
    # tasks never wait on another task, so the two pools cannot deadlock.
    run = config.run
    with ThreadPoolExecutor(run.request_cap or run.parallelism * run.n) as requests:
        with ThreadPoolExecutor(run.parallelism) as pool:
            results = list(pool.map(one, instances))

    for instance_id, record, error in results:
        if record is not None:
            report.records.append(record)
        else:
            report.errors.append({"id": instance_id, "error": error})

    report.records.sort(key=lambda r: r.id)
    report.errors.sort(key=lambda e: (str(e.get("id", "")), e.get("line", 0)))
    report.metadata = {
        "n_candidates": config.run.n,
        "eval_matching": config.run.eval_matching,
        "compression_definition": "mean over instances of 1 - cells_after/cells_before",
    }
    return report


def dump_report(report: RunReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_run_report(path: str, verify: bool = True) -> dict:
    """Load a report. With ``verify``, re-derive its aggregates from its records;
    a mismatch or a malformed report raises :class:`TablePrepError`."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as err:  # not UTF-8 or not JSON, or nested too deep
            raise TablePrepError(f"report is malformed: {err}") from err
    if verify:
        try:
            recomputed = compute_aggregates(doc.get("records", []))
        except (AttributeError, KeyError, TypeError) as err:
            raise TablePrepError(f"report is malformed: {err!r}") from err
        if recomputed != doc.get("aggregates"):
            raise TablePrepError("report aggregates do not match records")
    return doc

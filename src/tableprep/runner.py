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
from dataclasses import dataclass, field
from fractions import Fraction

from .config import AppConfig, GeneratorFactory, build_qa_client, build_semantic_executor, generation_config
from .data import Instance
from .engine import OK
from .errors import TablePrepError
from .llm import LoggingTransport, extract_pipeline_json, generate_candidates
from .merge import merge_pipelines
from .ops import Pipeline
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
        doc = {
            "id": self.id,
            "final_answer": self.final_answer,
            "state_used": self.state_used,
            "qa_calls": self.qa_calls,
            "ops_executed": self.ops_executed,
            "cells_before": self.cells_before,
            "cells_after": self.cells_after,
            "merged_ops": self.merged_ops,
            "candidates_ok": self.candidates_ok,
            "candidate_errors": self.candidate_errors,
        }
        if self.correct is not None:
            doc["correct"] = self.correct
        return doc


@dataclass
class RunReport:
    records: list[InstanceRecord] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "metadata": self.metadata,
            "aggregates": compute_aggregates([r.to_json() for r in self.records]),
            "records": [r.to_json() for r in self.records],
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
        total = sum(
            (
                1 - Fraction(r["cells_after"], r["cells_before"])
                if r["cells_before"]
                else Fraction(0)
            )
            for r in records
        )
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
    gen_cfg = generation_config(config)
    transport = factory.transport_for(instance.id, instance.question)
    outcomes = generate_candidates(instance.question, instance.table, gen_cfg, transport, requests)

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

    # Zero surviving candidates degrade to the identity pipeline (no preparation).
    merged = merge_pipelines(pipelines) if pipelines else Pipeline()

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
        merged_ops=[spec.kind for spec in merged.ops],
        candidates_ok=len(pipelines),
        candidate_errors=candidate_errors,
    )
    if instance.answers is not None:
        record.correct = any(
            match_answer(result.answer, gold, config.run.eval_matching)
            for gold in instance.answers.answers
        )
    return record


class _LoggingFactory:
    """Decorates every generator transport with request/response logging."""

    def __init__(self, inner: GeneratorFactory, path: str):
        self._inner = inner
        self._path = path

    def transport_for(self, instance_id: str, question: str):
        return LoggingTransport(self._inner.transport_for(instance_id, question), self._path)


def run_dataset(
    instances: list[Instance],
    config: AppConfig,
    dataset_errors: list[dict] | None = None,
    log_llm_path: str | None = None,
) -> RunReport:
    factory = GeneratorFactory(config)
    if log_llm_path:
        factory = _LoggingFactory(factory, log_llm_path)
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
    """Load a report, optionally re-deriving aggregates from records."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if verify:
        recomputed = compute_aggregates(doc.get("records", []))
        if recomputed != doc.get("aggregates"):
            raise TablePrepError("report aggregates do not match records")
    return doc

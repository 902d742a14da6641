"""Span tracing from outside the program, and the per-layer metrics built on it.

``Tracer.install()`` replaces public tableprep functions with wrappers at the
names their callers look up (``runner.generate_candidates``, ``rollback.execute``,
``engine.exec_filter``, ...). Each wrapper records a span: name, start, end,
parent and instance id. Spans stay in memory until the benchmark writes them
out at the end. A span's self time is its duration minus the part of it that
its child spans cover, so children running in parallel threads are not
subtracted twice.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time

from tableprep import config as tp_config
from tableprep import data as tp_data
from tableprep import engine, gate, llm, reward, rollback, runner
from tableprep.table import cell_count

from workloads import patched

# name, start ns, end ns, parent id, instance id, attrs, span id
NAME, START, END, PARENT, INSTANCE, ATTRS, ID = range(7)

LAYERS = ("table", "data", "config", "llm", "merge", "engine", "ops", "semantic",
          "rollback", "qa", "reward", "gate", "runner", "harness")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: list | None = None, instance=None) -> list:
        """Start a span under ``parent``: by default this thread's innermost
        span, or the open ``runner.run_dataset`` span on a pool thread."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self._root
        if instance is None and parent is not None:
            instance = parent[INSTANCE]
        record = [name, 0, 0, parent[ID] if parent else None, instance, {}, next(self._ids)]
        stack.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def close(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(record)

    def wrap(self, fn, name: str, instance=None, attrs=None):
        """Wrap ``fn`` in a span; ``attrs(record, args, result)`` adds facts about the call."""

        def wrapper(*args, **kwargs):
            record = self.open(name, instance=instance(args) if instance else None)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    attrs(record, args, result)
                return result
            finally:
                self.close(record)

        return wrapper

    def wrap_root(self, fn, name: str):
        """Like ``wrap``, and the span parents spans opened on other threads."""

        def wrapper(*args, **kwargs):
            self._root = record = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._root = None
                self.close(record)

        return wrapper

    def count(self, fn, key: str, amount):
        """Add ``amount(args)`` to ``key`` on the innermost open span, without a span of its own."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                facts = stack[-1][ATTRS]
                facts[key] = facts.get(key, 0) + amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> contextlib.ExitStack:
        """Patch every traced name; closing the stack restores the originals."""
        stack = contextlib.ExitStack()

        def patch(module, name, span_name, **kw):
            stack.enter_context(patched(module, name, self.wrap(getattr(module, name), span_name, **kw)))

        patch(tp_config, "load_config", "config.load")
        patch(tp_data, "load_instances_jsonl", "data.load")
        patch(tp_data, "load_json_table", "table.ingest", attrs=_set("cells", lambda a, r: cell_count(r)))
        for module in (llm, reward):
            patch(module, "serialize_markdown", "table.markdown")
        stack.enter_context(patched(runner, "run_dataset", self.wrap_root(runner.run_dataset, "runner.run_dataset")))
        patch(runner, "dump_report", "runner.dump")
        patch(runner, "run_instance", "runner.instance", instance=lambda a: a[0].id)
        for module in (runner, llm):  # "ok" is set only when a pipeline came back
            patch(module, "extract_pipeline_json", "llm.extract", attrs=_set("ok", lambda a, r: 1))
        patch(runner, "merge_pipelines", "merge.merge", attrs=_set("ops", lambda a, r: len(r)))
        patch(runner, "answer_with_rollback", "rollback.answer", attrs=_set("state", lambda a, r: r.state_used))
        for module in (rollback, engine):
            patch(module, "execute", "engine.execute", attrs=_steps)
        for op in ("select", "filter", "sort_by", "group_by"):
            patch(engine, f"exec_{op}", f"ops.{op}", attrs=_set("rows", lambda a, r: a[0].n_rows))
        for op in ("add_column", "clean_column"):
            patch(engine, f"exec_{op}", f"semantic.{op}")
        patch(reward, "total_reward", "reward.total")
        patch(reward, "filter_dataset", "reward.filter")
        stack.enter_context(patched(reward, "contains_all_answers",
                                    self.count(reward.contains_all_answers, "cells", lambda a: cell_count(a[0]))))
        patch(gate, "sample_accepted_group", "gate.sample",
              attrs=_set("attempts", lambda a, r: r.attempts))
        self._install_clients(stack)
        return stack

    def _install_clients(self, stack: contextlib.ExitStack) -> None:
        """Trace generator transports and the QA client the runner builds."""
        tracer = self
        inner_factory = runner.GeneratorFactory
        inner_build_qa = runner.build_qa_client
        inner_generate = runner.generate_candidates

        class Transport:
            def __init__(self, inner):
                self._inner = inner
                self.parent = None  # the generate span, set when generation starts

            def complete(self, messages, config, index=0):
                record = tracer.open("llm.transport", parent=self.parent)
                record[ATTRS]["index"] = index
                try:
                    text = self._inner.complete(messages, config, index)
                    record[ATTRS]["ok"] = 1
                    return text
                finally:
                    tracer.close(record)

        class Factory:
            def __init__(self, config):
                self._inner = inner_factory(config)

            def transport_for(self, instance_id, question):
                return Transport(self._inner.transport_for(instance_id, question))

        class Qa:
            def __init__(self, inner):
                self._inner = inner

            def ask(self, question, table):
                record = tracer.open("qa.ask")
                try:
                    return self._inner.ask(question, table)
                finally:
                    tracer.close(record)

        def generate(question, table, config, transport, *args, **kwargs):
            # pool threads have no span stack of their own, so hand them the parent
            if isinstance(transport, Transport):
                transport.parent = tracer._stack()[-1]
            return inner_generate(question, table, config, transport, *args, **kwargs)

        stack.enter_context(patched(runner, "GeneratorFactory", Factory))
        stack.enter_context(patched(runner, "build_qa_client", lambda config: Qa(inner_build_qa(config))))
        stack.enter_context(patched(runner, "generate_candidates", self.wrap(generate, "llm.generate")))

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def _set(key, value):
    def attrs(record, args, result):
        record[ATTRS][key] = value(args, result)

    return attrs


def _steps(record, args, result):
    facts = record[ATTRS]
    for step in result.steps:
        facts[step.status] = facts.get(step.status, 0) + 1
    facts["truncated"] = int(result.truncated_at is not None)


# --- metrics -----------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        covered = 0
        cursor = s[START]
        for start, end in sorted(children.get(s[ID], ())):
            start, end = max(start, cursor), min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        out[s[ID]] = s[END] - s[START] - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(spans: list[list], parallelism: int) -> dict:
    """Per-layer metrics of one traced pass (or one set-up)."""
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def ms(*names):
        return sum(own[s[ID]] for n in names for s in by_name.get(n, ())) / 1e6

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key):
        return sum(s[ATTRS].get(key, 0) for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    transports = by_name.get("llm.transport", ())
    slots = {(s[INSTANCE], s[ATTRS]["index"]) for s in transports}
    states = [s[ATTRS]["state"] for s in by_name.get("rollback.answer", ())]
    ops = ("ops.select", "ops.filter", "ops.sort_by", "ops.group_by")
    dataset = by_name.get("runner.run_dataset", ())
    busy = sum(s[END] - s[START] for s in by_name.get("runner.instance", ()))
    wall = sum(s[END] - s[START] for s in dataset)
    metrics = {
        "table.ingest_ms": ms("table.ingest"),
        "table.cells_ingested": total("table.ingest", "cells"),
        "table.markdown_ms": ms("table.markdown"),
        "table.markdown_calls": calls("table.markdown"),
        "data.load_ms": ms("data.load"),
        "config.load_ms": ms("config.load"),
        "llm.generate_ms": ms("llm.generate"),
        "llm.requests": len(transports),
        "llm.retries": len(transports) - len(slots),
        "llm.request_failures": sum(1 for s in transports if not s[ATTRS].get("ok")),
        "llm.transport_ms": ms("llm.transport"),
        "llm.extract_ms": ms("llm.extract"),
        "llm.extract_ok_ratio": ratio(total("llm.extract", "ok"), calls("llm.extract")),
        "merge.ms": ms("merge.merge"),
        "merge.calls": calls("merge.merge"),
        "merge.ops_out": total("merge.merge", "ops"),
        "engine.execute_ms": ms("engine.execute"),
        "engine.steps_ok": total("engine.execute", "ok"),
        "engine.steps_failed": total("engine.execute", "failed"),
        "engine.steps_skipped": total("engine.execute", "skipped"),
        "engine.truncated_ratio": ratio(total("engine.execute", "truncated"), calls("engine.execute")),
        **{f"{name}_ms": ms(name) for name in ops},
        "ops.rows_in": sum(total(name, "rows") for name in ops),
        "semantic.add_column_ms": ms("semantic.add_column"),
        "semantic.clean_column_ms": ms("semantic.clean_column"),
        "semantic.calls": calls("semantic.add_column") + calls("semantic.clean_column"),
        "rollback.ms": ms("rollback.answer"),
        "rollback.qa_ms": ms("qa.ask"),
        "rollback.qa_calls": calls("qa.ask"),
        **{f"rollback.state{k}": states.count(k) for k in (1, 2, 3)},
        "reward.total_ms": ms("reward.total"),
        "reward.calls": calls("reward.total"),
        "reward.cells_scanned": total("reward.total", "cells"),
        "reward.filter_ms": ms("reward.filter"),
        "gate.sample_ms": ms("gate.sample"),
        "gate.groups": calls("gate.sample"),
        "gate.attempts": total("gate.sample", "attempts"),
        "gate.accept_ratio": ratio(calls("gate.sample"), total("gate.sample", "attempts")),
        "runner.overhead_ms": ms("runner.run_dataset"),
        "runner.busy_share": ratio(busy, wall * parallelism),
        "runner.dump_ms": ms("runner.dump"),
    }
    all_self = sum(own.values())
    for layer in LAYERS:
        layer_ns = sum(own[s[ID]] for s in spans if layer_of(s[NAME]) == layer)
        metrics[f"share.{layer}"] = ratio(layer_ns, all_self)
    return metrics


def instance_latency(spans: list[list]) -> dict:
    """p50/p95 of per-instance wall time, pooled over every traced pass."""
    times = sorted((s[END] - s[START]) / 1e6 for s in spans if s[NAME] == "runner.instance")
    if len(times) < 2:
        p50 = p95 = times[0] if times else 0.0
    else:
        cuts = statistics.quantiles(times, n=20, method="inclusive")
        p50, p95 = statistics.median(times), cuts[18]
    return {"runner.instance_ms.p50": p50, "runner.instance_ms.p95": p95,
            "runner.instance_ms.count": len(times)}


def write_spans(path: str, passes: list[tuple[str, list[list]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, spans in passes:
            for s in spans:
                fh.write(json.dumps({"pass": label, "id": s[ID], "parent": s[PARENT], "name": s[NAME],
                                     "start_ns": s[START], "end_ns": s[END], "instance": s[INSTANCE],
                                     **s[ATTRS]}) + "\n")

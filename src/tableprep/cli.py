"""Command-line surface: run, exec, merge, reward, gate, filter-dataset.

Exit codes: 0 success, 2 configuration error, 3 dataset error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from . import runner as runner_mod
from .config import AppConfig, build_semantic_executor, load_config
from .data import load_instances_jsonl, parse_answers, write_instances_jsonl
from .engine import execute, trace_to_json
from .errors import ConfigError, TablePrepError
from .gate import GateConfig, GroupMember, as_fraction, gate_record, sample_accepted_group
from .merge import merge_pipelines
from .ops import parse_pipeline, pipeline_to_json
from .reward import approx_token_count, filter_dataset, total_reward
from .table import load_csv, load_json_table, serialize_json

CONFIG_EXIT = 2
DATASET_EXIT = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(path: str | None):
    if path is None:
        return AppConfig()
    try:
        return load_config(path)
    except ConfigError as err:
        _fail(CONFIG_EXIT, str(err))


def _read_json(path: str, code: int = DATASET_EXIT):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        _fail(code, f"cannot read {path}: {err}")


def _write_text(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout when no path is given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _write_json(doc, out: str | None):
    _write_text(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n", out)


@click.group()
def main():
    """Question-aware table preparation pipelines."""


@main.command()
@click.option("--dataset", required=True, type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Report path (default stdout).")
def run(dataset, config_path, out):
    """Answer every dataset instance end to end and write a run report."""
    config = _load_config(config_path)
    try:
        instances, line_errors = load_instances_jsonl(dataset, config.reward.matching)
    except OSError as err:
        _fail(DATASET_EXIT, f"cannot read dataset: {err}")
    if not instances and line_errors:
        _fail(DATASET_EXIT, f"dataset has no readable instances ({len(line_errors)} bad lines)")
    try:
        report = runner_mod.run_dataset(instances, config, line_errors)
    except ConfigError as err:
        _fail(CONFIG_EXIT, str(err))
    _write_text(runner_mod.dump_report(report), out)


@main.command("exec")
@click.option("--table", "table_path", required=True, type=click.Path())
@click.option("--pipeline", "pipeline_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Also write the execution trace JSON here.")
@click.option("--out", type=click.Path(), default=None)
def exec_cmd(table_path, pipeline_path, config_path, trace_path, out):
    """Execute a pipeline file over a table file and print the final table."""
    config = _load_config(config_path)
    if table_path.endswith(".csv"):
        try:
            with open(table_path, "rb") as fh:
                table = load_csv(fh.read())
        except (OSError, TablePrepError) as err:
            _fail(DATASET_EXIT, f"cannot load table: {err}")
    else:
        doc = _read_json(table_path)
        try:
            table = load_json_table(doc)
        except TablePrepError as err:
            _fail(DATASET_EXIT, f"cannot load table: {err}")
    pipeline_doc = _read_json(pipeline_path)
    try:
        pipeline = parse_pipeline(pipeline_doc)
    except TablePrepError as err:
        _fail(DATASET_EXIT, f"cannot parse pipeline: {err}")
    try:
        executor = build_semantic_executor(config)
    except ConfigError as err:
        _fail(CONFIG_EXIT, str(err))
    trace = execute(pipeline, table, executor)
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(trace_to_json(trace), fh, indent=2, sort_keys=True)
            fh.write("\n")
    _write_json(serialize_json(trace.final), out)


@main.command()
@click.argument("candidates_path", type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def merge(candidates_path, out):
    """Merge a JSON array of candidate pipelines into one consensus pipeline."""
    doc = _read_json(candidates_path)
    if not isinstance(doc, list):
        _fail(DATASET_EXIT, "candidates file must be a JSON array of pipelines")
    try:
        pipelines = [parse_pipeline(item) for item in doc]
        merged = merge_pipelines(pipelines)
    except TablePrepError as err:
        _fail(DATASET_EXIT, str(err))
    _write_json(pipeline_to_json(merged), out)


@main.command()
@click.argument("bundle_path", type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def reward(bundle_path, config_path, out):
    """Score one {question, table, answers, pipeline, output_text} bundle."""
    config = _load_config(config_path)
    doc = _read_json(bundle_path)
    for key in ("table", "answers", "pipeline"):
        if key not in doc:
            _fail(DATASET_EXIT, f"reward bundle is missing {key!r}")
    try:
        table = load_json_table(doc["table"])
        answers = parse_answers(doc["answers"], config.reward.matching)
        pipeline = parse_pipeline(doc["pipeline"])
        executor = build_semantic_executor(config)
    except ConfigError as err:
        _fail(CONFIG_EXIT, str(err))
    except (TablePrepError, ValueError) as err:
        _fail(DATASET_EXIT, str(err))
    trace = execute(pipeline, table, executor)
    token_len = approx_token_count(doc.get("output_text", ""))
    try:
        breakdown = total_reward(trace, answers, token_len, config.reward)
    except TablePrepError as err:
        _fail(DATASET_EXIT, str(err))
    _write_json(breakdown.to_json(), out)


@main.command()
@click.argument("rewards_path", type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None, help="JSONL output (default stdout).")
def gate(rewards_path, config_path, out):
    """Gate reward groups; emits one JSONL record per instance.

    Input: JSON array or JSONL of {"instance_id", "rewards"}. Consecutive
    groups with the same instance_id count as successive resampling attempts.
    """
    config = _load_config(config_path)
    groups = _read_groups(rewards_path)
    records = [gate_record(instance_id, outcome)
               for instance_id, outcome in _gate_all(groups, config.gate)]
    _write_text("".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records), out)


def _read_groups(path: str) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        _fail(DATASET_EXIT, f"cannot read rewards file: {err}")
    stripped = text.lstrip()
    try:
        if stripped.startswith("["):
            doc = json.loads(text)
        else:
            doc = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as err:
        _fail(DATASET_EXIT, f"cannot parse rewards file: {err}")
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "instance_id" not in item or "rewards" not in item:
            _fail(DATASET_EXIT, f"group {i}: each group needs 'instance_id' and 'rewards'")
        if not isinstance(item["rewards"], list):
            _fail(DATASET_EXIT, f"instance {item['instance_id']}: 'rewards' must be a list")
    return doc


def _gate_all(groups: list[dict], cfg: GateConfig):
    """Replay pre-sampled groups per instance through the acceptance gate.

    Each instance's groups are the gate's source, drawn in file order, so it
    makes at most as many attempts as there are groups. The group size passed
    to the gate is the smallest replayed group's, so any group of fewer than
    two rewards is refused.
    """
    by_instance: dict[str, list[list]] = {}
    for group in groups:
        instance_id = str(group["instance_id"])
        try:
            rewards = [as_fraction(r) for r in group["rewards"]]
        except (ValueError, ZeroDivisionError) as err:
            _fail(DATASET_EXIT, f"instance {instance_id}: bad reward: {err}")
        by_instance.setdefault(instance_id, []).append(rewards)

    for instance_id, attempts in by_instance.items():
        attempts = attempts[: cfg.max_resample_attempts]
        replay = iter(attempts)

        def source(group_size: int) -> list[GroupMember]:
            return [GroupMember("", r) for r in next(replay)]

        capped = replace(cfg, max_resample_attempts=len(attempts))
        try:
            outcome = sample_accepted_group(source, min(map(len, attempts)), capped)
        except TablePrepError as err:
            _fail(DATASET_EXIT, f"instance {instance_id}: {err}")
        yield instance_id, outcome


@main.command("filter-dataset")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--max-tokens", default=2800, show_default=True)
@click.option("--stats-out", type=click.Path(), default=None)
def filter_dataset_cmd(input_path, output_path, max_tokens, stats_out):
    """Keep cell-focused instances under the token budget; write kept + stats."""
    try:
        instances, line_errors = load_instances_jsonl(input_path)
    except OSError as err:
        _fail(DATASET_EXIT, f"cannot read dataset: {err}")
    kept, stats = filter_dataset(instances, max_tokens=max_tokens)
    write_instances_jsonl(output_path, kept)
    doc = stats.to_json()
    if line_errors:
        doc["line_errors"] = line_errors
    _write_json(doc, stats_out)


if __name__ == "__main__":
    main()

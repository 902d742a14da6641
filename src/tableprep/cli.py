"""Command-line surface: run, exec, merge, reward, gate, filter-dataset.

Exit codes: 0 success, 2 configuration error, 3 input or output file error
(a file that cannot be read, decoded, parsed or written, or whose content
has the wrong shape). The commands raise; ``_Main.invoke`` alone turns an
error into an ``error: <message>`` line on stderr and its exit code.
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
from .errors import ConfigError, DatasetError, GroupTooSmallError, TablePrepError
from .gate import GateConfig, GroupMember, as_fraction, fits_float, gate_record, sample_accepted_group
from .merge import merge_pipelines
from .ops import parse_pipeline, pipeline_to_json
from .reward import approx_token_count, filter_dataset, total_reward
from .table import CELL_DECODER, load_csv, load_json_table, serialize_json

CONFIG_EXIT = 2
DATASET_EXIT = 3


class _Main(click.Group):
    def invoke(self, ctx):
        """Run the subcommand. An error that bad input, a bad config or a
        file causes becomes an ``error:`` line and exit 2 (``ConfigError``)
        or 3; any other exception is a bug and keeps its traceback."""
        try:
            return super().invoke(ctx)
        except (TablePrepError, OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(CONFIG_EXIT if isinstance(err, ConfigError) else DATASET_EXIT)


def _load_config(path: str | None) -> AppConfig:
    return AppConfig() if path is None else load_config(path)


def _read_instances(path: str):
    """The instances of the JSONL dataset ``path`` and its bad lines; a file
    with bad lines and no readable instance is refused."""
    instances, line_errors = load_instances_jsonl(path)
    if not instances and line_errors:
        raise DatasetError(f"dataset has no readable instances ({len(line_errors)} bad lines)")
    return instances, line_errors


def _read_json(path: str, parse=CELL_DECODER.decode):
    """The value ``parse`` reads from the text of the file ``path``."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return parse(fh.read())
        except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, a number over 4,300 digits, too deep
            raise DatasetError(f"cannot read {path}: {err}") from err


def _write_text(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout when no path is given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _write_json(doc, out: str | None):
    _write_text(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n", out)


@click.group(cls=_Main)
def main():
    """Question-aware table preparation pipelines."""


@main.command()
@click.option("--dataset", required=True, type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Report path (default stdout).")
def run(dataset, config_path, out):
    """Answer every dataset instance end to end and write a run report."""
    config = _load_config(config_path)
    instances, line_errors = _read_instances(dataset)
    report = runner_mod.run_dataset(instances, config, line_errors)
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
    if table_path.lower().endswith(".csv"):
        with open(table_path, "rb") as fh:
            table = load_csv(fh.read())
    else:
        table = load_json_table(_read_json(table_path))
    pipeline = parse_pipeline(_read_json(pipeline_path))
    trace = execute(pipeline, table, build_semantic_executor(config))
    if trace_path:
        _write_json(trace_to_json(trace), trace_path)
    _write_json(serialize_json(trace.final), out)


@main.command()
@click.argument("candidates_path", type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def merge(candidates_path, out):
    """Merge a JSON array of candidate pipelines into one consensus pipeline."""
    doc = _read_json(candidates_path)
    if not isinstance(doc, list):
        raise DatasetError("candidates file must be a JSON array of pipelines")
    merged = merge_pipelines([parse_pipeline(item) for item in doc])
    _write_json(pipeline_to_json(merged), out)


@main.command()
@click.argument("bundle_path", type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def reward(bundle_path, config_path, out):
    """Score one {table, answers, pipeline, output_text} bundle."""
    config = _load_config(config_path)
    doc = _read_json(bundle_path)
    if not isinstance(doc, dict):
        raise DatasetError("reward bundle must be a JSON object")
    for key in ("table", "answers", "pipeline"):
        if key not in doc:
            raise DatasetError(f"reward bundle is missing {key!r}")
    output_text = doc.get("output_text", "")
    if not isinstance(output_text, str):
        raise DatasetError("reward bundle's 'output_text' must be a string")
    table = load_json_table(doc["table"])
    answers = parse_answers(doc["answers"], config.reward.matching)
    pipeline = parse_pipeline(doc["pipeline"])
    trace = execute(pipeline, table, build_semantic_executor(config))
    breakdown = total_reward(trace, answers, approx_token_count(output_text), config.reward)
    if not fits_float(breakdown.total):
        raise DatasetError("reward total is too large for a float")
    _write_json(breakdown.to_json(), out)


@main.command()
@click.argument("rewards_path", type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None, help="JSONL output (default stdout).")
def gate(rewards_path, config_path, out):
    """Gate reward groups; emits one JSONL record per instance.

    Input: JSON array or JSONL of {"instance_id", "rewards"}. Every group
    with the same instance_id, in file order wherever it appears, counts as
    one more resampling attempt for that instance.
    """
    config = _load_config(config_path)
    records = _gate_all(_read_json(rewards_path, _json_or_jsonl), config.gate)
    _write_text("".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records), out)


def _json_or_jsonl(text: str) -> list:
    """A JSON array, or the JSON value on each non-blank line."""
    if text.lstrip().startswith("["):
        return CELL_DECODER.decode(text)
    return [CELL_DECODER.decode(line) for line in text.splitlines() if line.strip()]


def _gate_all(groups: list, cfg: GateConfig) -> list[dict]:
    """Replay pre-sampled groups per instance through the acceptance gate;
    one gate record per instance.

    Each instance's groups are the gate's source, drawn in file order, so it
    makes at most as many attempts as there are groups. The group size passed
    to the gate is the smallest replayed group's, so any group of fewer than
    two rewards is refused. So is any reward that no float holds, as it is
    read, since a record may carry it as one.
    """
    by_instance: dict[str, list[list]] = {}
    for i, group in enumerate(groups):
        if not isinstance(group, dict) or "instance_id" not in group or "rewards" not in group:
            raise DatasetError(f"group {i}: each group needs 'instance_id' and 'rewards'")
        instance_id = str(group["instance_id"])
        if not isinstance(group["rewards"], list):
            raise DatasetError(f"instance {instance_id}: 'rewards' must be a list")
        try:
            rewards = [as_fraction(r) for r in group["rewards"]]
        except ValueError as err:
            raise DatasetError(f"instance {instance_id}: bad reward: {err}") from err
        for j, reward in enumerate(rewards):
            if not fits_float(reward):
                raise DatasetError(f"instance {instance_id}: reward {j} is too large for a float")
        by_instance.setdefault(instance_id, []).append(rewards)

    records = []
    for instance_id, attempts in by_instance.items():
        attempts = attempts[: cfg.max_resample_attempts]
        replay = iter(attempts)

        def source(group_size: int) -> list[GroupMember]:
            return [GroupMember("", r) for r in next(replay)]

        capped = replace(cfg, max_resample_attempts=len(attempts))
        try:
            outcome = sample_accepted_group(source, min(map(len, attempts)), capped)
        except GroupTooSmallError as err:
            raise DatasetError(f"instance {instance_id}: {err}") from err
        records.append(gate_record(instance_id, outcome))
    return records


@main.command("filter-dataset")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--max-tokens", default=2800, show_default=True, type=click.IntRange(min=1))
@click.option("--stats-out", type=click.Path(), default=None)
def filter_dataset_cmd(input_path, output_path, max_tokens, stats_out):
    """Keep cell-focused instances under the token budget; write kept + stats."""
    instances, line_errors = _read_instances(input_path)
    kept, stats = filter_dataset(instances, max_tokens=max_tokens)
    write_instances_jsonl(output_path, kept)
    doc = stats.to_json()
    if line_errors:
        doc["line_errors"] = line_errors
    _write_json(doc, stats_out)


if __name__ == "__main__":
    main()

"""Naive reference implementations used as independent oracles.

These deliberately avoid the library's code paths: row dicts instead of index
math, insertion sort instead of sorted(), linear-scan grouping instead of
hashing, and full prefix-sum enumeration instead of a trie walk. They are only
meant for the small random domains the tests draw from.
"""

import csv
import io
import json
from decimal import Decimal, localcontext
from fractions import Fraction

from tableprep.engine import FAILED, OK, SKIPPED, ExecutionTrace, StepRecord, apply_operator
from tableprep.errors import (
    ColumnExistsError,
    ColumnNotFoundError,
    EmptyGroupError,
    GroupTooSmallError,
    InvalidCellError,
    NoJsonFoundError,
    QaTransportError,
    RaggedRowError,
    TablePrepError,
)
from tableprep.gate import (
    LOW_QUALITY,
    LOW_VARIANCE,
    GateConfig,
    GroupStats,
    SampleOutcome,
    as_fraction,
)
from tableprep.llm import GenerationConfig, first_json_array
from tableprep.ops import (
    AddColumnOp,
    CleanColumnOp,
    FilterOp,
    GroupByOp,
    Pipeline,
    SelectOp,
    SortByOp,
    parse_pipeline,
)
from tableprep.reward import AnswerSet, RewardBreakdown, RewardConfig
from tableprep.table import Table, format_number, ingest_cell, parse_number, render_value


def ref_render(cell):
    if cell is None:
        return ""
    if isinstance(cell, Decimal):
        # oracle domain uses integer decimals only
        return str(int(cell))
    return cell


def ref_format_number(value: Decimal) -> str:
    """Zero first, then ``str()``, switching to fixed-point ``format()`` for
    exponent forms, then the trailing fractional zeros stripped."""
    if value == 0:
        return "0"
    text = str(value)
    if "E" in text:
        text = format(value, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


def ref_match(answer: str, text: str, matching: str) -> bool:
    """Equal text; under ``normalized`` matching, equal once both are
    stripped and casefolded."""
    if matching == "normalized":
        return answer.strip().casefold() == text.strip().casefold()
    return answer == text


def ref_contains_all_answers(table: Table, answers: AnswerSet) -> bool:
    """Render every cell, then look for each answer among the renderings."""
    rendered = [render_value(cell) for row in table.rows for cell in row]
    return all(
        any(ref_match(answer, cell, answers.matching) for cell in rendered)
        for answer in answers.answers
    )


def ref_check_rows(rows, width: int) -> None:
    """Walk every row and every cell, and raise at the first bad one."""
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowError(i, width, len(row))
        for cell in row:
            if isinstance(cell, Decimal):
                if not cell.is_finite():
                    raise InvalidCellError(f"non-finite number in row {i}")
            elif cell is not None and not isinstance(cell, str):
                raise InvalidCellError(f"unsupported cell type {type(cell).__name__} in row {i}")


def ref_load_csv(data: bytes) -> Table:
    """Type every CSV cell on its own, with no memo."""
    records = [row for row in csv.reader(io.StringIO(data.decode("utf-8-sig"))) if row != []]
    return Table(tuple(records[0]), tuple(tuple(ingest_cell(cell) for cell in raw) for raw in records[1:]))


def ref_json_cell(value):
    """One JSON value as a cell, with no memo: null as None, text as a raw
    cell, a ``Decimal`` as itself, any other value as its ``str()``."""
    if value is None or isinstance(value, Decimal):
        return value
    return ingest_cell(value if isinstance(value, str) else str(value))


def ref_load_json_table(doc: dict) -> Table:
    """Refuse the first row that is not a list, then type every JSON cell on
    its own by :func:`ref_json_cell` and check the table by ``Table(...)``."""
    for i, raw in enumerate(doc["rows"]):
        if not isinstance(raw, list):
            raise InvalidCellError(f"row {i} is not a list")
    return Table(tuple(doc["header"]), tuple(tuple(map(ref_json_cell, raw)) for raw in doc["rows"]))


def ref_mock_rule(rule: dict):
    """A mock mapping rule as a function of one cell: render the cell and look
    the rendering up among the keys; outputs are typed as JSON cells are."""
    def apply(cell):
        return ref_json_cell(rule.get(render_value(cell)))

    return apply


def ref_mock_infer_column(rule: dict, table: Table) -> list:
    """Per row, the first cell the rule has an answer for, else None."""
    apply = ref_mock_rule(rule)
    values = []
    for row in table.rows:
        hits = [out for out in map(apply, row) if out is not None]
        values.append(hits[0] if hits else None)
    return values


def ref_mock_rewrite_column(rule: dict, table: Table, column: str) -> list:
    """Each cell of ``column`` replaced by the rule's answer, when it has one."""
    apply = ref_mock_rule(rule)
    idx = list(table.columns).index(column)
    values = []
    for row in table.rows:
        out = apply(row[idx])
        values.append(row[idx] if out is None else out)
    return values


def _ref_value_of_row(reply: list, i: int):
    """Row ``i``'s value in an executor reply: its ``i``-th entry, or None
    past the reply's end; entries past the last row are never read."""
    return reply[i] if i < len(reply) else None


def ref_exec_add_column(table: Table, new_column: str, description: str, executor) -> Table:
    """Take each row's value from the reply one row at a time, check it as a
    one-cell row, then append it to its row."""
    if table.column_index(new_column) is not None:
        raise ColumnExistsError(new_column)
    reply = executor.infer_column(table, new_column, description)
    values = [_ref_value_of_row(reply, i) for i in range(table.n_rows)]
    ref_check_rows([(value,) for value in values], 1)
    rows = tuple(row + (value,) for row, value in zip(table.rows, values))
    return Table._trusted(table.columns + (new_column,), rows)


def ref_exec_clean_column(table: Table, column: str, description: str, executor) -> Table:
    """Take each row's value from the reply one row at a time, the row's own
    cell where it is None, check it as a one-cell row, then splice it into
    its row."""
    idx = table.column_index(column)
    if idx is None:
        raise ColumnNotFoundError(column)
    reply = executor.rewrite_column(table, column, description)
    values = []
    for i, row in enumerate(table.rows):
        value = _ref_value_of_row(reply, i)
        values.append(row[idx] if value is None else value)
    ref_check_rows([(value,) for value in values], 1)
    rows = tuple(
        row[:idx] + (value,) + row[idx + 1 :] for row, value in zip(table.rows, values)
    )
    return Table._trusted(table.columns, rows)


def ref_first_json_array(text: str):
    """At each opening bracket, find the string-aware balanced closing bracket
    and decode that span, a number with a fraction or an exponent as its
    exact Decimal; the first span that decodes wins."""
    start = text.find("[")
    while start != -1:
        end = _ref_balanced_end(text, start)
        if end is not None:
            try:
                return json.loads(text[start : end + 1], parse_float=Decimal)
            except ValueError:  # not JSON, or an int over 4,300 digits
                pass
        start = text.find("[", start + 1)
    return None


def _ref_balanced_end(text: str, start: int):
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return i
    return None


def ref_group_stats(rewards) -> GroupStats:
    """Fraction-by-Fraction population statistics: the mean, then the mean of
    squared deviations from it, and the std as the floor of the decimal
    square root of p q 4^64 over q 2^64, for the variance p/q."""
    values = [as_fraction(r) for r in rewards]
    n = len(values)
    mean = sum(values, Fraction(0)) / n
    variance = sum(((v - mean) ** 2 for v in values), Fraction(0)) / n
    p, q = variance.numerator, variance.denominator
    radicand = p * q * 4**64
    with localcontext() as ctx:
        # more significant digits than the radicand has, so the correctly
        # rounded root lies on the same side of every integer as the true one
        ctx.prec = len(str(radicand)) + 2
        root = int(Decimal(radicand).sqrt())
    return GroupStats(mean=mean, variance=variance, std=Fraction(root, q * 2**64), max=max(values), size=n)


def ref_sample_accepted_group(source, group_size: int, config: GateConfig) -> SampleOutcome:
    """Two statistics passes per accepted draw: Fraction-by-Fraction statistics
    for the decision, then again for the advantages."""
    if group_size < 2:
        raise GroupTooSmallError("group_size must be at least 2")
    reasons = []
    for attempt in range(1, config.max_resample_attempts + 1):
        group = tuple(source(group_size))
        rewards = [m.reward for m in group]
        if not rewards:
            raise EmptyGroupError("cannot compute statistics of an empty group")
        stats = ref_group_stats(rewards)
        if stats.variance < config.variance_threshold:
            reasons.append(LOW_VARIANCE)
        elif stats.max < config.quality_threshold:
            reasons.append(LOW_QUALITY)
        else:
            if len(rewards) < 2:
                raise GroupTooSmallError("advantages need a group of at least 2")
            stats = ref_group_stats(rewards)
            denominator = stats.std + as_fraction(config.advantage_epsilon)
            adv = tuple((as_fraction(r) - stats.mean) / denominator for r in rewards)
            return SampleOutcome(group, adv, attempt, tuple(reasons))
    return SampleOutcome(None, None, config.max_resample_attempts, tuple(reasons))


def _ref_config_fraction(section: str, key: str, value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"{section}.{key} must be a number, got {value!r}")
    return as_fraction(value)


def ref_reward_config(doc: dict) -> RewardConfig:
    """The reward section read key by key, each kind of key in its own loop."""
    kwargs = {}
    for key in ("lambda_compress", "lambda_length"):
        if key in doc:
            kwargs[key] = _ref_config_fraction("reward", key, doc[key])
    for key in ("l_max", "l_cache"):
        if key in doc:
            if type(doc[key]) is not int:
                raise ValueError(f"reward.{key} must be an integer, got {doc[key]!r}")
            kwargs[key] = doc[key]
    if "compression_orientation" in doc:
        kwargs["compression_orientation"] = doc["compression_orientation"]
    if "matching" in doc:
        kwargs["matching"] = doc["matching"]
    return RewardConfig(**kwargs)


def ref_gate_config(doc: dict) -> GateConfig:
    """The gate section read key by key."""
    kwargs = {}
    for key in ("variance_threshold", "quality_threshold", "advantage_epsilon"):
        if key in doc:
            kwargs[key] = _ref_config_fraction("gate", key, doc[key])
    if "max_resample_attempts" in doc:
        kwargs["max_resample_attempts"] = doc["max_resample_attempts"]
    return GateConfig(**kwargs)


def _ref_setting(section: dict, key: str, default, ok, expected: str):
    value = section.get(key, default)
    if not ok(value):
        raise ValueError(f"{key} must be {expected}, got {value!r}")
    return value


def ref_client_config(section: dict, temperature: float, max_tokens: int) -> GenerationConfig:
    """One client section read key by key; ``temperature`` and ``max_tokens``
    are that client's defaults."""
    def is_number(value):
        return type(value) in (int, float)

    def at_least(low):
        return lambda value: type(value) is int and value >= low

    def is_str(value):
        return isinstance(value, str)

    return GenerationConfig(
        endpoint=_ref_setting(section, "endpoint", GenerationConfig.endpoint, is_str, "a string"),
        model=_ref_setting(section, "model", GenerationConfig.model, is_str, "a string"),
        temperature=float(_ref_setting(section, "temperature", temperature, is_number, "a number")),
        max_tokens=_ref_setting(section, "max_tokens", max_tokens, at_least(1), "an integer >= 1"),
        timeout=float(_ref_setting(section, "timeout", GenerationConfig.timeout, is_number, "a number")),
        retries=_ref_setting(section, "retries", GenerationConfig.retries, at_least(0), "an integer >= 0"),
        api_key_env=_ref_setting(section, "api_key_env", None, lambda v: v is None or (is_str(v) and v != ""),
                                 "a non-empty string or null"),
        prompt_max_rows=_ref_setting(section, "prompt_max_rows", None,
                                     lambda v: v is None or at_least(0)(v), "an integer >= 0 or null"),
    )


def _ref_value_to_json(value):
    if isinstance(value, Decimal):
        if value == value.to_integral_value():
            return int(value)
        return format_number(value)
    return value


def ref_operator_to_json(spec) -> dict:
    """One branch per operator kind, writing out each kind's wire keys."""
    doc: dict = {"operation": spec.kind}
    if isinstance(spec, SelectOp):
        doc["columns"] = list(spec.columns)
    elif isinstance(spec, FilterOp):
        doc["column"] = spec.column
        doc["cmp"] = spec.cmp
        doc["value"] = _ref_value_to_json(spec.value)
    elif isinstance(spec, SortByOp):
        doc["column"] = spec.column
        doc["order"] = spec.order
        if spec.k is not None:
            doc["k"] = spec.k
    elif isinstance(spec, GroupByOp):
        doc["column"] = spec.column
    elif isinstance(spec, AddColumnOp):
        doc["new_column"] = spec.new_column
        doc["description"] = spec.description
    elif isinstance(spec, CleanColumnOp):
        doc["column"] = spec.column
        doc["description"] = spec.description
    if spec.explanation is not None:
        doc["explanation"] = spec.explanation
    return doc


def ref_canonical_key(spec) -> str:
    """One branch per operator kind: kind plus parameters, explanation
    excluded, select columns as a sorted set and the filter threshold in its
    canonical rendering."""
    if isinstance(spec, SelectOp):
        params = {"columns": sorted(set(spec.columns))}
    elif isinstance(spec, FilterOp):
        value = spec.value
        if isinstance(value, str):
            number = parse_number(value)
            canonical = format_number(number) if number is not None else value
        elif value is None:
            canonical = None
        else:  # a number of any type, by the Decimal it equals
            canonical = format_number(Decimal(value))
        params = {"column": spec.column, "cmp": spec.cmp, "value": canonical}
    elif isinstance(spec, SortByOp):
        params = {"column": spec.column, "order": spec.order}
        if spec.k is not None:
            params["k"] = spec.k
    elif isinstance(spec, GroupByOp):
        params = {"column": spec.column}
    elif isinstance(spec, AddColumnOp):
        params = {"new_column": spec.new_column, "description": spec.description}
    else:
        params = {"column": spec.column, "description": spec.description}
    return json.dumps([spec.kind, params], sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def ref_select(table: Table, requested) -> Table:
    requested = set(requested)
    keep = [c for c in table.columns if c in requested]
    assert keep, "oracle callers must pre-check NoValidColumns"
    dict_rows = [dict(zip(table.columns, row)) for row in table.rows]
    return Table(tuple(keep), tuple(tuple(d[c] for c in keep) for d in dict_rows))


def _is_plain_number(text: str) -> bool:
    body = text[1:] if text[:1] in "+-" else text
    if body.count(".") > 1 or body.strip(".") == "":
        return False
    return body.replace(".", "", 1).isdigit()


def ref_satisfies(cell, cmp, value):
    if cell is None:
        return cmp == "!=" and value is not None
    numeric = isinstance(cell, Decimal) and (
        isinstance(value, Decimal)
        or (isinstance(value, str) and _is_plain_number(value))
    )
    if numeric:
        left = cell
        right = value if isinstance(value, Decimal) else Decimal(value)
    else:
        left, right = ref_render(cell), ref_render(value)
    return {
        "==": left == right,
        "!=": left != right,
        ">": left > right,
        "<": left < right,
        ">=": left >= right,
        "<=": left <= right,
    }[cmp]


def ref_filter(table: Table, column, cmp, value) -> Table:
    idx = list(table.columns).index(column)
    rows = tuple(row for row in table.rows if ref_satisfies(row[idx], cmp, value))
    return Table(table.columns, rows)


def ref_sort_by(table: Table, column, order, k=None) -> Table:
    idx = list(table.columns).index(column)
    cells = [row[idx] for row in table.rows]
    numeric = all(isinstance(c, Decimal) for c in cells if c is not None)

    def sort_key(cell):
        return cell if numeric else ref_render(cell)

    non_null = [row for row in table.rows if row[idx] is not None]
    nulls = [row for row in table.rows if row[idx] is None]

    # stable insertion sort: insert before the first strictly worse element
    result = []
    for row in non_null:
        key = sort_key(row[idx])
        pos = len(result)
        for j, placed in enumerate(result):
            placed_key = sort_key(placed[idx])
            if (placed_key > key) if order == "asc" else (placed_key < key):
                pos = j
                break
        result.insert(pos, row)

    ordered = result + nulls
    if k is not None:
        ordered = ordered[:k]
    return Table(table.columns, tuple(ordered))


def ref_group_by(table: Table, column) -> Table:
    idx = list(table.columns).index(column)
    entries = []  # [representative, count], first-appearance order

    def same(a, b):
        if a is None or b is None:
            return a is None and b is None
        if isinstance(a, Decimal) != isinstance(b, Decimal):
            return False
        return a == b

    for row in table.rows:
        cell = row[idx]
        for entry in entries:
            if same(entry[0], cell):
                entry[1] += 1
                break
        else:
            entries.append([cell, 1])
    count_name = "count_" if column == "count" else "count"
    return Table(
        (column, count_name),
        tuple((rep, Decimal(count)) for rep, count in entries),
    )


def ref_best_path(sequences):
    """Max-weight path by explicit prefix-sum enumeration over all distinct
    sequences (prefixes included; they can never win because weights are
    positive, which makes this enumeration equivalent to leaf enumeration)."""
    sequences = [tuple(seq) for seq in sequences]
    distinct = {seq for seq in sequences if seq}

    def score(seq):
        return sum(
            sum(1 for other in sequences if other[: j + 1] == seq[: j + 1])
            for j in range(len(seq))
        )

    best = None
    for seq in distinct:
        candidate = (score(seq), len(seq), seq)
        if best is None:
            best = candidate
            continue
        if candidate[0] != best[0]:
            if candidate[0] > best[0]:
                best = candidate
        elif candidate[1] != best[1]:
            if candidate[1] > best[1]:
                best = candidate
        elif candidate[2] < best[2]:
            best = candidate
    return list(best[2]) if best else []


def ref_merge_pipelines(candidates):
    """The consensus merge without the read-column closure: the add_columns
    each candidate runs before its first group_by deduplicated through a
    seen-name set; the select union kept in a list beside a seen-set, then
    extended by the hoisted names it lacks; and the path of
    :func:`ref_consensus_path` over every other operator."""
    select_columns = []
    seen_columns = set()
    add_columns = []
    seen_adds = set()
    stripped = []
    for pipeline in candidates:
        remaining = []
        for spec in pipeline:
            if isinstance(spec, SelectOp):
                for column in spec.columns:
                    if column not in seen_columns:
                        seen_columns.add(column)
                        select_columns.append(column)
            elif isinstance(spec, AddColumnOp) and not any(isinstance(op, GroupByOp) for op in remaining):
                if spec.new_column not in seen_adds:
                    seen_adds.add(spec.new_column)
                    add_columns.append(spec)
            else:
                remaining.append(spec)
        stripped.append(remaining)
    if select_columns:
        select_columns += [spec.new_column for spec in add_columns if spec.new_column not in seen_columns]

    select = [SelectOp(tuple(select_columns))] if select_columns else []
    return Pipeline(tuple(add_columns + select + ref_consensus_path(stripped)))


def ref_consensus_path(sequences) -> list:
    """:func:`ref_best_path` over the :func:`ref_canonical_key` sequences of
    ``sequences``, each path operator the spec of the first sequence reaching
    that prefix."""
    key_sequences = [[ref_canonical_key(spec) for spec in ops] for ops in sequences]
    path = ref_best_path(key_sequences)
    return [
        next(ops[j] for ops, keys in zip(sequences, key_sequences) if keys[: j + 1] == path[: j + 1])
        for j in range(len(path))
    ]


def ref_merge_hoisting_every_add(candidates):
    """The consensus merge as it was before an add_column could join the trie:
    every candidate's add_column hoisted ahead of the select and the whole
    path, so the select's read-column closure sees no path add_column. It equals
    the library's merge whenever no candidate runs an add_column after a
    group_by."""
    union = {}
    adds = {}
    stripped = []
    firsts = []
    for pipeline in candidates:
        remaining = []
        first = None
        for spec in pipeline:
            if isinstance(spec, SelectOp):
                if first is None:
                    first = len(remaining)
                union.update(dict.fromkeys(spec.columns))
            elif isinstance(spec, AddColumnOp):
                adds.setdefault(spec.new_column, spec)
            else:
                remaining.append(spec)
        stripped.append(remaining)
        firsts.append(first)

    path = ref_consensus_path(stripped)
    merged = [*adds.values(), *path]
    if union:
        union.update(dict.fromkeys(adds))
        outside = [(depth, spec.column) for depth, spec in enumerate(path) if spec.column not in union]
        if outside:
            keys = [ref_canonical_key(spec) for spec in path]
            reach = 0
            for ops, first in zip(stripped, firsts):
                n = 0
                for spec, key in zip(ops[:first], keys):
                    if ref_canonical_key(spec) != key:
                        break
                    n += 1
                reach = max(reach, n)
            union.update((column, None) for depth, column in outside if depth < reach)
        merged.insert(len(adds), SelectOp(tuple(union)))
    return Pipeline(tuple(merged))


def ref_merge_walking_each_prefix(candidates):
    """The consensus merge as it was before the trie marked the nodes run
    before a select: it keeps each candidate's path operators and the count of
    them it runs before its first select, then walks every candidate's prefix
    against the best path's canonical keys to find the longest such prefix."""
    union = {}
    adds = {}
    stripped = []
    firsts = []
    for pipeline in candidates:
        remaining = []
        first = None
        grouped = False
        for spec in pipeline:
            if isinstance(spec, SelectOp):
                if first is None:
                    first = len(remaining)
                union.update(dict.fromkeys(spec.columns))
            elif isinstance(spec, AddColumnOp) and not grouped:
                adds.setdefault(spec.new_column, spec)
            else:
                grouped = grouped or isinstance(spec, GroupByOp)
                remaining.append(spec)
        stripped.append(remaining)
        firsts.append(first)

    path = ref_consensus_path(stripped)
    if union:
        union.update(dict.fromkeys(adds))
        keys = [ref_canonical_key(spec) for spec in path]
        reach = 0
        for ops, first in zip(stripped, firsts):
            n = 0
            for spec, key in zip(ops[:first], keys):
                if ref_canonical_key(spec) != key:
                    break
                n += 1
            reach = max(reach, n)
        created = set()
        for spec in path[:reach]:
            if isinstance(spec, AddColumnOp):
                created.add(spec.new_column)
            elif spec.column not in created:
                union.setdefault(spec.column)
    select = (SelectOp(tuple(union)),) if union else ()
    return Pipeline((*adds.values(), *select, *path))


# Memo-free references of the per-candidate path: parse, execute, score.


def ref_extract_pipeline_json(text: str):
    """Parse the text afresh, sharing nothing with earlier calls."""
    doc = first_json_array(text)
    if doc is None:
        raise NoJsonFoundError("no JSON array found in model output")
    return parse_pipeline(doc)


def ref_execute(pipeline, table, executor) -> ExecutionTrace:
    """Run every step of the pipeline from scratch, sharing nothing with
    earlier calls."""
    current = table
    steps = []
    truncated_at = None
    for i, spec in enumerate(pipeline):
        if truncated_at is not None:
            steps.append(StepRecord(spec, SKIPPED, current))
            continue
        try:
            current = apply_operator(spec, current, executor)
            steps.append(StepRecord(spec, OK, current))
        except TablePrepError as err:
            truncated_at = i
            steps.append(StepRecord(spec, FAILED, current, error=str(err)))
    return ExecutionTrace(table, tuple(steps), current, truncated_at)


def ref_answer_with_rollback(question, table, pipeline, qa, executor=None):
    """Walk the rollback states in a list: the fully prepared table, the first
    operator's table, the input table; an empty pipeline asks about the input
    table alone. The walk stops at the first reply that does not hold the
    refusal phrase (case and whitespace runs aside), or at the last state.
    Returns (answer, state, tables asked about, trace)."""
    trace = ref_execute(pipeline, table, executor)
    if trace.steps:
        states = [(1, trace.final), (2, trace.steps[0].table_after), (3, table)]
    else:
        states = [(3, table)]
    asked = []
    for state, submitted in states:
        asked.append(submitted)
        try:
            answer = qa.ask(question, submitted)
        except TablePrepError as err:
            raise QaTransportError(f"rollback state {state}: {err}", state=state) from err
        if "no data available" not in " ".join(answer.split()).casefold():
            break
    return answer, state, asked, trace


def ref_per_op_correctness(trace, answers: AnswerSet) -> list:
    """Scan every OK step's table; failed and skipped steps score 0."""
    return [
        (1 if ref_contains_all_answers(step.table_after, answers) else 0) if step.status == OK else 0
        for step in trace.steps
    ]


def ref_total_reward(trace, answers: AnswerSet, token_len: int, config: RewardConfig) -> RewardBreakdown:
    """Every OK step scanned, each term by the README's formula, and the
    total summed Fraction by Fraction: compression ``0.5 * R_n/R + 0.5 *
    C_n/C`` (inverted, ``max(0, 1 - value)``), and length the line through 0
    at ``l_max - l_cache`` tokens and -1 at ``l_max``, clamped to [-1, 0]."""
    bits = ref_per_op_correctness(trace, answers)
    n = len(trace.steps)
    r_acc = Fraction(sum(bits), n) if n else Fraction(0)
    initial, final = trace.initial, trace.final
    half = Fraction(1, 2)
    r_compress = half * Fraction(final.n_rows, initial.n_rows) + half * Fraction(final.n_cols, initial.n_cols)
    if config.compression_orientation == "inverted":
        r_compress = max(Fraction(0), 1 - r_compress)
    ramp = Fraction(config.l_max - config.l_cache - token_len, config.l_cache)
    r_length = min(Fraction(0), max(Fraction(-1), ramp))
    total = r_acc + config.lambda_compress * r_compress + config.lambda_length * r_length
    return RewardBreakdown(tuple(bits), r_acc, r_compress, r_length, total, n, token_len)


# The whole run: a sequential composition of the references above.


class RefCellLookupQa:
    """The cell_lookup QA model: the first expected answer of the question
    that renders as some cell, else the refusal."""

    def __init__(self, expected: dict):
        self.expected = expected

    def ask(self, question, table):
        for answer in self.expected.get(question, []):
            if ref_contains_all_answers(table, AnswerSet.of(answer)):
                return answer
        return "No data available"


class RefMockExecutor:
    """The mock semantic executor: the first rule whose pattern occurs in the
    description, applied by :func:`ref_mock_infer_column` or
    :func:`ref_mock_rewrite_column`; no value for any row without one."""

    def __init__(self, rules: dict):
        self.rules = rules

    def _rule(self, description):
        return next((rule for pattern, rule in self.rules.items() if pattern in description), None)

    def infer_column(self, table, new_column, description):
        rule = self._rule(description)
        return [None] * len(table.rows) if rule is None else ref_mock_infer_column(rule, table)

    def rewrite_column(self, table, column, description):
        rule = self._rule(description)
        return [None] * len(table.rows) if rule is None else ref_mock_rewrite_column(rule, table, column)


def _ref_cells(table) -> int:
    return sum(len(row) for row in table.rows)


def ref_run_dataset(instances, doc: dict) -> str:
    """The report dump of a mock-backed run, instance after instance.

    ``doc`` is the config as a JSON object whose mock data is inline. Each
    instance's candidates are its script's texts in turn, parsed by
    :func:`ref_extract_pipeline_json`, merged by
    :func:`ref_merge_walking_each_prefix` and answered by
    :func:`ref_answer_with_rollback`; a blank question fails the instance.
    The records, the aggregates and the JSON are written out here."""
    generator = doc.get("generator", {})
    scripts = generator.get("script", {})
    default_texts = generator.get("default_texts", ["[]"])
    qa = RefCellLookupQa(doc.get("qa", {}).get("script", {}))
    semantic = doc.get("semantic_executor", {})
    executor = RefMockExecutor(semantic.get("rules", {})) if semantic.get("mode") == "mock" else None
    run = doc.get("run", {})
    n = run.get("n", 5)
    matching = run.get("eval_matching", "normalized")

    records, errors = [], []
    for instance in instances:
        if not instance.question.strip():
            errors.append({"id": instance.id, "error": "question must be non-empty"})
            continue
        texts = scripts.get(instance.id, default_texts)
        pipelines, candidate_errors = [], []
        for k in range(n):
            try:
                pipelines.append(ref_extract_pipeline_json(texts[k % len(texts)]))
            except TablePrepError as err:
                candidate_errors.append(f"candidate {k}: {err}")
        merged = ref_merge_walking_each_prefix(pipelines)
        answer, state, asked, trace = ref_answer_with_rollback(instance.question, instance.table, merged, qa, executor)
        record = {
            "id": instance.id,
            "final_answer": answer,
            "state_used": state,
            "qa_calls": len(asked),
            "ops_executed": len([step for step in trace.steps if step.status == OK]),
            "cells_before": _ref_cells(instance.table),
            "cells_after": _ref_cells(trace.final),
            "merged_ops": [spec.kind for spec in merged],
            "candidates_ok": len(pipelines),
            "candidate_errors": candidate_errors,
        }
        if instance.answers is not None:
            record["correct"] = any(ref_match(answer, gold, matching) for gold in instance.answers.answers)
        records.append(record)
    records.sort(key=lambda r: r["id"])
    errors.sort(key=lambda e: e["id"])

    labeled = [r["correct"] for r in records if "correct" in r]
    compression = Fraction(0)
    histogram = {}
    for r in records:
        if r["cells_before"]:
            compression += 1 - Fraction(r["cells_after"], r["cells_before"])
        for kind in r["merged_ops"]:
            histogram[kind] = histogram.get(kind, 0) + 1
    report = {
        "metadata": {
            "n_candidates": n,
            "eval_matching": matching,
            "compression_definition": "mean over instances of 1 - cells_after/cells_before",
        },
        "aggregates": {
            "instances": len(records),
            "accuracy": float(Fraction(labeled.count(True), len(labeled))) if labeled else None,
            "mean_compression": float(compression / len(records)) if records else 0.0,
            "rollback_rate": float(Fraction(len([r for r in records if r["qa_calls"] > 1]), len(records)))
            if records else 0.0,
            "op_type_histogram": histogram,
        },
        "records": records,
        "errors": errors,
    }
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

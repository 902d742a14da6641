"""Seeded workload generator for the tableprep benchmark.

    python3 perfbench/gen.py --workload serve_small --seed 7 --out DIR [--size smoke]

Writes into DIR the only files the program under test receives:

    config.json            tableprep run configuration (mock generator, QA, executor)
    dataset.jsonl          instances; serve workloads carry one malformed line
    generator_script.json  five candidate texts per instance id (serve)
    groups.json            the candidate texts of each planned group draw (train)
    qa_expected.json       CellLookup QA expectations, keyed by question
    semantic_rules.json    mock add_column / clean_column rules

plus ``plan.json``, which records what was planted so the benchmark can check
the program's outputs. The same seed gives byte-identical files. The seed picks
table contents, answer cells, operator parameters and text styles; the number
of instances of each kind and the table sizes are fixed per workload, so the
work per run does not drift from seed to seed.

Every table has the columns ``key`` (unique text), ``name`` (unique text),
``amount`` (unique integers, disjoint from every other number in the table) and
``city`` (eight categories), then optional filler columns. The gold answer is
always a ``name`` or ``amount`` cell, so it occurs exactly once and each
candidate operator either provably keeps it or provably drops it. That is what
lets the plan predict the rollback state of every instance.
"""

from __future__ import annotations

import argparse
import json
import os
import random

CITIES = ("Paris", "Oslo", "Lima", "Cairo", "Quito", "Seoul", "Perth", "Dakar")
REGIONS = {"Paris": "EU", "Oslo": "EU", "Lima": "SA", "Cairo": "AF",
           "Quito": "SA", "Seoul": "AS", "Perth": "OC", "Dakar": "AF"}
# equal lengths, so table sizes in bytes do not depend on the seed
WORDS = ("alpha", "bravo", "delta", "ember", "fjord", "gamma", "heron", "ivory",
         "jewel", "koala", "lumen", "maple", "noble", "onset", "pixel", "quill")
FILLERS = ("qty", "price", "region", "score", "team", "status", "rank", "note")
TEAMS = ("red", "blue", "green", "gold")
STATUS = ("open", "closed", "pending")

SEMANTIC_RULES = {
    "region of the city": dict(REGIONS),
    "upper-case city": {c: c.upper() for c in CITIES},
}

N_CANDIDATES = 5
GROUP_SIZE = 8

# Serve instance kinds and the (state_used, qa_calls) each must produce:
#   keep    every candidate keeps the answer cell        -> state 1
#   late    consensus keeps it after op 1, drops it later -> state 2
#   early   consensus drops it at op 1                    -> state 3
#   nocell  the gold answer is not a cell of the table    -> state 3, wrong
#   allbad  no candidate text parses: identity pipeline   -> state 3, one call
#   blank   blank question: a per-instance error record
EXPECTED_STATE = {"keep": (1, 1), "late": (2, 2), "early": (3, 3), "nocell": (3, 3), "allbad": (3, 1)}

WORKLOADS = {
    # Per-instance CPU in llm (prompt rendering, pool start/join, extraction),
    # merge, rollback and runner is nearly all of the time: many WikiTQ-sized
    # tables, zero-latency scripted mocks, parallelism 1.
    "serve_small": {
        "kind": "serve", "parallelism": 1, "delay_ms": 0, "prompt_max_rows": None,
        "classes": {"keep": 90, "late": 60, "early": 60, "nocell": 12, "allbad": 12, "blank": 6},
        "rows": (8, 40), "cols": (4, 10),
        "smoke": {"keep": 2, "late": 2, "early": 2, "nocell": 1, "allbad": 1, "blank": 1},
    },
    # Table ingestion, the structured operators and QA table rendering
    # dominate, while llm and merge do little: few 1k-20k-row tables of 12
    # columns, with prompt_max_rows set as a real deployment would.
    "serve_large": {
        "kind": "serve", "parallelism": 1, "delay_ms": 0, "prompt_max_rows": 30,
        "tables": [("allbad", 1000), ("nocell", 2000), ("keep", 5000),
                   ("late", 10000), ("early", 20000), ("blank", 12)],
        "smoke_tables": [("keep", 300), ("late", 600), ("early", 900), ("blank", 12)],
        "cols": 12,
    },
    # Time is waiting: every generator request and QA call sleeps 20 ms in the
    # benchmark's in-process seam (a stand-in for a model endpoint), with
    # parallelism 2. Some requests fail once (retry backoff) and some
    # instances fail every request. Only concurrency, retry policy and the
    # number of rollback QA calls should move it.
    "serve_latency": {
        "kind": "serve", "parallelism": 2, "delay_ms": 20, "prompt_max_rows": None,
        "classes": {"keep": 16, "late": 11, "early": 11, "nocell": 3, "allbad": 3, "blank": 2,
                    "failall": 2},
        "fail_once": 4,
        "rows": (8, 20), "cols": (4, 8),
        "smoke": {"keep": 1, "late": 1, "early": 1, "nocell": 1, "allbad": 1, "blank": 1,
                  "failall": 1},
        "smoke_fail_once": 1,
    },
    # The training side of the same layers: filter_dataset drops instances
    # that are not cell-focused or over the 2800-token budget, then every kept
    # instance draws groups of 8 candidates that are parsed, executed and
    # scored N times per table, and gated (some first draws have zero
    # variance, so resampling happens). reward and gate run nowhere else.
    "train_groups": {
        "kind": "train",
        "classes": {"accept": 60, "resample": 24, "exhaust": 12, "nocell": 12, "long": 12},
        "rows": (40, 120), "cols": (6, 8), "long_rows": 300,
        "smoke": {"accept": 2, "resample": 1, "exhaust": 1, "nocell": 1, "long": 1},
        "max_attempts": 3,
    },
}


# --- tables ---------------------------------------------------------------


def make_table(rng: random.Random, n_rows: int, n_cols: int) -> dict:
    """A ``{"header", "rows"}`` document; rows are shuffled so the answer row sits anywhere."""
    header = ["key", "name", "amount", "city"] + list(FILLERS[: max(0, n_cols - 4)])
    word = rng.choice(WORDS)
    offsets = [rng.randrange(7) for _ in range(n_rows)]
    rows = []
    for r in range(n_rows):
        row = [f"k{r:05d}", f"{word}-{r}", 100000 + 7 * r + offsets[r], rng.choice(CITIES)]
        for col in header[4:]:
            row.append(_filler(rng, col, row[3]))
        rows.append(row)
    rng.shuffle(rows)
    return {"header": header, "rows": rows}


def _filler(rng: random.Random, col: str, city: str):
    if col == "qty":
        return None if rng.random() < 0.05 else rng.randint(1, 500)
    if col == "price":
        return f"{rng.randint(100, 99999) / 100:.2f}"
    if col == "region":
        return REGIONS[city]
    if col == "score":
        return f"{rng.random():.3f}"
    if col == "team":
        return rng.choice(TEAMS)
    if col == "status":
        return rng.choice(STATUS)
    if col == "rank":
        return str(rng.randint(1, 99))
    return None if rng.random() < 0.3 else f"n{rng.randint(0, 9)}"


def answer_facts(rng: random.Random, table: dict) -> dict:
    row = rng.choice(table["rows"])
    column = rng.choice(("name", "amount"))
    other = [c for c in CITIES if c != row[3]]
    return {
        "key": row[0], "city": row[3], "amount": row[2], "column": column,
        "gold": str(row[1] if column == "name" else row[2]),
        "other_city": rng.choice(other),
    }


# --- candidate operators ----------------------------------------------------
# keep_* ops always succeed and keep the answer cell; drop_* ops always succeed
# and remove it. Every op names only key/name/amount/city.


def keep_ops(f: dict) -> list[dict]:
    return [
        {"operation": "filter", "column": "city", "cmp": "==", "value": f["city"]},
        {"operation": "filter", "column": "key", "cmp": "==", "value": f["key"]},
        {"operation": "sort_by", "column": "amount", "order": "desc"},
        {"operation": "filter", "column": "amount", "cmp": ">=", "value": f["amount"]},
        {"operation": "sort_by", "column": "name", "order": "asc"},
    ]


def drop_ops(f: dict) -> list[dict]:
    return [
        {"operation": "filter", "column": "key", "cmp": "!=", "value": f["key"]},
        {"operation": "filter", "column": "city", "cmp": "==", "value": f["other_city"]},
        {"operation": "group_by", "column": "city"},
        {"operation": "filter", "column": "amount", "cmp": "<", "value": f["amount"]},
    ]


def select_keep() -> dict:
    return {"operation": "select", "columns": ["key", "name", "amount", "city"]}


def select_drop(f: dict) -> dict:
    kept_other = "amount" if f["column"] == "name" else "name"
    return {"operation": "select", "columns": ["key", kept_other, "city"]}


ADD_REGION = {"operation": "add_column", "new_column": "city_region",
              "description": "region of the city"}
CLEAN_CITY = {"operation": "clean_column", "column": "city", "description": "upper-case city"}
MISSING_COL = {"operation": "filter", "column": "Colour", "cmp": "==", "value": "red"}

MALFORMED = (
    "I could not find a useful preparation for this question.",
    json.dumps([{"operation": "sort_by", "column": "amount", "order": "upward"}]),
    json.dumps([{"operation": "pivot", "column": "city"}]),
    json.dumps([{"operation": "filter", "column": "city", "cmp": "=="}]),
    "Steps [1] and [2]: [{\"operation\": \"select\", \"columns\": []}]",
)


def render(rng: random.Random, ops: list[dict]) -> str:
    """One candidate text in a seeded style; the pipeline it parses to is fixed."""
    style = rng.randrange(3)
    if style == 0:
        return json.dumps(ops)
    if style == 1:
        return ("Looking at the table [rows shown above], this plan helps:\n"
                + json.dumps(ops, indent=1) + "\nIt keeps what the question needs.")
    explained = [dict(op, explanation=f"step {i + 1}") for i, op in enumerate(ops)]
    return "```json\n" + json.dumps(explained) + "\n```"


def serve_candidates(rng: random.Random, kind: str, f: dict, slot: int) -> list[str]:
    """Five candidate texts whose merged consensus lands in ``kind``'s rollback state.

    ``slot`` cycles the agreement count and the majority pipeline shape, so
    every workload has a fixed mix of trie shapes whatever the seed.
    """
    keep, drop = keep_ops(f), drop_ops(f)
    if kind == "allbad":
        return [rng.choice(MALFORMED) for _ in range(N_CANDIDATES)]
    if kind in ("keep", "nocell"):
        # Whatever path wins, every op keeps the answer cell or fails (which
        # truncates and keeps the table); selects keep the answer column.
        majority = [
            [keep[0], keep[2]],
            [select_keep(), keep[1]],
            [keep[3], keep[4], CLEAN_CITY],
            [ADD_REGION, keep[2]],
        ][slot % 4]
        pool = [[rng.choice(keep)], [select_keep(), rng.choice(keep)], [ADD_REGION],
                [MISSING_COL], [rng.choice(keep), CLEAN_CITY], []]
        agree = 1 + slot % N_CANDIDATES
        if kind == "nocell":
            agree = max(agree, 2)
        texts = [render(rng, majority) for _ in range(agree)]
        texts += [render(rng, rng.choice(pool)) if rng.random() < 0.7 else rng.choice(MALFORMED)
                  for _ in range(N_CANDIDATES - agree)]
    elif kind == "late":
        # Op 1 keeps the answer, a later op drops it. Minority candidates are
        # single distinct ops or ops hoisted ahead of op 1 that keep it.
        majority = [
            [keep[0], drop[2]],
            [keep[2], drop[0]],
            [keep[3], drop[1]],
            [keep[0], keep[2], drop[3]],
        ][slot % 4]
        agree = 2 + slot % 4
        minority = [[keep[4]], [select_keep()], [ADD_REGION], [MISSING_COL]]
        rng.shuffle(minority)
        texts = [render(rng, majority) for _ in range(agree)]
        texts += [render(rng, minority[i]) if rng.random() < 0.7 else rng.choice(MALFORMED)
                  for i in range(N_CANDIDATES - agree)]
    elif kind == "early":
        # Op 1 drops the answer. No minority candidate may select or add a
        # column, since either would be hoisted ahead of op 1.
        majority = [
            [drop[0], keep[2]],
            [drop[1], keep[4]],
            [select_drop(f), keep[0]],
            [drop[3], drop[2]],
            [drop[2]],
        ][slot % 5]
        agree = 2 + slot % 4
        minority = [[keep[2]], [keep[4]], [MISSING_COL], [drop[0]]]
        rng.shuffle(minority)
        texts = [render(rng, majority) for _ in range(agree)]
        texts += [render(rng, minority[i]) if rng.random() < 0.7 else rng.choice(MALFORMED)
                  for i in range(N_CANDIDATES - agree)]
    else:  # blank, failall: never parsed
        texts = [render(rng, [keep[0]]) for _ in range(N_CANDIDATES)]
    rng.shuffle(texts)
    return texts


# --- workload writers -------------------------------------------------------


def _size_cycle(i: int, lo: int, hi: int, stride: int) -> int:
    return lo + (i * stride) % (hi - lo + 1)


def _kinds(spec: dict, size: str) -> list[str]:
    classes = spec["smoke"] if size == "smoke" else spec["classes"]
    return [kind for kind, count in classes.items() for _ in range(count)]


def build_serve(spec: dict, seed: int, size: str) -> dict:
    rng = random.Random(seed)
    if "tables" in spec:
        tables = spec["smoke_tables"] if size == "smoke" else spec["tables"]
        shapes = [(kind, rows, spec["cols"]) for kind, rows in tables]
    else:
        lo_r, hi_r = spec["rows"]
        lo_c, hi_c = spec["cols"]
        shapes = [(kind, _size_cycle(i, lo_r, hi_r, 13), _size_cycle(i, lo_c, hi_c, 5))
                  for i, kind in enumerate(_kinds(spec, size))]
    # slot numbers each instance within its kind, tying size to pipeline shape
    slots = [sum(1 for k, _, _ in shapes[:i] if k == kind) for i, (kind, _, _) in enumerate(shapes)]
    order = list(range(len(shapes)))
    if "tables" not in spec:  # a few large tables keep their order, so peak memory does not depend on the seed
        rng.shuffle(order)

    instances, script, qa, plan_instances = [], {}, {}, {}
    for position, index in enumerate(order):
        kind, n_rows, n_cols = shapes[index]
        iid = f"q{position:04d}"
        table = make_table(rng, n_rows, n_cols)
        facts = answer_facts(rng, table)
        slot = slots[index]
        question = f"[{iid}] What is the {facts['column']} for {facts['key']}?"
        gold = facts["gold"]
        if kind == "blank":
            question = "   "
        if kind == "nocell":
            gold = f"none-{facts['key']}"
        script[iid] = serve_candidates(rng, kind, facts, slot)
        if kind not in ("blank", "failall"):
            qa[question] = [gold]
        instances.append({"id": iid, "question": question, "table": table, "answers": [gold]})
        plan_instances[iid] = {"kind": kind, "gold": gold}

    fail_all = sorted(i for i, p in plan_instances.items() if p["kind"] == "failall")
    retry_pool = sorted(i for i, p in plan_instances.items() if p["kind"] in ("keep", "late", "early"))
    n_fail_once = spec.get("smoke_fail_once" if size == "smoke" else "fail_once", 0)
    fail_once = sorted([i, rng.randrange(N_CANDIDATES)] for i in rng.sample(retry_pool, n_fail_once))

    # One malformed line (a ragged row) exercises the loader's per-line errors.
    bad_line = rng.randrange(len(instances) + 1) + 1
    lines = [json.dumps(doc) for doc in instances]
    lines.insert(bad_line - 1, json.dumps({"id": "bad-line", "question": "?",
                                           "table": {"header": ["a", "b"], "rows": [["1"]]}}))
    generator = {"mode": "mock", "script": "generator_script.json", "n": N_CANDIDATES, "retries": 1}
    if spec["prompt_max_rows"]:
        generator["prompt_max_rows"] = spec["prompt_max_rows"]
    config = {
        "generator": generator,
        "qa": {"mode": "cell_lookup", "script": "qa_expected.json"},
        "semantic_executor": {"mode": "mock", "rules": "semantic_rules.json"},
        "run": {"n": N_CANDIDATES, "seed": seed, "parallelism": spec["parallelism"],
                "eval_matching": "normalized"},
    }
    plan = {"kind": "serve", "instances": plan_instances, "bad_lines": [bad_line],
            "fail_all": fail_all, "fail_once": fail_once, "delay_ms": spec["delay_ms"],
            "retries": generator["retries"], "n": N_CANDIDATES, "parallelism": spec["parallelism"]}
    return {"config.json": config, "dataset.jsonl": lines, "generator_script.json": script,
            "qa_expected.json": qa, "semantic_rules.json": SEMANTIC_RULES, "plan.json": plan}


# Train candidates. "good" pipelines keep every row or add a column, so their
# compression term is at least 3/4 and their total at least 11/8; every other
# member scores at most about 3/4, which keeps a varied draw's variance well
# above the gate's 1/10 threshold.


def good_pipelines(f: dict) -> list[list[dict]]:
    keep = keep_ops(f)
    return [[select_keep(), keep[2]], [keep[2]], [keep[4]], [select_keep()],
            [CLEAN_CITY], [ADD_REGION, keep[2]]]


def varied_draw(rng: random.Random, f: dict) -> tuple[list[str], int]:
    """Eight texts: 3 good, 1 answer-dropping, 1 verbose answer-dropping, 3 scoring as identity."""
    keep, drop = keep_ops(f), drop_ops(f)
    goods = rng.sample(good_pipelines(f), 3)
    texts = [render(rng, g) for g in goods]
    texts.append(render(rng, [keep[0], drop[2]]))
    notes = " ".join(f"[note {i}] the {rng.choice(WORDS)} column is not needed." for i in range(190))
    texts.append(notes + "\n" + json.dumps([keep[2], drop[0]]))
    texts += [rng.choice(MALFORMED), json.dumps([MISSING_COL]), "[]"]
    rng.shuffle(texts)
    return texts, 3


def build_train(spec: dict, seed: int, size: str) -> dict:
    rng = random.Random(seed)
    lo_r, hi_r = spec["rows"]
    lo_c, hi_c = spec["cols"]
    kinds = _kinds(spec, size)
    order = list(range(len(kinds)))
    rng.shuffle(order)
    attempts_for = {"accept": 1, "resample": 2, "exhaust": spec["max_attempts"]}
    lines, groups, plan_instances = [], {}, {}
    for position, index in enumerate(order):
        kind = kinds[index]
        iid = f"t{position:04d}"
        n_rows = spec["long_rows"] if kind == "long" else _size_cycle(index, lo_r, hi_r, 17)
        table = make_table(rng, n_rows, _size_cycle(index, lo_c, hi_c, 1))
        facts = answer_facts(rng, table)
        gold = f"none-{facts['key']}" if kind == "nocell" else facts["gold"]
        question = f"[{iid}] What is the {facts['column']} for {facts['key']}?"
        lines.append(json.dumps({"id": iid, "question": question, "table": table, "answers": [gold]}))
        entry = {"kind": kind}
        if kind in attempts_for:
            draws, goods = [], 0
            n_attempts = attempts_for[kind]
            for attempt in range(1, n_attempts + 1):
                if kind == "accept" or (kind == "resample" and attempt == 2):
                    texts, n_good = varied_draw(rng, facts)
                else:  # zero variance: eight copies of one good text
                    texts = [render(rng, rng.choice(good_pipelines(facts)))] * GROUP_SIZE
                    n_good = GROUP_SIZE
                draws.append(texts)
                goods += n_good
            groups[iid] = draws
            entry.update(attempts=n_attempts, accepted=kind != "exhaust", perfect=goods)
        plan_instances[iid] = entry
    config = {
        "semantic_executor": {"mode": "mock", "rules": "semantic_rules.json"},
        "reward": {"lambda_compress": 0.5, "lambda_length": 0.5, "l_max": 2560, "l_cache": 512,
                   "compression_orientation": "as_written", "matching": "exact"},
        "gate": {"variance_threshold": 0.1, "quality_threshold": 0.5,
                 "advantage_epsilon": 1e-6, "max_resample_attempts": spec["max_attempts"]},
        "run": {"seed": seed},
    }
    plan = {"kind": "train", "instances": plan_instances, "group_size": GROUP_SIZE,
            "max_tokens": 2800}
    return {"config.json": config, "dataset.jsonl": lines, "groups.json": groups,
            "semantic_rules.json": SEMANTIC_RULES, "plan.json": plan}


def generate(workload: str, seed: int, out_dir: str, size: str = "full") -> None:
    spec = WORKLOADS[workload]
    files = (build_serve if spec["kind"] == "serve" else build_train)(spec, seed, size)
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            if name.endswith(".jsonl"):
                fh.write("".join(line + "\n" for line in content))
            else:
                json.dump(content, fh, sort_keys=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.size)


if __name__ == "__main__":
    main()

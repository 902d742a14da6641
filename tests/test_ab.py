"""Smoke tests for ``tools/ab.py``: A/A runs of this checkout, with no git.

No timing is asserted; only that the tool runs both workers or both trees'
benchmark runs, checks their outputs, and reports a well-formed result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, "tools", "ab.py")
sys.path.insert(0, os.path.dirname(AB))

import ab  # noqa: E402


def ab_run(*args):
    return subprocess.run([sys.executable, AB, *args], capture_output=True, text=True, timeout=300, cwd=ROOT)


@pytest.mark.parametrize("workload, timing", [("train_groups", []), ("serve_latency", []), ("train_groups", ["--setup"])])
def test_an_a_a_run_of_this_checkout(workload, timing):
    out = ab_run("--base", ROOT, "--head", ROOT, "--workload", workload, "--size", "smoke", "--pairs", "3", *timing)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["timing"] == ("setup" if timing else "pass") and result["pairs"] == 3
    assert result["outputs_match"]
    lo, hi = result["interval"]
    assert 0 < lo <= result["ratio"] <= hi
    assert result["head_wins"] + result["base_wins"] <= 3
    assert result["coverage"] == 0.75
    assert result["base_ms"] > 0 and result["head_ms"] > 0
    assert f"median time: base {result['base_ms']:.3f} ms, head {result['head_ms']:.3f} ms" in out.stdout
    assert {"nproc", "pinned_cpu", "python"} <= set(result["machine"])


def test_a_tree_without_the_program_is_refused(tmp_path):
    out = ab_run("--base", str(tmp_path), "--head", ROOT, "--workload", "train_groups", "--size", "smoke")
    assert out.returncode == 2
    assert "holds no src/tableprep" in out.stderr


@pytest.mark.parametrize(
    "n, k, coverage",
    # k of the classical order-statistic table for the median at 95%
    [(1, 1, 0.0), (5, 1, 0.9375), (6, 1, 0.96875), (10, 2, 0.978515625), (20, 6, 0.9586105346679688)],
)
def test_the_median_interval_takes_the_tabled_order_statistics(n, k, coverage):
    values = [float(i) for i in range(n, 0, -1)]
    assert ab.median_interval(values) == (float(k), float(n + 1 - k), coverage)


def test_a_pair_of_benchmark_runs_reports_every_end_to_end_metric():
    out = ab_run("--base", ROOT, "--head", ROOT, "--workload", "train_groups", "--size", "smoke",
                 "--runs", "1", "--claim", "throughput_ips")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert (result["timing"], result["runs"], result["seconds"]) == ("runs", 1, ab.SMOKE_SECONDS)
    assert list(result["metrics"]) == [entry["name"] for entry in spec["end_to_end"]]
    for entry in spec["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["bound"] == entry["bound"] and metric["head_wins"] in (0, 1)
        for side in ("base", "head"):
            assert metric[side]["q1"] == metric[side]["median"] == metric[side]["q3"]
        assert f"  {entry['name']:<15} base " in out.stdout
    assert result["metrics"]["error_rate"]["head_wins"] == 0  # an exact constant of the workload
    assert result["claim"]["metric"] == "throughput_ips" and result["claim"]["pairs"] == 1
    assert result["claim"]["met"] == (result["claim"]["won_nine_in_ten"] and result["claim"]["beat_spread"])
    assert "claim throughput_ips: head better in " in out.stdout
    operations = result["operations"]
    for side in ("base", "head"):
        assert operations[side]["attempted"] > 0 and operations[side]["failed"] == 0
    assert operations["head_fails_larger_share"] is False
    assert (f"  failed operations: base 0 / {operations['base']['attempted']}, "
            f"head 0 / {operations['head']['attempted']}\n") in out.stdout


def test_a_run_that_fails_its_checks_exits_1(tmp_path):
    tree = tmp_path / "tree"
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), tree / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    source = tree / "src" / "tableprep" / "reward.py"
    line = "    total = Fraction(a * df * hj + c * e * b * hj + g * i * b * df, b * df * hj)\n"
    text = source.read_text(encoding="utf-8")
    assert line in text
    source.write_text(text.replace(line, line.rstrip() + " + Fraction(1, 10**9)\n"), encoding="utf-8")
    out = ab_run("--base", ROOT, "--head", str(tree), "--workload", "train_groups", "--size", "smoke",
                 "--runs", "1")
    assert out.returncode == 1, out.stdout + out.stderr
    assert "the head tree failed its workload checks" in out.stderr and "!= weighted sum" in out.stderr


def test_a_claim_needs_nine_wins_in_ten_and_a_gain_over_the_base_quartile_spread():
    spec = {"end_to_end": [{"name": "throughput_ips", "better": "higher", "bound": 0.25},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    base = [{"throughput_ips": 100.0 + i, "setup_s": 1.0} for i in range(10)]  # quartiles 102.25, 106.75

    def claim(head_ips):
        head = [{"throughput_ips": ips, "setup_s": 1.3} for ips in head_ips]
        return ab.judge(spec, base, head, "throughput_ips")

    met = claim([105.0 + i for i in range(10)])  # wins 10, median gain 5 > spread 4.5
    assert met["claim"]["met"] and met["claim"]["base_quartile_spread"] == 4.5
    assert met["metrics"]["setup_s"]["worse_than_bound"] and met["metrics"]["setup_s"]["change"] == pytest.approx(0.3)
    assert not met["metrics"]["throughput_ips"]["worse_than_bound"]
    close = claim([104.0 + i for i in range(10)])  # wins 10, median gain 4 within the spread
    assert close["claim"]["won_nine_in_ten"] and not close["claim"]["met"]
    eight = claim([115.0 + i for i in range(8)] + [100.0, 101.0])  # gain 13, but head better in 8 of 10
    assert eight["claim"]["head_wins"] == 8 and eight["claim"]["beat_spread"] and not eight["claim"]["met"]
    slower = ab.judge(spec, base, [{"throughput_ips": 70.0 + i, "setup_s": 1.0} for i in range(10)], None)
    assert slower["claim"] is None and slower["metrics"]["throughput_ips"]["worse_than_bound"]

"""Tests of the benchmark itself: corpora, gate, spans and output format.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from corpora import random_generators  # noqa: E402
from spans import NullTracer, Span, Tracer, self_time_by_name, self_times  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

NAMES = sorted(WORKLOADS)


@pytest.fixture(scope="module")
def m():
    return run.fresh_monores()


def tiny(name: str):
    """The workload at a small q, so one ideal takes milliseconds."""
    return dataclasses.replace(WORKLOADS[name], q=WORKLOADS[name].warmup_q, corpus_size=4)


@pytest.mark.parametrize("name", NAMES)
def test_corpus_is_a_function_of_the_seed(name, m):
    workload = WORKLOADS[name]
    first = workload.corpus(5, size=30)
    assert first == workload.corpus(5, size=30)
    assert [i.text for i in first] != [i.text for i in workload.corpus(6, size=30)]
    for item in first:
        ideal = m.cli.parse_ideal(item.text).ideal
        assert len(ideal) == len(item.generators)
        p = m.classify(ideal).p
        if item.kind == "dominant":
            assert p == 0
        elif item.kind == "semidominant":
            assert p == 1


def test_random_generators_match_the_library_sampler(m):
    for seed in (8, 10, 12):
        ideal = m.cli.random_ideal(random.Random(seed), 4, seed, 4)
        ours = random_generators(random.Random(seed), 4, seed, 4)
        assert tuple(g.exponents for g in ideal.generators) == ours


def run_tiny(name, m, tracer=None):
    workload = tiny(name)
    loop = run.Loop(workload, m, workload.corpus(1), None, tracer or NullTracer())
    for index, item in enumerate(loop.corpus):
        loop.one(index, item)
    return loop


@pytest.mark.parametrize("name", NAMES)
def test_tiny_corpus_passes_the_gate(name, m):
    loop = run_tiny(name, m, Tracer())
    assert loop.attempted == 4
    assert loop.failed == 0, loop.problems


@pytest.mark.parametrize("name", NAMES)
def test_negative_control_fails_the_gate(name):
    broken = run.fresh_monores()
    run.break_taylor(broken)
    loop = run_tiny(name, broken)
    assert loop.failed == loop.attempted == 4


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_matches_stored_digests(name, m):
    workload = WORKLOADS[name]
    expected = run.load_expected(workload, run.DEFAULT_SEED)
    for index, item in enumerate(workload.corpus(run.DEFAULT_SEED)[:2]):
        record, problems = workload.pipeline(m, item, NullTracer())
        assert not problems
        assert digest(record) == expected[index]


def test_a_changed_output_misses_the_digest(m):
    workload = WORKLOADS["cli-small"]
    expected = list(run.load_expected(workload, run.DEFAULT_SEED))
    expected[0] = "0" * 16
    loop = run.Loop(workload, m, workload.corpus(run.DEFAULT_SEED), expected, NullTracer())
    loop.one(0, loop.corpus[0])
    loop.one(1, loop.corpus[1])
    assert loop.failed == 1 and "stored digest" in loop.problems[0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "a"),
        Span(1, "child", 1.0, 4.0, 0, "a"),
        Span(2, "child", 3.0, 6.0, 0, "a"),  # overlaps its sibling
        Span(3, "leaf", 2.0, 3.0, 1, "a"),
        Span(4, "child", 9.0, 12.0, 0, "a"),  # runs past its parent
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    assert self_time_by_name(spans) == {"root": 4.0, "child": 8.0, "leaf": 1.0}


def test_tracer_nests_spans_and_self_times_add_up():
    tr = Tracer()
    tr.ideal = "7"
    with tr.span("outer"):
        tr.call("inner", sum, [1, 2])
        tr.call("inner", sum, [3])
    outer = next(s for s in tr.spans if s.name == "outer")
    assert all(s.parent == outer.id and s.ideal == "7" for s in tr.spans if s.name == "inner")
    assert sum(self_times(tr.spans).values()) == pytest.approx(outer.end - outer.start)


def test_tail_keeps_ten_samples_beyond_and_never_drops_below_the_median():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
    assert run.tail([float(i) for i in range(1, 13)]) == (6.0, 50.0)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        name: w.why for name, w in WORKLOADS.items()
    }.items()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_on_its_last_line(trace):
    done = bench("--workload", "cli-small", "--seed", "4", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_negative_control_drives_failed_frac_above_zero():
    done = bench("--workload", "cli-small", "--seconds", "1", "--negative-control")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_without_the_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = bench("--workload", "cli-small", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

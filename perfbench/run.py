"""Closed-loop benchmark of the monores pipeline: one client, one process.

    python3 perfbench/run.py --workload generic-verify --seed 0 --seconds 60 --trace 0

Run from the repository root; monores is imported from ./src. The loop
sends the seeded corpus one ideal at a time, as text, through the
workload's pipeline until --seconds have passed, checking every answer.
A failed check, an exception or a non-zero CLI exit counts the ideal as
failed, and the run goes on. Set-up (fresh import of monores, corpus
generation from the seed, warm-up on fixed small ideals) runs
SETUP_REPEATS times, spread evenly over the measured window, and its
median is setup_s.

With --trace 0 the last line carries the end-to-end metrics. With
--trace 1 every ideal runs twice, untraced and traced, and the last line
carries the per-layer metrics (sums over the traced runs); the spans go
to perfbench/out/. --negative-control drops one entry from every Taylor
differential d1 so that the gate must report failures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected"
OUT = HERE / "out"

from corpora import Item, ideal_text, random_generators, variable_names  # noqa: E402
from spans import NullTracer, Tracer, self_time_by_name  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
TAIL_CAP = 0.90  # the tail percentile, unless fewer than ten samples lie beyond it

END_TO_END_UNITS = {
    "ideal_s_p50": "s",
    "ideal_s_tail": "s",
    "ideals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SPAN_METRICS = (
    "cli.parse_ideal",
    "cli.main",
    "dominance.classify",
    "taylor.build_taylor",
    "taylor.lcm_lattice",
    "cancellation.minimize_generic",
    "cancellation.eliminate",
    "cancellation.check_theorem71_hypothesis",
    "verify.compose_check",
    "verify.strand_exactness.taylor",
    "verify.strand_exactness.minimal",
    "verify.minimality_check",
    "invariants.closed_form",
    "invariants.from_resolution",
    "invariants.scarf_complex",
    "invariants.scarf_face_counts",
    "invariants.is_scarf",
)

COUNT_METRICS = {
    "bench.ideals": "count",
    "cli.main.calls": "count",
    "cli.json_bytes": "bytes",
    "taylor.faces": "count",
    "taylor.nnz": "count",
    "taylor.build_taylor.peak_mb": "MB",
    "cancellation.minimize_generic.cancellations": "count",
    "cancellation.minimize_generic.s_per_cancel": "s",
    "cancellation.eliminate.cancellations": "count",
    "cancellation.eliminate.stuck": "count",
    "cancellation.t71.violations": "count",
    "verify.strands": "count",
    "verify.strand_dim_max": "count",
    "verify.nontrivial_strand_frac": "fraction",
}

PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SPAN_METRICS},
    "bench.residual.self_s": "s",
    **COUNT_METRICS,
}

# The ROADMAP baseline rows: random_ideal over 4 variables with maximum
# exponent 4, seeded by q. Seconds per stage and the cancellations.
ROADMAP_Q8 = {
    "taylor.build_taylor": 0.008,
    "cancellation.minimize_generic": 0.046,
    "verify.strand_exactness.taylor": 0.07,
    "verify.strand_exactness.minimal": 0.01,
    "cancellations": 111,
}
ROADMAP_Q10 = {
    "taylor.build_taylor": 0.04,
    "cancellation.minimize_generic": 1.1,
    "verify.strand_exactness.taylor": 1.5,
    "verify.strand_exactness.minimal": 0.01,
    "cancellations": 493,
}


class BenchError(Exception):
    pass


def fresh_monores() -> ModuleType:
    """Import monores from ./src anew, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "monores" or n.startswith("monores.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        m = importlib.import_module("monores")
        importlib.import_module("monores.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import monores from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(m.__file__).resolve().parents:
        raise BenchError(f"monores was imported from {m.__file__}, not from {SRC}")
    return m


def break_taylor(m: ModuleType) -> None:
    """Negative control: every Taylor complex loses the d1 entry of generator 0.

    No cancellation can remove that face or rewrite that column, so the
    damage survives into every resolution the pipelines check.
    """
    build = m.build_taylor

    def broken(ideal):
        res = build(ideal)
        del res.diffs[1].entries[(0, 0)]
        return res

    m.build_taylor = broken
    m.cli.build_taylor = broken


def setup(workload, seed: int, negative_control: bool):
    m = fresh_monores()
    if negative_control:
        break_taylor(m)
    corpus = workload.corpus(seed)
    for item in workload.warmup_items():
        try:
            workload.pipeline(m, item, NullTracer())
        except Exception:  # the measured loop reports failures; warm-up only warms
            pass
    return m, corpus


def load_expected(workload, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED:
        return None
    path = EXPECTED / f"{workload.name}.json"
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise BenchError(f"cannot read the expected digests {path}: {exc}") from exc
    if data.get("seed") != DEFAULT_SEED or len(data.get("digests", ())) != workload.corpus_size:
        raise BenchError(f"{path} does not match the corpus of seed {DEFAULT_SEED}")
    return data["digests"]


class Loop:
    """Runs ideals through a pipeline and keeps per-ideal outcomes."""

    def __init__(self, workload, m, corpus, expected, tracer) -> None:
        self.workload = workload
        self.m = m
        self.corpus = corpus
        self.expected = expected
        self.tracer = tracer
        self.durations: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def one(self, index: int, item) -> None:
        tr = self.tracer
        tr.ideal = str(index)
        t0 = time.perf_counter()
        with tr.span("bench.ideal"):
            try:
                record, problems = self.workload.pipeline(self.m, item, tr)
            except Exception as exc:  # a raising ideal is a failed ideal
                record, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            if not problems and self.expected is not None:
                if digest(record) != self.expected[index % len(self.expected)]:
                    problems = ["outputs differ from the stored digest"]
        self.durations.append(time.perf_counter() - t0)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"ideal {index} [{item.text}]: {problems[0]}")
        elif tr.on:
            tr.add("bench.ideals", 1)
        tr.run_deferred()

    def run_for(self, seconds: float) -> float:
        """Continue through the corpus for `seconds`; returns the time taken."""
        start = time.perf_counter()
        while True:
            index = self.attempted
            self.one(index, self.corpus[index % len(self.corpus)])
            now = time.perf_counter()
            if now - start >= seconds:
                return now - start

    @property
    def attempted(self) -> int:
        return len(self.durations)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile): the cap percentile, lowered until ten samples lie
    beyond it, but never below the median."""
    ordered = sorted(durations)
    n = len(ordered)
    k = max(min(math.ceil(TAIL_CAP * n) - 1, n - 11), math.ceil(n / 2) - 1)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(loop: Loop, elapsed: float, setups: list[float]) -> dict[str, float]:
    tail_value, _ = tail(loop.durations)
    return {
        "ideal_s_p50": statistics.median(loop.durations),
        "ideal_s_tail": tail_value,
        "ideals_per_s": (loop.attempted - loop.failed) / elapsed,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer) -> dict[str, float]:
    selfs = self_time_by_name(tracer.spans)
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in SPAN_METRICS}
    out["bench.residual.self_s"] = selfs.get("bench.ideal", 0.0)
    for name in COUNT_METRICS:
        out[name] = tracer.maxima.get(name, tracer.counts.get(name, 0.0))
    cancels = out["cancellation.minimize_generic.cancellations"]
    out["cancellation.minimize_generic.s_per_cancel"] = (
        out["cancellation.minimize_generic.self_s"] / cancels if cancels else 0.0
    )
    strands = tracer.counts.get("verify.strands", 0.0)
    out["verify.nontrivial_strand_frac"] = (
        tracer.counts.get("verify.nontrivial_strands", 0.0) / strands if strands else 0.0
    )
    return out


def per_ideal_stage_medians(tracer: Tracer) -> dict[str, float]:
    per_ideal: dict[tuple[str, str], float] = {}
    for s in tracer.spans:
        key = (s.ideal, s.name)
        per_ideal[key] = per_ideal.get(key, 0.0) + (s.end - s.start)
    stages: dict[str, list[float]] = {}
    for (_ideal, name), value in per_ideal.items():
        stages.setdefault(name, []).append(value)
    return {name: statistics.median(values) for name, values in stages.items()}


def roadmap_probe(workload, m) -> tuple[dict[str, float], list[str]]:
    """The ROADMAP q = 10 ideal through the generic-verify pipeline, traced."""
    gens = random_generators(random.Random(10), 4, 10, 4)
    names = variable_names(4)
    item = Item(ideal_text(names, gens), gens, names, "random", 0)
    tr = Tracer()
    tr.ideal = "roadmap-q10"
    with tr.span("bench.ideal"):
        record, problems = workload.pipeline(m, item, tr)
    stages = per_ideal_stage_medians(tr)
    row = {name: stages.get(name, 0.0) for name in ROADMAP_Q10 if name != "cancellations"}
    row["cancellations"] = len(record["trail"])
    if row["cancellations"] != ROADMAP_Q10["cancellations"]:
        problems.append(
            f"ROADMAP q=10 ideal took {row['cancellations']} cancellations,"
            f" not {ROADMAP_Q10['cancellations']}"
        )
    return row, problems


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_plain(workload, args, expected):
    """Set-ups spread over the measured window, so setup_s sees the same
    machine as the ideals; the loop time excludes them."""
    setups: list[float] = []
    loop = None
    elapsed = 0.0
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        m, corpus = setup(workload, args.seed, args.negative_control)
        setups.append(time.perf_counter() - t0)
        if loop is None:
            loop = Loop(workload, m, corpus, expected, NullTracer())
        loop.m = m
        elapsed += loop.run_for(args.seconds / SETUP_REPEATS)
    metrics = end_to_end(loop, elapsed, setups)
    _, tail_pct = tail(loop.durations)
    n = loop.attempted
    notes = {
        "ideal_s_p50": f"median of n={n}",
        "ideal_s_tail": f"p{tail_pct:.1f} of n={n}",
        "ideals_per_s": f"{n - loop.failed} verified in {elapsed:.2f} s",
        "setup_s": f"median of {SETUP_REPEATS}",
        "peak_rss_mb": "ru_maxrss",
    }
    for name, value in metrics.items():
        print(f"  {name:14s} {fmt(value):>12s} {END_TO_END_UNITS[name]:4s} ({notes[name]})")
    return metrics, END_TO_END_UNITS, n, loop.failed, loop.problems


def run_traced(workload, args, expected):
    """Each ideal runs untraced and traced back to back, in alternating
    order, so the overhead compares the same ideals at the same time."""
    m, corpus = setup(workload, args.seed, args.negative_control)
    tracer = Tracer()
    plain = Loop(workload, m, corpus, expected, NullTracer())
    traced = Loop(workload, m, corpus, expected, tracer)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        index = plain.attempted
        item = corpus[index % len(corpus)]
        for loop in (plain, traced) if index % 2 == 0 else (traced, plain):
            loop.one(index, item)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    problems = plain.problems + traced.problems

    p50_plain = statistics.median(plain.durations)
    p50_traced = statistics.median(traced.durations)
    print(f"tracing overhead: ideal_s_p50 traced {fmt(p50_traced)} s vs untraced"
          f" {fmt(p50_plain)} s over the same {plain.attempted} ideals"
          f" ({100 * (p50_traced / p50_plain - 1):+.1f}%)")
    metrics = per_layer(tracer)
    total = sum(s.end - s.start for s in tracer.spans if s.name == "bench.ideal")
    print(f"per-layer metrics over {traced.attempted} traced ideals ({fmt(total)} s):")
    for name, value in metrics.items():
        share = f"{100 * value / total:5.1f}%" if name.endswith(".self_s") else ""
        print(f"  {name:45s} {fmt(value):>12s} {PER_LAYER_UNITS[name]:8s} {share}")

    if workload.name == "generic-verify":
        stages = per_ideal_stage_medians(tracer)
        ideals = metrics["bench.ideals"] or 1
        print(f"per-ideal medians at q={workload.q} vs the ROADMAP row for q=8 (other ideals):")
        for name, ref in ROADMAP_Q8.items():
            value = (metrics["cancellation.minimize_generic.cancellations"] / ideals
                     if name == "cancellations" else stages.get(name, 0.0))
            print(f"  {name:35s} {fmt(value):>10s} vs {ref} (x{value / ref:.2f})")
        row, probe_problems = roadmap_probe(workload, m)
        attempted += 1
        if probe_problems:
            failed += 1
            problems += [f"ROADMAP ideal: {p}" for p in probe_problems]
        print("the ROADMAP q=10 ideal itself vs its ROADMAP row:")
        for name, value in row.items():
            ref = ROADMAP_Q10[name]
            print(f"  {name:35s} {fmt(value):>10s} vs {ref} (x{value / ref:.2f})")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    print(f"spans written to {trace_path.relative_to(HERE.parent)}")
    return metrics, PER_LAYER_UNITS, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    print(f"workload {workload.name}: {workload.why}")
    try:
        expected = load_expected(workload, args.seed)
        print(f"seed {args.seed}, output digests "
              f"{'checked' if expected is not None else 'not stored for this seed'}")
        run = run_traced if args.trace else run_plain
        metrics, units, attempted, failed, problems = run(workload, args, expected)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for line in problems:
        print(f"FAILED {line}")
    print(f"  failed_frac    {fmt(failed / attempted):>12s}      ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

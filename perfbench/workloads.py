"""The four workloads: corpus, pipeline through the public API, and checks.

A pipeline takes the library namespace `m` (the `monores` package with
its `cli` module as `m.cli`), one corpus item and a tracer. It returns a
record of the outputs, which is digested and compared with the stored
expectation for the default seed, and a list of problems found by the
per-ideal oracles. An empty list means the ideal passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable

from corpora import Item, closed_form_corpus, random_corpus


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    q: int
    corpus_size: int
    warmup_q: int
    generate: Callable[[str, int, int], list[Item]]  # (seed key, size, q)
    pipeline: Callable

    def corpus(self, seed: int, size: int | None = None, q: int | None = None) -> list[Item]:
        return self.generate(
            f"{self.name}:{seed}",
            self.corpus_size if size is None else size,
            self.q if q is None else q,
        )

    def warmup_items(self) -> list[Item]:
        """Fixed small ideals that run every code path of the pipeline."""
        return self.corpus(seed=-1, size=3, q=self.warmup_q)


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Shared checks


def _parse(m, item: Item, tr, problems: list[str]):
    spec = tr.call("cli.parse_ideal", m.cli.parse_ideal, item.text)
    ideal = spec.ideal
    parsed = sorted(
        sorted((n, e) for n, e in zip(ideal.vars.names, g.exponents) if e)
        for g in ideal.generators
    )
    wanted = sorted(sorted(d.items()) for d in item.generator_dicts())
    if parsed != wanted or spec.warnings:
        problems.append("parse_ideal changed the generators")
    return ideal


def _build(m, ideal, tr, problems: list[str]):
    taylor = tr.call("taylor.build_taylor", m.build_taylor, ideal)
    q = len(ideal)
    if taylor.ranks() != tuple(comb(q, i) for i in range(q + 1)):
        problems.append("Taylor ranks are not binomial")
    if tr.on:
        tr.add("taylor.faces", sum(taylor.ranks()))
        tr.add("taylor.nnz", sum(d.nnz() for d in taylor.diffs[1:]))
        tr.defer(lambda: tr.peak("taylor.build_taylor.peak_mb", traced_build_peak_mb(m, ideal)))
    return taylor


def _strands(m, res, ideal, label: str, tr, problems: list[str]) -> None:
    reports = tr.call(f"verify.strand_exactness.{label}", m.strand_exactness, res, ideal)
    if not reports or not all(r.exact for r in reports):
        problems.append(f"{label} resolution has an inexact strand")
    if tr.on:
        tr.add("verify.strands", len(reports))
        tr.add(
            "verify.nontrivial_strands",
            sum(
                1
                for r in reports
                if any(min(a, b) >= 2 for a, b in zip(r.dims, r.dims[1:]))
            ),
        )
        tr.peak("verify.strand_dim_max", max((max(r.dims) for r in reports), default=0))


def _compose(m, res, label: str, tr, problems: list[str]) -> None:
    if not tr.call("verify.compose_check", m.compose_check, res):
        problems.append(f"{label} resolution fails d∘d = 0")


def _trail(res) -> list:
    return [[list(e.sigma.members), list(e.tau.members)] for e in res.trail]


def _strip(values) -> list[int]:
    out = list(values)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _betti_pd_reg(res) -> dict:
    ranks = _strip(res.ranks())
    reg = max(f.mdeg.total_degree() - f.hdeg for f in res.iter_faces())
    return {"betti": ranks, "pd": len(ranks) - 1, "reg": reg}


def _euler(ranks) -> int:
    return sum((-1) ** i * r for i, r in enumerate(ranks))


# ---------------------------------------------------------------------------
# Pipelines


def generic_verify(m, item: Item, tr):
    """parse → classify → build_taylor → minimize_generic → oracles on both."""
    problems: list[str] = []
    ideal = _parse(m, item, tr, problems)
    report = tr.call("dominance.classify", m.classify, ideal)
    taylor = _build(m, ideal, tr, problems)
    minimal = tr.call("cancellation.minimize_generic", m.minimize_generic, taylor)
    if tr.on:
        tr.add("cancellation.minimize_generic.cancellations", len(minimal.trail))
    for label, res in (("taylor", taylor), ("minimal", minimal)):
        _compose(m, res, label, tr, problems)
        _strands(m, res, ideal, label, tr, problems)
        is_minimal = tr.call("verify.minimality_check", m.minimality_check, res)
        if is_minimal != (label == "minimal" or report.p == 0):
            problems.append(f"minimality_check is {is_minimal} on the {label} resolution")
    removed = sum(taylor.ranks()) - sum(minimal.ranks())
    if removed != 2 * len(minimal.trail) or _euler(minimal.ranks()) != 0:
        problems.append("cancellations do not account for the rank drop")
    invariants = _betti_pd_reg(minimal)
    if invariants["betti"][:2] != [1, len(ideal)]:
        problems.append("minimal resolution does not start 1, q")
    record = {"trail": _trail(minimal), "p": report.p, **invariants}
    return record, problems


def closed_form(m, item: Item, tr):
    """Facet elimination under two strategies, checked against closed forms."""
    problems: list[str] = []
    ideal = _parse(m, item, tr, problems)
    report = tr.call("dominance.classify", m.classify, ideal)
    if report.p != (0 if item.kind == "dominant" else 1):
        problems.append(f"classify gave p={report.p} for a {item.kind} ideal")
        return {}, problems
    taylor = _build(m, ideal, tr, problems)
    det = tr.call("cancellation.eliminate", m.eliminate_face_facet_pairs, taylor, m.Deterministic())
    rnd = tr.call(
        "cancellation.eliminate", m.eliminate_face_facet_pairs, taylor, m.SeededRandom(item.salt)
    )
    if tr.on:
        tr.add("cancellation.eliminate.cancellations", len(det.resolution.trail) + len(rnd.resolution.trail))
        tr.add("cancellation.eliminate.stuck", (det.status == "stuck") + (rnd.status == "stuck"))
    if det.status != "completed" or rnd.status != "completed":
        problems.append("face/facet elimination got stuck")
    survivors = [sorted(f.members for f in o.resolution.iter_faces()) for o in (det, rnd)]
    if survivors[0] != survivors[1]:
        problems.append("elimination depends on the order")
    closed_fn = m.betti_dominant if item.kind == "dominant" else m.invariants_semidominant
    closed = tr.call("invariants.closed_form", closed_fn, ideal)
    derived = tr.call("invariants.from_resolution", m.invariants_from_resolution, det.resolution)
    if (closed.betti, closed.pd, closed.reg) != (derived.betti, derived.pd, derived.reg):
        problems.append("closed form disagrees with the eliminated resolution")
    _compose(m, det.resolution, "eliminated", tr, problems)
    _strands(m, det.resolution, ideal, "minimal", tr, problems)
    record = {
        "ranks": list(det.resolution.ranks()),
        "trail": _trail(det.resolution),
        "random_trail": _trail(rnd.resolution),
        "betti": list(closed.betti),
        "pd": closed.pd,
        "reg": closed.reg,
    }
    return record, problems


def taylor_scale(m, item: Item, tr):
    """The taylor, scarf and t71-check paths: no pivot loop."""
    problems: list[str] = []
    ideal = _parse(m, item, tr, problems)
    report = tr.call("dominance.classify", m.classify, ideal)
    taylor = _build(m, ideal, tr, problems)
    _compose(m, taylor, "taylor", tr, problems)
    if tr.call("verify.minimality_check", m.minimality_check, taylor) != (report.p == 0):
        problems.append("Taylor minimality disagrees with dominance")
    mdeg_counts = Counter(f.mdeg.exponents for f in taylor.iter_faces())
    lattice = tr.call("taylor.lcm_lattice", m.lcm_lattice, ideal)
    if len(lattice.monomials) != len(mdeg_counts) or lattice.is_boolean != (
        len(mdeg_counts) == 2 ** len(ideal)
    ):
        problems.append("lcm lattice disagrees with the Taylor multidegrees")
    scarf = tr.call("invariants.scarf_complex", m.scarf_complex, ideal)
    counts = tr.call("invariants.scarf_face_counts", m.scarf_face_counts, ideal)
    unique = sorted(f.members for f in taylor.iter_faces() if mdeg_counts[f.mdeg.exponents] == 1)
    by_degree = [0] * (len(ideal) + 1)
    for f in scarf:
        by_degree[f.hdeg] += 1
    if sorted(f.members for f in scarf) != unique or list(counts) != _strip(by_degree):
        problems.append("Scarf complex disagrees with the unique Taylor multidegrees")
    t71 = tr.call(
        "cancellation.check_theorem71_hypothesis", m.check_theorem71_hypothesis, ideal
    )
    if tr.on:
        tr.add("cancellation.t71.violations", len(t71.violations))
    if t71.holds == bool(t71.violations) or not all(
        tau.is_facet_of(sigma) and other.is_facet_of(sigma) and tau != other
        and tau.mdeg == sigma.mdeg == other.mdeg
        for tau, sigma, other in t71.violations
    ):
        problems.append("t71 report is inconsistent")
    record = {
        "p": report.p,
        "lattice": len(lattice.monomials),
        "scarf_counts": list(counts),
        "t71_holds": t71.holds,
        "t71_violations": len(t71.violations),
    }
    return record, problems


CLI_COMMANDS = (
    ("classify",),
    ("taylor", "--full"),
    ("minimize", "--generic"),
    ("scarf",),
    ("invariants",),
    ("verify",),
    ("t71-check",),
)


def cli_small(m, item: Item, tr):
    """All seven commands in-process with --json; the JSON is cross-checked."""
    problems: list[str] = []
    ideal = _parse(m, item, tr, problems)
    report = tr.call("dominance.classify", m.classify, ideal)
    scarf = tr.call("invariants.is_scarf", m.is_scarf, ideal)
    out: dict[str, dict] = {}
    texts: dict[str, str] = {}
    for command, *flags in CLI_COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = tr.call("cli.main", m.cli.main, [command, item.text, "--json", *flags])
        texts[command] = stdout.getvalue()
        if tr.on:
            tr.add("cli.main.calls", 1)
            tr.add("cli.json_bytes", len(texts[command].encode()))
        if code != 0:
            problems.append(f"{command} exited {code}: {stderr.getvalue().strip()}")
            continue
        data = json.loads(texts[command])
        if data.get("schema") != 1 or data.get("command") != command:
            problems.append(f"{command} JSON has the wrong schema or command")
        out[command] = data
    if problems:
        return {"json": texts}, problems

    q = len(ideal)
    betti = _strip(out["minimize"]["generic_phase"]["ranks"])
    checks = {
        "classify": out["classify"]["p"] == report.p,
        "taylor": out["taylor"]["ranks"] == [comb(q, i) for i in range(q + 1)]
        and [len(d["entries"]) for d in out["taylor"]["differentials"][1:]]
        == [j * comb(q, j) for j in range(1, q + 1)],
        "minimize": sum(out["taylor"]["ranks"]) - sum(out["minimize"]["ranks"])
        == 2 * len(out["minimize"]["trail"]),
        "scarf": out["scarf"]["is_scarf"] == scarf
        and scarf == (out["scarf"]["counts"] == betti),
        "invariants": out["invariants"]["betti"] == betti
        and out["invariants"]["pd"] == len(betti) - 1,
        "verify": all(
            out["verify"][part][key]
            for part in ("taylor", "minimized")
            for key in ("compose", "strands_exact")
        )
        and out["verify"]["minimized"]["minimal"]
        and out["verify"]["minimized"]["ranks"] == out["minimize"]["generic_phase"]["ranks"],
        "t71-check": out["t71-check"]["holds"] == (not out["t71-check"]["violations"]),
    }
    problems.extend(f"{name} JSON fails its cross-check" for name, ok in checks.items() if not ok)
    return {"json": texts}, problems


def traced_build_peak_mb(m, ideal) -> float:
    """Peak traced allocation of one extra build_taylor call, in MB."""
    tracemalloc.start()
    try:
        m.build_taylor(ideal)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "generic-verify",
            "random ideals, 4 variables, exponents <= 4, q = 8: minimize_generic and the Taylor strand check hold most of the time",
            q=8, corpus_size=400, warmup_q=5,
            generate=partial(random_corpus, n_vars=4, max_exp=4), pipeline=generic_verify,
        ),
        Workload(
            "closed-form",
            "semidominant (q = 8) and dominant (q = 7) ideals over 7 variables: facet elimination, closed forms, minimal strands; no minimize_generic",
            q=8, corpus_size=400, warmup_q=4,
            generate=partial(closed_form_corpus, cap=3), pipeline=closed_form,
        ),
        Workload(
            "taylor-scale",
            "random ideals, 5 variables, exponents <= 4, q = 9: Taylor build, d∘d, lcm lattice, Scarf and t71 bitmasks; no cancellation",
            q=9, corpus_size=300, warmup_q=5,
            generate=partial(random_corpus, n_vars=5, max_exp=4), pipeline=taylor_scale,
        ),
        Workload(
            "cli-small",
            "random ideals, 4 variables, exponents <= 3, q = 6, through all seven CLI commands with --json: per-call overhead",
            q=6, corpus_size=500, warmup_q=4,
            generate=partial(random_corpus, n_vars=4, max_exp=3), pipeline=cli_small,
        ),
    )
}

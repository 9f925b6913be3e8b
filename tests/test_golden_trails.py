"""Golden cancellation trails on a fixed corpus.

The Deterministic and random:<seed> face/facet eliminators, a scripted
run that gets stuck, and minimize_generic must reproduce the recorded
trails, statuses, stuck witnesses and ranks exactly. The corpus is stored
as ideal text next to the records, so the test does not depend on the
random ideal generators staying stable.

Re-record, only when a change of trail is intended, with

    PYTHONPATH=src python tests/test_golden_trails.py
"""

import json
import random
from pathlib import Path

import pytest

from monores.cancellation import (
    Deterministic,
    Scripted,
    SeededRandom,
    eliminate_face_facet_pairs,
    minimize_generic,
)
from monores.cli import parse_ideal, random_ideal, random_ideal_of_class
from monores.taylor import build_taylor

GOLDEN = Path(__file__).with_name("golden_trails.json")
RANDOM_SEEDS = (3, 11)
STUCK_IDEAL = "x^2y^2z^2, xw^2, yw^2, zw"
STUCK_SCRIPT = [[[0, 1, 2, 3], [0, 1, 3]], [[0, 1, 2], [0, 2]]]


def corpus() -> list[str]:
    rng = random.Random(20261018)
    texts = [str(random_ideal(rng, 4, q, 3)) for q in (4, 5, 5, 6, 6, 7)]
    texts += [
        str(random_ideal_of_class(rng, 5, q, 3, cls))
        for q, cls in ((5, "semi1"), (6, "semi1"), (6, "semi2"), (5, "dominant"))
    ]
    return texts + [STUCK_IDEAL]


def trail_record(res) -> dict:
    return {
        "ranks": list(res.ranks()),
        "trail": [
            f"{list(e.sigma.members)} {list(e.tau.members)} {e.pivot_scalar}"
            f" {e.strategy_tag}"
            for e in res.trail
        ],
    }


def outcome_record(outcome) -> dict:
    witness = outcome.stuck_witness
    return {
        "status": outcome.status,
        "witness": None if witness is None else [list(f.members) for f in witness],
        **trail_record(outcome.resolution),
    }


def ideal_records(text: str) -> dict:
    taylor = build_taylor(parse_ideal(text).ideal)
    runs = {"deterministic": outcome_record(eliminate_face_facet_pairs(taylor))}
    for seed in RANDOM_SEEDS:
        runs[f"random:{seed}"] = outcome_record(
            eliminate_face_facet_pairs(taylor, SeededRandom(seed))
        )
    if text == STUCK_IDEAL:
        stuck = eliminate_face_facet_pairs(taylor, Scripted(STUCK_SCRIPT))
        runs["script"] = outcome_record(stuck)
        runs["script+generic"] = trail_record(minimize_generic(stuck.resolution))
    runs["generic"] = trail_record(minimize_generic(taylor))
    return runs


def record() -> dict:
    return {text: ideal_records(text) for text in corpus()}


# Absent only while recording; the coverage test below then fails.
GOLDEN_RECORDS = (
    json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
)


@pytest.mark.parametrize("text", sorted(GOLDEN_RECORDS))
def test_trails_match_golden(text):
    assert ideal_records(text) == GOLDEN_RECORDS[text]


def test_golden_corpus_covers_every_path():
    assert len(GOLDEN_RECORDS) == len(corpus())
    runs = [run for ideal in GOLDEN_RECORDS.values() for run in ideal.values()]
    assert any(run.get("status") == "stuck" for run in runs)
    assert any(
        run["trail"] and run["trail"][0].endswith(" generic") for run in runs
    )
    assert all(len(ideal) >= 4 for ideal in GOLDEN_RECORDS.values())


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

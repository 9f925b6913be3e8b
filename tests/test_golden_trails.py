"""Golden cancellation trails on a fixed corpus.

The Deterministic and random:<seed> face/facet eliminators, a scripted
run that gets stuck, and minimize_generic must reproduce the recorded
trails, statuses, stuck witnesses and ranks exactly. The corpus is stored
as ideal text next to the records, so the test does not depend on the
random ideal generators staying stable.

Re-record, only when a change of trail is intended, with

    PYTHONPATH=src python tests/test_golden_trails.py
"""

import hashlib
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
from monores.dominance import random_ideal_of_class
from monores.monomials import parse_ideal, random_ideal
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



# The ROADMAP q = 12 ideal, random_ideal(random.Random(12), 4, 12, 4), with
# the count, ranks and status of three of its runs and the SHA-256 of their
# trail lines (the trail_record format joined by newlines). The records pin
# the pivot order at a size the small corpus above does not reach; running
# this file as a script does not rewrite them.
AT_SIZE_IDEAL = (
    "x^3*y^2*z^4*w^2, x*y^3*w^2, x^3*y^2*z^3*w^4, x*y^3*z^2*w, x^4*y*w^3,"
    " x^4*z^3*w^4, x^4*y^3*z^4, y^4*w, x^4*z^4*w, x^4*y^4*z, x^2*y^2*z^4*w^3,"
    " x^4*y^2*z^3*w"
)
AT_SIZE_RECORDS = {
    "generic": (
        2026,
        [1, 12, 20, 10, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        None,
        "9ca7358f1cfbc55dbb01e66fe5307d30454c1c53fabe534e5fc10e94d729fca4",
    ),
    "deterministic": (
        2026,
        [1, 12, 20, 10, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        "completed",
        "b8d5136e8739cae89f7fcf3e2801e7970d221b4045f07d09cea68c9089b32f44",
    ),
    "random:3": (
        1867,
        [1, 12, 23, 24, 36, 76, 80, 51, 37, 18, 4, 0, 0],
        "stuck",
        "e0300f81372c6b62ae877b6f3f80b94fc9aa56cf2a161f4d626dc0a0a78d3f5f",
    ),
}
AT_SIZE_WITNESS = [[2, 4], [2, 5], [4, 5, 11]]


def test_trails_at_size_match_their_records():
    taylor = build_taylor(parse_ideal(AT_SIZE_IDEAL).ideal)
    det = eliminate_face_facet_pairs(taylor, Deterministic())
    shuffled = eliminate_face_facet_pairs(taylor, SeededRandom(3))
    runs = {
        "generic": (minimize_generic(taylor), None),
        "deterministic": (det.resolution, det.status),
        "random:3": (shuffled.resolution, shuffled.status),
    }
    for name, (res, status) in runs.items():
        lines = trail_record(res)["trail"]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), list(res.ranks()), status, digest) == AT_SIZE_RECORDS[name]
    assert [list(f.members) for f in shuffled.stuck_witness] == AT_SIZE_WITNESS


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

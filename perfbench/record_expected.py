"""Write the expected output digests of the default seed, one file per workload.

    python3 perfbench/record_expected.py [workload ...]

Runs every ideal of the default-seed corpus through its pipeline, refuses
to record if any per-ideal oracle fails, and writes
perfbench/expected/<workload>.json. Re-record only for a change that is
meant to alter outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, EXPECTED, fresh_monores
from spans import NullTracer
from workloads import WORKLOADS, digest


def main(names: list[str]) -> int:
    m = fresh_monores()
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        digests = []
        for item in workload.corpus(DEFAULT_SEED):
            record, problems = workload.pipeline(m, item, NullTracer())
            if problems:
                print(f"{name}: [{item.text}]: {problems}", file=sys.stderr)
                return 1
            digests.append(digest(record))
        EXPECTED.mkdir(exist_ok=True)
        with open(EXPECTED / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": DEFAULT_SEED, "digests": digests}, handle, indent=0)
            handle.write("\n")
        print(f"{name}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

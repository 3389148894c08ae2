#!/usr/bin/env python3
"""Record the reference outputs of every workload at the default seed.

Run from the root of a checkout whose outputs are known to be right:

    python3 bench/record_reference.py

It runs each job (full size and tiny) once with one worker and writes
``bench/reference.json``: sha256 digests of the simulate tables, and the
diagnostic statistics of exact-diag.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import OUT  # noqa: E402
from workloads import DEFAULT_SEED, TINY, WORKLOADS  # noqa: E402


def main() -> int:
    references = {}
    for suffix, table in (("", WORKLOADS), ("@tiny", TINY)):
        for name, workload in table.items():
            out = OUT / "reference" / f"{name}{suffix}"
            out.mkdir(parents=True, exist_ok=True)
            config = out / "config.json"
            config.write_text(json.dumps(workload.config(DEFAULT_SEED)), encoding="utf-8")
            outcome = workload.run(config, 1, out)
            problems = workload.checks(config, outcome)
            if problems:
                print(f"{name}{suffix}: {problems}", file=sys.stderr)
                return 1
            references[f"{name}{suffix}"] = workload.reference(outcome)
            print(f"recorded {name}{suffix}", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(references, indent=1, sort_keys=True)
                                          + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

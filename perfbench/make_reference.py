"""Record the reference per-interval series of each benchmark workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's cell at the reference seed through
``run_experiment`` (not the benchmark's own interval-stepped driver, so
the benchmark's check also proves the two agree) and writes
``perfbench/reference/<workload>.json``.  Re-record only for a change
that is meant to alter simulated behaviour, and say so with the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402
from repro.experiments import run_experiment  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or sorted(cells.WORKLOADS)
    for name in names:
        config = cells.WORKLOADS[name].config(cells.REFERENCE_SEED)
        result = run_experiment(config)
        path = cells.reference_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        head = json.dumps({
            "workload": name,
            "seed": cells.REFERENCE_SEED,
            "fields": list(cells.SERIES_FIELDS),
        })
        rows = ",\n".join(
            json.dumps(row) for row in cells.series_of(result.intervals)
        )
        # One interval per line, so a diff names the intervals that moved.
        path.write_text(f'{head[:-1]}, "series": [\n{rows}\n]}}\n')
        print(f"{path}: {len(result.intervals)} intervals")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

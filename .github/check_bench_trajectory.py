#!/usr/bin/env python3
"""Checks the committed benchmark trajectory against the benchmark's registry.

The root-level BENCH_<workload>.json files are appended by hand, one parent row and
one change row per PR. This fails unless, for every workload registered in
BENCHMARK.json, every row carries each registered end-to-end metric and a
`failed_share` of 0, the two rows of a PR were measured on the same inputs with
the same answers — equal `seed`, `seconds`, `stream_hash` and `probe_hash` — and no
change row is worse than its parent row by more than the metric's registered `bound`
in its registered `better` direction.
"""

import json
import sys
from pathlib import Path

SHARED_BY_A_PR = ("seed", "seconds", "stream_hash", "probe_hash")


def check(root: Path) -> list[str]:
    registry = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in registry["end_to_end"]}
    errors = []
    for workload in (w["name"] for w in registry["workloads"]):
        name = f"BENCH_{workload}.json"
        try:
            rows = json.loads((root / name).read_text())
        except (OSError, ValueError) as err:
            errors.append(f"{name}: {err}")
            continue
        by_pr = {}
        for number, row in enumerate(rows, 1):
            for metric in metrics:
                if not isinstance(row.get(metric), (int, float)):
                    errors.append(f"{name} row {number}: no numeric `{metric}`")
            if row.get("failed_share") != 0:
                errors.append(f"{name} row {number}: failed_share is {row.get('failed_share')!r}, not 0")
            by_pr.setdefault(row.get("pr"), []).append(row)
        for pr, group in by_pr.items():
            sides = sorted(str(row.get("side")) for row in group)
            if sides != ["change", "parent"]:
                errors.append(f"{name} PR {pr}: sides {sides}, want one parent and one change row")
            for key in SHARED_BY_A_PR:
                values = {json.dumps(row.get(key)) for row in group}
                if len(values) != 1 or values == {"null"}:
                    errors.append(f"{name} PR {pr}: parent and change differ in `{key}`: {sorted(values)}")
            if sides == ["change", "parent"]:
                side = {row["side"]: row for row in group}
                for metric, spec in metrics.items():
                    parent, change = side["parent"].get(metric), side["change"].get(metric)
                    if not all(isinstance(v, (int, float)) for v in (parent, change)) or parent <= 0:
                        continue  # reported above as not numeric; a zero base has no ratio
                    worse = (change - parent if spec["better"] == "lower" else parent - change) / parent
                    if worse > spec["bound"]:
                        errors.append(
                            f"{name} PR {pr}: `{metric}` is {worse:.1%} worse than its parent "
                            f"({parent} -> {change}), bound {spec['bound']:.0%}"
                        )
    return errors


if __name__ == "__main__":
    found = check(Path(__file__).resolve().parent.parent)
    for line in found:
        print(line, file=sys.stderr)
    print(f"benchmark trajectory: {len(found)} problem(s)")
    sys.exit(1 if found else 0)

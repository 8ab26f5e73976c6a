#!/usr/bin/env python3
"""Checks the committed benchmark trajectory against the benchmark's registry.

The root-level BENCH_<workload>.json files are appended by hand, one parent row and
one change row per PR and seed. This fails unless, for every workload registered in
BENCHMARK.json, every row carries each registered end-to-end metric and a
`failed_share` of 0, the two rows of a pair were measured on the same inputs with
the same answers — equal `seed`, `seconds`, `stream_hash` and `probe_hash` — and no
change row is worse than its parent row by more than the metric's registered `bound`
in its registered `better` direction. A pair may carry `"claim": "<metric>"` on both
rows — the gain the PR was merged for: the metric must be a registered end-to-end one
and the change row strictly better than its parent in the registered direction. The
per-layer fields a row may also carry (`PER_LAYER`) explain a pair's end-to-end move,
so a pair carries each on both rows or on neither, as a positive number.
"""

import json
import sys
from pathlib import Path

SHARED_BY_A_PAIR = ("seed", "seconds", "stream_hash", "probe_hash", "claim")
PER_LAYER = (
    "generate_ms",
    "fit_s",
    "cut_ms",
    "ingest_p50_ms",
    "recover_replay_s",
    "predict_p50_us",
    "recommend_p99_us",
    "node_recover_ms",
    "recover_compacted_ms",
)


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
        pairs = {}
        for number, row in enumerate(rows, 1):
            for metric in metrics:
                if not isinstance(row.get(metric), (int, float)):
                    errors.append(f"{name} row {number}: no numeric `{metric}`")
            if row.get("failed_share") != 0:
                errors.append(f"{name} row {number}: failed_share is {row.get('failed_share')!r}, not 0")
            pairs.setdefault((row.get("pr"), row.get("seed")), []).append(row)
        for (pr, seed), group in pairs.items():
            pair = f"{name} PR {pr} seed {seed}"
            sides = sorted(str(row.get("side")) for row in group)
            if sides != ["change", "parent"]:
                errors.append(f"{pair}: sides {sides}, want one parent and one change row")
            for key in SHARED_BY_A_PAIR:
                values = {json.dumps(row.get(key)) for row in group}
                if len(values) != 1 or (values == {"null"} and key != "claim"):
                    errors.append(f"{pair}: parent and change differ in `{key}`: {sorted(values)}")
            for field in PER_LAYER:
                values = [row[field] for row in group if field in row]
                if values and len(values) != len(group):
                    errors.append(f"{pair}: `{field}` is on one row of the pair only")
                for value in values:
                    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
                        errors.append(f"{pair}: `{field}` is {value!r}, not a positive number")
            claim = group[0].get("claim")
            if claim is not None and claim not in metrics:
                errors.append(f"{pair}: claims `{claim}`, not a registered end-to-end metric")
            if sides == ["change", "parent"]:
                side = {row["side"]: row for row in group}
                for metric, spec in metrics.items():
                    parent, change = side["parent"].get(metric), side["change"].get(metric)
                    if not all(isinstance(v, (int, float)) for v in (parent, change)) or parent <= 0:
                        continue  # reported above as not numeric; a zero base has no ratio
                    worse = (change - parent if spec["better"] == "lower" else parent - change) / parent
                    if worse > spec["bound"]:
                        errors.append(
                            f"{pair}: `{metric}` is {worse:.1%} worse than its parent "
                            f"({parent} -> {change}), bound {spec['bound']:.0%}"
                        )
                    if metric == claim and worse >= 0:
                        errors.append(
                            f"{pair}: claims `{metric}` but the change row is not better "
                            f"than its parent ({parent} -> {change})"
                        )
    return errors


if __name__ == "__main__":
    found = check(Path(__file__).resolve().parent.parent)
    for line in found:
        print(line, file=sys.stderr)
    print(f"benchmark trajectory: {len(found)} problem(s)")
    sys.exit(1 if found else 0)

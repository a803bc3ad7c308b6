"""CI gate: fail when a perf ratio regresses against the committed
trajectory.

Usage::

    python benchmarks/check_perf_regression.py BENCH_perf.json [--write]

``repro perf`` writes one ratio per gate: the reference side's time
over the optimized side's, both run interleaved on the same host, so
host speed cancels. For every gate in the committed
``perf_trajectory.json`` the fresh ratio must stay at or above 80 % of
the committed one; a committed gate missing from the report is a hard
error, so the gate can never silently stop gating. ``certifier_n400``
must also stay at or above an absolute 2.0x, a constant here that no
trajectory refresh can lower.

Refresh the trajectory deliberately, from a report whose ratios are
each gate's median over at least five ``repro perf`` runs::

    python benchmarks/check_perf_regression.py BENCH_perf.json --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent / "perf_trajectory.json"

#: /7: one ratio per named gate (``gates``) from a kspot-perf/8
#: report, in place of per-fleet-size samples and a certifier section.
TRAJECTORY_SCHEMA = "kspot-perf-trajectory/7"

#: A fresh ratio may fall this far below the committed one.
TOLERANCE = 0.20

#: Absolute floors, whatever the trajectory holds: incremental
#: certification stays at least 2x cold ``certify_top_k`` at 400 groups.
FLOORS = {"certifier_n400": 2.0}


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(f"error: {path} not found")
    except json.JSONDecodeError as error:
        sys.exit(f"error: {path} is not valid JSON: {error}")


def write_trajectory(report: dict, path: Path) -> None:
    trajectory = {
        "schema": TRAJECTORY_SCHEMA,
        "source_schema": report.get("schema"),
        "gates": {name: gate["ratio"]
                  for name, gate in report["gates"].items()},
    }
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="fresh BENCH_perf.json to check")
    parser.add_argument("--write", action="store_true",
                        help="refresh the trajectory from the report "
                             "instead of gating")
    args = parser.parse_args(argv)

    report = load(Path(args.report))
    if args.write:
        write_trajectory(report, TRAJECTORY)
        return 0

    committed = load(TRAJECTORY)["gates"]
    floors = {name: (1.0 - TOLERANCE) * ratio
              for name, ratio in committed.items()}
    for name, floor in FLOORS.items():
        floors[name] = max(floors.get(name, 0.0), floor)
    passed = True
    for name, floor in sorted(floors.items()):
        fresh = report.get("gates", {}).get(name)
        if fresh is None:
            sys.exit(f"error: report lacks the {name} gate")
        print(f"{name}: {fresh['ratio']:.2f}x (committed "
              f"{committed.get(name, float('nan')):.2f}x, "
              f"floor {floor:.2f}x)")
        if fresh["ratio"] < floor:
            print(f"FAIL: {name} fell below its floor")
            passed = False
    if not passed:
        return 1
    print("OK: every gate within the committed trajectory")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CI gate: fail when the hot path regresses against the committed
perf trajectory.

Usage::

    python benchmarks/check_perf_regression.py BENCH_perf.json \
        [--trajectory benchmarks/perf_trajectory.json] \
        [--at 100,400] [--tolerance 0.20]

The committed trajectory stores, per fleet size, the hot path's
epochs/sec and its speedup over the in-tree reference path, as measured
when the trajectory was last refreshed. Absolute epochs/sec are not
comparable across machines (a cold CI runner is easily 2× slower than
the laptop that wrote the file), so the gate is **machine-normalized**:
the fresh run's ``speedup_vs_reference`` at the gated fleet size must
not fall more than ``--tolerance`` (default 20 %) below the committed
speedup. Both runs execute on the same host within the same process,
so the ratio cancels host speed and isolates genuine hot-path
regressions. Absolute epochs/sec are printed for the record.

Refresh the trajectory deliberately with::

    PYTHONPATH=src python -m repro perf --compare-reference
    python benchmarks/check_perf_regression.py BENCH_perf.json --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TRAJECTORY = Path(__file__).resolve().parent / "perf_trajectory.json"

#: /4: the eventsim section (event-core throughput ratio over the
#: inline ship path at the anchor size).
#: /5: the eventsim section is gone with the event core it gated.
#: /6: the columnar section is gone with the hot scalar path it gated
#: the kernel against.
TRAJECTORY_SCHEMA = "kspot-perf-trajectory/6"


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(f"error: {path} not found")
    except json.JSONDecodeError as error:
        sys.exit(f"error: {path} is not valid JSON: {error}")


def sample_at(report: dict, n_nodes: int) -> dict:
    for sample in report.get("results", ()):
        if sample.get("n_nodes") == n_nodes:
            return sample
    sys.exit(f"error: report has no sample at N={n_nodes} "
             f"(sizes: {[s.get('n_nodes') for s in report.get('results', ())]})")


def write_trajectory(report: dict, path: Path) -> None:
    trajectory = {
        "schema": TRAJECTORY_SCHEMA,
        "source_schema": report.get("schema"),
        "workload": report.get("workload"),
        "results": [
            {
                "n_nodes": sample["n_nodes"],
                "epochs_per_sec": sample["epochs_per_sec"],
                "speedup_vs_reference": sample.get("speedup_vs_reference"),
            }
            for sample in report.get("results", ())
        ],
    }
    certifier = report.get("certifier")
    if certifier is not None:
        trajectory["certifier"] = {
            "n_groups": certifier["n_groups"],
            "speedup": certifier["speedup"],
        }
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


def gate_at(report: dict, trajectory: dict, n_nodes: int,
            tolerance: float) -> bool:
    """Gate one fleet size; returns True when it passes.

    A size absent from the committed trajectory is skipped with a note
    (the trajectory predates it — refresh with ``--write``); a gated
    size absent from the fresh *report* is a hard error, so the gate
    can never silently stop gating.
    """
    committed = None
    for sample in trajectory.get("results", ()):
        if sample.get("n_nodes") == n_nodes:
            committed = sample
            break
    if committed is None:
        print(f"N={n_nodes}: not in the committed trajectory — "
              f"skipped (refresh with --write to start gating it)")
        return True
    fresh = sample_at(report, n_nodes)

    fresh_speedup = fresh.get("speedup_vs_reference")
    committed_speedup = committed.get("speedup_vs_reference")
    print(f"N={n_nodes}: fresh {fresh['epochs_per_sec']:.2f} epochs/s "
          f"(committed {committed['epochs_per_sec']:.2f} on its host)")
    if fresh_speedup is None:
        sys.exit("error: report lacks speedup_vs_reference — run "
                 "`repro perf --compare-reference`")
    if committed_speedup is None:
        sys.exit("error: trajectory lacks speedup_vs_reference — refresh "
                 "it with --write from a --compare-reference run")

    floor = (1.0 - tolerance) * committed_speedup
    print(f"N={n_nodes}: speedup vs reference {fresh_speedup:.2f}x "
          f"(committed {committed_speedup:.2f}x, floor {floor:.2f}x)")
    if fresh_speedup < floor:
        print(f"FAIL: hot path regressed more than "
              f"{tolerance:.0%} against the committed trajectory "
              f"at N={n_nodes}")
        return False
    return True


def gate_certifier(report: dict, trajectory: dict,
                   tolerance: float) -> bool:
    """Gate the certifier microbench's cold-vs-incremental speedup.

    Mirrors :func:`gate_at`: absent from the committed trajectory →
    skipped with a note; present there but missing from the fresh
    report → hard error (the gate never silently stops gating). The
    speedup is machine-normalized by construction (both replays run
    interleaved on the same host over the same recorded stream).
    """
    committed = trajectory.get("certifier")
    if committed is None:
        print("certifier: not in the committed trajectory — "
              "skipped (refresh with --write to start gating it)")
        return True
    fresh = report.get("certifier")
    if fresh is None:
        sys.exit("error: report lacks the certifier section — run "
                 "a kspot-perf/3 `repro perf`")
    if fresh.get("n_groups") != committed.get("n_groups"):
        print(f"certifier: fresh run measured N={fresh.get('n_groups')} "
              f"groups, trajectory holds N={committed.get('n_groups')} — "
              f"skipped (size mismatch)")
        return True

    floor = (1.0 - tolerance) * committed["speedup"]
    print(f"certifier: incremental speedup {fresh['speedup']:.2f}x over "
          f"cold certify at N={fresh['n_groups']} "
          f"(committed {committed['speedup']:.2f}x, floor {floor:.2f}x)")
    if fresh["speedup"] < floor:
        print(f"FAIL: incremental certification regressed more than "
              f"{tolerance:.0%} against the committed trajectory")
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="fresh BENCH_perf.json to check")
    parser.add_argument("--trajectory", type=Path,
                        default=DEFAULT_TRAJECTORY)
    parser.add_argument("--at", default="100,400",
                        help="comma-separated fleet sizes the gate "
                             "inspects")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional speedup regression")
    parser.add_argument("--write", action="store_true",
                        help="refresh the trajectory from the report "
                             "instead of gating")
    args = parser.parse_args(argv)

    report = load(Path(args.report))
    if args.write:
        write_trajectory(report, args.trajectory)
        return 0

    trajectory = load(args.trajectory)
    try:
        sizes = [int(part) for part in str(args.at).split(",")]
    except ValueError:
        sys.exit(f"error: --at wants comma-separated integers, "
                 f"got {args.at!r}")

    passed = all([gate_at(report, trajectory, n, args.tolerance)
                  for n in sizes]
                 + [gate_certifier(report, trajectory, args.tolerance)])
    if not passed:
        return 1
    print("OK: hot path within the committed trajectory")
    return 0


if __name__ == "__main__":
    sys.exit(main())

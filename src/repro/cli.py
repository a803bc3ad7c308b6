"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo figure1`` / ``demo conference`` — the paper's two canned
  deployments, with answers and traffic printed;
* ``run`` — execute a query over a scenario configuration file;
* ``workload`` — run a file of mixed queries (MINT / TJA / TPUT /
  FILA classes) *concurrently* over one deployment on the shared
  epoch clock, with per-session and aggregate savings; several files
  are independent deployments, sharded across ``--jobs`` worker
  processes with fleet-wide savings merged across them;
* ``sweep`` — a parameter grid (fleet size × churn preset × query
  mix) of independent deployments, sharded across ``--jobs`` workers
  with deterministic per-cell seed derivation (results are identical
  for any worker count);
* ``scenario-init`` — write a template scenario file to edit;
* ``savings`` — a quick MINT-vs-TAG savings table for a grid
  deployment (the System Panel, in one shot).

``run`` and ``workload`` speak two output formats: the human tables
(default) and ``--format json`` — machine-readable per-session
results, traffic stats and recovery summaries for scripting.

Everything drives the layered :mod:`repro.api` facade: a
:class:`~repro.api.Deployment` owns the network and sessions, an
:class:`~repro.api.EpochDriver` (with a
:class:`~repro.api.ChurnIntervention` under ``--churn``) advances the
shared clock, and :class:`~repro.api.SessionHandle` accessors feed the
reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__
from .api import Deployment, EpochDriver, SessionHandle
from .errors import ConfigurationError, KSpotError
from .gui.render import render_table
from .gui.scenario import ScenarioConfig, load_scenario, save_scenario
from .gui.stats import SavingsSample, SystemPanel
from .parallel import (
    deployment_summary,
    run_sharded,
    run_sweep,
    shard_errors,
    sweep_grid,
)
from .query.plan import Algorithm, QueryClass
from .scenarios import (
    CHURN_PRESETS,
    Scenario,
    conference_scenario,
    figure1_scenario,
    grid_rooms_scenario,
)
from .sensing.generators import RoomField


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KSpot: in-network top-k query processing (ICDE 2009 "
                    "reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"kspot-repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a canned demo deployment")
    demo.add_argument("name", choices=("figure1", "conference"))
    demo.add_argument("--epochs", type=int, default=20)

    run = sub.add_parser("run", help="run a query over a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("query", help="the SQL-like query text")
    run.add_argument("--epochs", type=int, default=10)
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the synthetic field")
    run.add_argument("--algorithm",
                     choices=[a.value for a in Algorithm], default=None,
                     help="override the routed algorithm")
    _add_format_argument(run)
    _add_churn_arguments(run)

    workload = sub.add_parser(
        "workload",
        help="run one or more query files, each concurrently over its "
             "own deployment")
    workload.add_argument(
        "files", nargs="+", metavar="file",
        help="query file(s): one query per line; '#' comments and "
             "blank lines ignored; an 'algorithm:' prefix (e.g. "
             "'fila: SELECT ...') overrides the routing; several "
             "files run as independent deployments across --jobs "
             "worker processes")
    workload.add_argument("--scenario", default=None,
                          help="scenario JSON file (default: a grid "
                               "deployment)")
    workload.add_argument("--epochs", type=int, default=20)
    workload.add_argument("--side", type=int, default=6,
                          help="grid side when no scenario file is given")
    workload.add_argument("--rooms", type=int, default=3,
                          help="rooms per axis for the default grid")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--baseline", action="store_true",
                          help="run a TAG shadow per top-k session and "
                               "report per-session + aggregate savings")
    _add_format_argument(workload)
    _add_churn_arguments(workload)
    _add_jobs_argument(workload)

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter grid (fleet size x churn preset x query "
             "mix) of independent deployments across worker processes")
    sweep.add_argument("--sizes", default="25,100",
                       help="comma-separated fleet sizes")
    sweep.add_argument("--churn", default="none",
                       help="comma-separated churn presets "
                            "('none', 'calm', 'lively', 'harsh')")
    sweep.add_argument("--mixes", default="e11",
                       help="comma-separated query mixes "
                            "(see repro.parallel.QUERY_MIXES)")
    sweep.add_argument("--epochs", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=11,
                       help="root seed; every cell derives its own "
                            "streams from it and the cell identity")
    sweep.add_argument("--baseline", action="store_true",
                       help="shadow each top-k session with TAG and "
                            "report merged fleet-wide savings")
    sweep.add_argument("--output", default=None,
                       help="also write the merged JSON report here")
    _add_format_argument(sweep)
    _add_jobs_argument(sweep)

    init = sub.add_parser("scenario-init",
                          help="write a template scenario file")
    init.add_argument("path")

    lint = sub.add_parser(
        "lint",
        help="statically enforce the architecture book (docs/LINT.md): "
             "RNG discipline, the layer DAG, switch-and-prove pairing "
             "and friends; exit 0 clean, 1 findings, 2 on error")
    lint.add_argument("paths", nargs="*", metavar="path",
                      help="files or directories to lint "
                           "(default: src/repro)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--output", default=None,
                      help="also write the report to this file")
    _add_format_argument(lint)

    perf = sub.add_parser(
        "perf",
        help="measure the three speed ratios CI gates; writes a "
             "schema-versioned BENCH_perf.json")
    perf.add_argument("--output", default="BENCH_perf.json",
                      help="where to write the JSON report")

    savings = sub.add_parser("savings",
                             help="MINT vs TAG savings on a grid")
    savings.add_argument("--side", type=int, default=8)
    savings.add_argument("--rooms", type=int, default=4,
                         help="rooms per axis")
    savings.add_argument("--k", type=int, default=1)
    savings.add_argument("--epochs", type=int, default=30)
    savings.add_argument("--seed", type=int, default=0)
    return parser


def _add_format_argument(parser) -> None:
    parser.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="output format: human tables (default) or "
                             "machine-readable JSON")


def _add_jobs_argument(parser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes to shard independent "
                             "deployments across (default 1: in-"
                             "process; results are identical for any "
                             "value)")


def _add_churn_arguments(parser) -> None:
    parser.add_argument("--churn", choices=sorted(CHURN_PRESETS),
                        default=None,
                        help="subject the deployment to seeded Poisson "
                             "node churn (deaths + births); live "
                             "sessions recover and keep answering")
    parser.add_argument("--churn-seed", type=int, default=0,
                        help="seed for the churn process")


@contextmanager
def _writing(path) -> Iterator[None]:
    """Turn a failed write to ``path`` into ``error: cannot write ...``
    (exit 2) instead of a traceback."""
    try:
        yield
    except OSError as error:
        raise KSpotError(
            f"cannot write {path}: {error.strerror or error}") from None


# ----------------------------------------------------------------------
# Reporting (tables + JSON)
# ----------------------------------------------------------------------


def _churn_summary(network, deployment) -> dict:
    """Fleet + per-session churn/recovery accounting, JSON-ready."""
    alive = len(network.alive_sensor_ids())
    total = len(network.nodes)
    recovery = network.stats.by_phase.get("recovery")
    return {
        "dead": total - alive,
        "alive": alive,
        "deployed": total,
        "repair_traffic": None if recovery is None else {
            "messages": recovery.messages,
            "payload_bytes": recovery.payload_bytes,
        },
        "sessions": {
            handle.id: handle.recovery.summary()
            for handle in deployment.sessions()
            if handle.recovery.records
        },
    }


def _print_churn_summary(summary: dict) -> None:
    line = (f"churn: {summary['dead']} dead, {summary['alive']} alive of "
            f"{summary['deployed']} ever deployed")
    repair = summary["repair_traffic"]
    if repair is not None:
        line += (f"; tree repair traffic {repair['messages']} messages / "
                 f"{repair['payload_bytes']} bytes")
    print(line)
    for sid, log in sorted(summary["sessions"].items()):
        print(f"  session {sid}: recovered from {log['failures']} "
              f"failures + {log['joins']} joins, re-primed "
              f"{log['reprimed']} node states")


def _items_json(items) -> list[dict]:
    return [{"key": item.key, "score": item.score} for item in items]


def _session_json(handle: SessionHandle) -> dict:
    """One session's machine-readable report: identity, state, answers,
    traffic share, recovery log, and savings when a panel runs."""
    data = {
        "id": handle.id,
        "query": handle.query_text,
        "algorithm": handle.algorithm.value,
        "query_class": handle.plan.query_class.value,
        "state": handle.state.value,
        "stats": handle.stats.summary(),
        "recovery": handle.recovery.summary(),
    }
    if handle.is_historic:
        result = handle.historic_result
        data["historic_result"] = None if result is None else {
            "items": _items_json(result.items),
            "candidates": getattr(result, "candidates", None),
            "cleanup_rounds": getattr(result, "cleanup_rounds", None),
        }
    else:
        data["results"] = [
            {"epoch": r.epoch, "exact": r.exact, "probed": r.probed,
             "items": _items_json(r.items),
             "certification": (None if r.certification is None
                               else r.certification.as_dict())}
            for r in handle.results
        ]
    panel = handle.system_panel
    if panel is not None and panel.samples:
        data["savings"] = panel.cumulative.as_dict()
    return data


def _print_savings(aggregate: dict) -> None:
    """The fleet-wide savings line of ``workload`` and ``sweep``."""
    print(f"aggregate savings vs per-query TAG shadows: "
          f"{aggregate['message_saving_pct']:.1f}% messages, "
          f"{aggregate['byte_saving_pct']:.1f}% bytes, "
          f"{aggregate['energy_saving_pct']:.1f}% radio energy")


def _print_results(results, stats) -> None:
    rows = [
        [result.epoch,
         ", ".join(f"{item.key}={item.score:.2f}" for item in result.items),
         "yes" if result.exact else "NO",
         result.probed]
        for result in results
    ]
    print(render_table(["epoch", "top-k", "exact", "probes"], rows))
    print()
    summary = stats.summary()
    print(f"traffic: {summary['messages']} messages, "
          f"{summary['packets']} packets, "
          f"{summary['payload_bytes']} payload bytes, "
          f"{summary['radio_joules'] * 1e3:.2f} mJ radio")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _cmd_demo(args) -> int:
    if args.name == "figure1":
        scenario = figure1_scenario()
        query = ("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
                 "GROUP BY roomid EPOCH DURATION 1 min")
    else:
        scenario = conference_scenario()
        query = ("SELECT TOP 3 roomid, AVERAGE(sound) FROM sensors "
                 "GROUP BY roomid EPOCH DURATION 1 min")
    deployment = scenario.deployment()
    handle = deployment.submit(query)
    print(f"query:  {query}")
    print(f"routed: {handle.algorithm.value} "
          f"({handle.plan.query_class.value})")
    EpochDriver(deployment).run(args.epochs)
    _print_results(handle.results[-10:], scenario.network.stats)
    return 0


def _file_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """A scenario file deployed over a seeded room field (each sensor
    its own room when the file names no clusters)."""
    field = RoomField(config.cluster_of or
                      {n: n for n in config.positions},
                      seed=seed)
    return Scenario(network=config.deploy(field),
                    group_of=dict(config.cluster_of),
                    attribute=config.attribute, field=field)


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    scenario = _file_scenario(config, args.seed)
    network = scenario.network
    deployment = Deployment.from_scenario(scenario)
    algorithm = Algorithm(args.algorithm) if args.algorithm else None
    handle = deployment.submit(args.query, algorithm=algorithm)
    plan = handle.plan
    # Historic queries run their window length, not --epochs: the
    # churn schedule must cover the horizon actually driven.
    historic = plan.query_class is QueryClass.HISTORIC_VERTICAL
    horizon = (plan.window_epochs or args.epochs) if historic \
        else args.epochs
    churn = (scenario.churn_intervention(horizon, preset=args.churn,
                                         seed=args.churn_seed)
             if args.churn else None)
    driver = EpochDriver(deployment,
                         interventions=[churn] if churn else ())
    as_json = args.format == "json"
    if not as_json:
        print(f"scenario: {config.name} ({len(config.positions)} sensors)")
        print(f"routed:   {plan.algorithm.value} ({plan.query_class.value})")
    if historic:
        # Historic sessions finish by themselves; run() until idle.
        driver.run()
        result = handle.historic_result
        if not as_json:
            rows = [[rank, item.key, item.score]
                    for rank, item in enumerate(result.items, start=1)]
            print(render_table(["rank", "epoch", "score"], rows))
            # TJA reports clean-up rounds; TPUT's protocol has none.
            cleanup = getattr(result, "cleanup_rounds", None)
            line = f"candidates: {result.candidates}"
            if cleanup is not None:
                line += f", clean-up rounds: {cleanup}"
            print(line)
    else:
        driver.run(args.epochs)
        if not as_json:
            _print_results(handle.results, network.stats)
    churn_summary = (_churn_summary(network, deployment)
                     if churn is not None else None)
    if as_json:
        print(json.dumps({
            "scenario": {"name": config.name,
                         "sensors": len(config.positions)},
            "session": _session_json(handle),
            "deployment": deployment_summary(network),
            "churn": churn_summary,
        }, indent=2))
    elif churn_summary is not None:
        _print_churn_summary(churn_summary)
    return 0


def _parse_workload_line(line: str):
    """``(algorithm | None, query_text)`` for one workload file line."""
    head, sep, rest = line.partition(":")
    if sep and head.strip().lower() in {a.value for a in Algorithm}:
        return Algorithm(head.strip().lower()), rest.strip()
    return None, line


def _load_workload(path: str):
    """Parse a workload file into (algorithm, query) pairs."""
    entries = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as error:
        raise KSpotError(f"cannot read workload file: {error}") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(_parse_workload_line(line))
    if not entries:
        raise KSpotError(f"workload file {path!r} contains no queries")
    return entries


@dataclass(frozen=True)
class _WorkloadSpec:
    """One workload file as an independent, picklable deployment spec
    (the ``workload`` worker's input)."""

    file: str
    scenario: str | None
    side: int
    rooms: int
    seed: int
    epochs: int
    baseline: bool
    churn: str | None
    churn_seed: int


def _workload_shard(spec: _WorkloadSpec) -> dict:
    """Deploy, submit, churn and drive one workload file: the
    ``workload`` worker, run inline for one file and sharded for
    several.

    Module-level and spec-driven — the spawn contract — returning the
    file's ``--format json`` payload plus the file it came from.
    """
    config = load_scenario(spec.scenario) if spec.scenario else None

    def deploy() -> Scenario:
        if config is not None:
            return _file_scenario(config, spec.seed)
        return grid_rooms_scenario(side=spec.side, rooms_per_axis=spec.rooms,
                                   seed=spec.seed)

    scenario = deploy()
    network = scenario.network
    deployment = Deployment.from_scenario(
        scenario,
        baseline_factory=(lambda: deploy().network) if spec.baseline
        else None)
    rejected = []
    for algorithm, query in _load_workload(spec.file):
        try:
            deployment.submit(query, algorithm=algorithm)
        except KSpotError as error:
            rejected.append({"query": query, "error": str(error)})
    if not deployment.sessions():
        raise KSpotError("every workload query was rejected: " + "; ".join(
            f"{entry['query']!r} — {entry['error']}" for entry in rejected))
    churn = (scenario.churn_intervention(spec.epochs, preset=spec.churn,
                                         seed=spec.churn_seed)
             if spec.churn else None)
    driver = EpochDriver(deployment,
                         interventions=[churn] if churn else ())
    driver.run(spec.epochs)
    savings = [handle.system_panel.cumulative
               for handle in deployment.sessions()
               if handle.system_panel is not None
               and handle.system_panel.samples]
    aggregate = SystemPanel.aggregate(savings) if savings else None
    return {
        "file": spec.file,
        "sessions": [_session_json(handle)
                     for handle in deployment.sessions()],
        "rejected": rejected,
        "deployment": deployment_summary(network),
        "churn": (_churn_summary(network, deployment)
                  if churn is not None else None),
        "aggregate_savings": (aggregate.as_dict()
                              if aggregate is not None else None),
    }


def _print_workload(payload: dict, as_json: bool = False) -> None:
    """One workload file's report: its rejected queries on stderr,
    then its JSON payload, or its routing lines, session table and
    deployment, churn and savings lines."""
    for entry in payload["rejected"]:
        print(f"rejected: {entry['query']!r} — {entry['error']}",
              file=sys.stderr)
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    rows = []
    for session in payload["sessions"]:
        print(f"session {session['id']}: routed {session['algorithm']} "
              f"({session['query_class']}) — {session['query']}")
        historic = session.get("historic_result")
        results = session.get("results")
        if historic is not None:
            items, epochs_run = historic["items"][:3], "one-shot"
        elif results:
            items, epochs_run = results[-1]["items"], len(results)
        else:
            items, epochs_run = None, 0
        answer = ("(still acquiring)" if items is None else ", ".join(
            f"{item['key']}={item['score']:.2f}" for item in items))
        rows.append([session["id"], session["algorithm"], epochs_run,
                     answer, session["stats"]["messages"],
                     session["stats"]["payload_bytes"]])
    print()
    print(render_table(
        ["session", "algorithm", "epochs", "latest answer",
         "messages", "bytes"], rows))
    print()
    summary = payload["deployment"]
    rejected = payload["rejected"]
    print(f"deployment: epoch {summary['epoch']}, "
          f"{summary['sensor_samples']} sensor samples, "
          f"{summary['messages']} messages, "
          f"{summary['payload_bytes']} payload bytes, "
          f"{summary['radio_joules'] * 1e3:.2f} mJ radio"
          + (f" ({len(rejected)} queries rejected)" if rejected else ""))
    if payload["churn"] is not None:
        _print_churn_summary(payload["churn"])
    if payload["aggregate_savings"] is not None:
        _print_savings(payload["aggregate_savings"])


def _cmd_workload(args) -> int:
    specs = [
        _WorkloadSpec(file=path, scenario=args.scenario, side=args.side,
                      rooms=args.rooms, seed=args.seed,
                      epochs=args.epochs, baseline=args.baseline,
                      churn=args.churn, churn_seed=args.churn_seed)
        for path in args.files
    ]
    if len(specs) == 1:
        # Inline, so a KSpotError exits 2 as ``error: ...``.
        payload = _workload_shard(specs[0])
        del payload["file"]
        _print_workload(payload, as_json=args.format == "json")
        return 0
    results = run_sharded(_workload_shard, specs, jobs=args.jobs,
                          keys=list(args.files))
    errors = shard_errors(results)
    payloads = [result.payload for result in results if result.ok]
    savings = [
        SavingsSample.from_dict(session["savings"])
        for payload in payloads
        for session in payload["sessions"]
        if session.get("savings")
    ]
    aggregate = (SystemPanel.aggregate(savings).as_dict()
                 if savings else None)
    if args.format == "json":
        print(json.dumps({
            "shards": payloads,
            "aggregate_savings": aggregate,
            "shard_errors": errors,
        }, indent=2))
    else:
        for payload in payloads:
            print(f"== {payload['file']} ==")
            _print_workload(payload)
            print()
        if aggregate is not None:
            _print_savings(aggregate)
    for entry in errors:
        print(f"shard failed: {entry['key']}\n{entry['error']}",
              file=sys.stderr)
    return 2 if errors else 0


def _cmd_sweep(args) -> int:
    try:
        sizes = tuple(int(part) for part in args.sizes.split(","))
    except ValueError:
        raise ConfigurationError(
            f"--sizes wants comma-separated integers, got "
            f"{args.sizes!r}") from None
    churns = tuple(part.strip() for part in args.churn.split(","))
    mixes = tuple(part.strip() for part in args.mixes.split(","))
    cells = sweep_grid(sizes, churns, mixes, epochs=args.epochs,
                       seed=args.seed, baseline=args.baseline)
    if args.format != "json":
        print(f"sweep: {len(cells)} cells "
              f"(sizes {list(sizes)} x churn {list(churns)} x mixes "
              f"{list(mixes)}), {args.epochs} epochs, "
              f"jobs {args.jobs}")
    merged = run_sweep(cells, jobs=args.jobs)
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(
                json.dumps(merged, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
    if args.format == "json":
        print(json.dumps(merged, indent=2))
    else:
        rows = [
            [cell["cell"]["n_nodes"], cell["cell"]["churn"],
             cell["cell"]["mix"], len(cell["sessions"]),
             cell["deployment"]["messages"],
             cell["deployment"]["payload_bytes"],
             f"{cell['epochs_per_sec']:.1f}"]
            for cell in merged["cells"]
        ]
        print(render_table(
            ["N", "churn", "mix", "sessions", "messages", "bytes",
             "epochs/s"], rows))
        totals = merged["totals"]
        print(f"\ntotals: {totals['cells']} cells, "
              f"{totals['sessions']} sessions, "
              f"{totals['messages']} messages, "
              f"{totals['sensor_samples']} sensor samples")
        if merged["aggregate_savings"] is not None:
            _print_savings(merged["aggregate_savings"])
        if args.output:
            print(f"wrote {args.output}")
    for entry in merged["shard_errors"]:
        print(f"shard failed: {entry['key']}\n{entry['error']}",
              file=sys.stderr)
    return 2 if merged["shard_errors"] else 0


def _cmd_scenario_init(args) -> int:
    template = ScenarioConfig(
        name="my-deployment",
        map_width=100.0,
        map_height=60.0,
        radio_range=35.0,
        sink_position=(50.0, 30.0),
        positions={1: (15.0, 15.0), 2: (25.0, 15.0),
                   3: (70.0, 15.0), 4: (80.0, 15.0),
                   5: (45.0, 45.0), 6: (55.0, 45.0)},
        cluster_of={1: "RoomA", 2: "RoomA", 3: "RoomB", 4: "RoomB",
                    5: "Hallway", 6: "Hallway"},
    )
    with _writing(args.path):
        save_scenario(template, args.path)
    print(f"wrote template scenario to {args.path}")
    print("edit positions/clusters, then:")
    print(f"  python -m repro run {args.path} \"SELECT TOP 1 roomid, "
          f"AVERAGE(sound) FROM sensors GROUP BY roomid\"")
    return 0


def _cmd_lint(args) -> int:
    from .analysis import lint_paths, rule_catalog

    if args.list_rules:
        catalog = rule_catalog()
        if args.format == "json":
            print(json.dumps({"schema": "kspot-lint/1", "rules": catalog},
                             indent=2, sort_keys=True))
        else:
            width = max(len(rule["id"]) for rule in catalog)
            for rule in catalog:
                print(f"{rule['id']:<{width}}  {rule['summary']}")
        return 0

    report = lint_paths(args.paths or ["src/repro"])
    rendered = report.to_json() if args.format == "json" \
        else report.to_text()
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        if args.format == "json":
            # Keep stdout human-scannable when the JSON went to a file.
            print(report.to_text())
        else:
            print(rendered)
    else:
        print(rendered)
    return report.exit_code


def _cmd_perf(args) -> int:
    from .perf import run_perf

    report = run_perf()
    for name, gate in report["gates"].items():
        print(f"{name}: {gate['ratio']:.2f}x "
              f"(on {gate['on_s'] * 1e3:.1f} ms, "
              f"off {gate['off_s'] * 1e3:.1f} ms)")
    with _writing(args.output):
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def _cmd_savings(args) -> int:
    from .core import Mint, MintConfig, Tag
    from .core.aggregates import make_aggregate

    if args.k < 1:
        raise ConfigurationError(f"--k must be >= 1, got {args.k}")
    rows = []
    for name in ("mint", "tag"):
        scenario = grid_rooms_scenario(side=args.side,
                                       rooms_per_axis=args.rooms,
                                       seed=args.seed)
        aggregate = make_aggregate("AVG", 0, 100)
        if name == "mint":
            algorithm = Mint(scenario.network, aggregate, args.k,
                             scenario.group_of,
                             config=MintConfig(slack=min(args.k, 4)))
        else:
            algorithm = Tag(scenario.network, aggregate, args.k,
                            scenario.group_of)
        for _ in range(args.epochs):
            algorithm.run_epoch()
        stats = scenario.network.stats
        rows.append([name, stats.messages, stats.payload_bytes,
                     stats.radio_joules * 1e3])
    saving = 100.0 * (1 - rows[0][2] / rows[1][2])
    print(render_table(["algorithm", "messages", "bytes", "radio mJ"],
                       rows))
    print(f"\nMINT saves {saving:.1f}% of TAG's bytes "
          f"({args.side * args.side} sensors, "
          f"{args.rooms * args.rooms} rooms, K={args.k}, "
          f"{args.epochs} epochs)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "run": _cmd_run,
        "workload": _cmd_workload,
        "sweep": _cmd_sweep,
        "scenario-init": _cmd_scenario_init,
        "savings": _cmd_savings,
        "perf": _cmd_perf,
        "lint": _cmd_lint,
    }
    try:
        epochs = getattr(args, "epochs", None)
        if epochs is not None and epochs < 1:
            raise ConfigurationError(f"--epochs must be >= 1, got {epochs}")
        return handlers[args.command](args)
    except KSpotError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

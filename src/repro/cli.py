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
from dataclasses import dataclass
from typing import Sequence

from . import __version__
from .api import ChurnIntervention, Deployment, EpochDriver, SessionHandle
from .errors import ConfigurationError, KSpotError
from .gui.render import render_table
from .gui.scenario import ScenarioConfig, load_scenario, save_scenario
from .query.plan import Algorithm, QueryClass
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
        help="measure epochs/sec, messages/sec and RSS across fleet "
             "sizes; writes a schema-versioned BENCH_perf.json")
    perf.add_argument("--sizes", default=None,
                      help="comma-separated fleet sizes "
                           "(default: 25,100,400,1000)")
    perf.add_argument("--repeats", type=int, default=3,
                      help="repetitions per configuration (best-of-R, "
                           "interleaved)")
    perf.add_argument("--seed", type=int, default=11)
    perf.add_argument("--quick", action="store_true",
                      help="CI smoke: the default ladder trimmed to "
                           "N = 25,100,400, at most 2 repeats")
    perf.add_argument("--compare-reference", action="store_true",
                      help="also time the unoptimized reference path "
                           "and report the machine-normalized speedup")
    perf.add_argument("--output", default="BENCH_perf.json",
                      help="where to write the JSON report")
    _add_churn_arguments(perf)
    _add_jobs_argument(perf)

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
    from .scenarios import CHURN_PRESETS

    parser.add_argument("--churn", choices=sorted(CHURN_PRESETS),
                        default=None,
                        help="subject the deployment to seeded Poisson "
                             "node churn (deaths + births); live "
                             "sessions recover and keep answering")
    parser.add_argument("--churn-seed", type=int, default=0,
                        help="seed for the churn process")


def _churn_for(churn: str | None, churn_seed: int, network, attribute,
               field, group_of, epochs: int) -> ChurnIntervention | None:
    """A :class:`ChurnIntervention` from explicit parameters, or None
    (shared by the inline commands and the picklable shard workers)."""
    if not churn:
        return None
    from .scenarios import preset_churn
    from .sensing.board import SensorBoard

    schedule = preset_churn(
        network.topology, epochs, preset=churn, seed=churn_seed,
        group_for=(group_of or {}).get, field=field)
    return ChurnIntervention(
        schedule, board_for=lambda _nid: SensorBoard({attribute: field}))


def _make_churn(args, network, attribute, field, group_of,
                epochs=None) -> ChurnIntervention | None:
    """A :class:`ChurnIntervention` for ``--churn``, or None.

    ``epochs`` is the horizon the run will actually drive (historic
    queries run their window length, not ``--epochs``).
    """
    return _churn_for(getattr(args, "churn", None),
                      getattr(args, "churn_seed", 0),
                      network, attribute, field, group_of,
                      epochs if epochs is not None else args.epochs)


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


def _deployment_json(network) -> dict:
    samples = sum(network.node(n).samples_taken
                  for n in network.tree.sensor_ids)
    summary = network.stats.summary()
    summary["epoch"] = network.epoch
    summary["sensor_samples"] = samples
    return summary


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
    from .scenarios import conference_scenario, figure1_scenario

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


def _deploy_from_config(config, seed: int):
    """(network, field) for a scenario file over a seeded room field."""
    field = RoomField(config.cluster_of or
                      {n: n for n in config.positions},
                      seed=seed)
    return config.deploy(field), field


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    network, field = _deploy_from_config(config, args.seed)
    deployment = Deployment(network, group_of=config.cluster_of or None)
    algorithm = Algorithm(args.algorithm) if args.algorithm else None
    handle = deployment.submit(args.query, algorithm=algorithm)
    plan = handle.plan
    # Historic queries run their window length, not --epochs: the
    # churn schedule must cover the horizon actually driven.
    historic = plan.query_class is QueryClass.HISTORIC_VERTICAL
    horizon = (plan.window_epochs or args.epochs) if historic \
        else args.epochs
    churn = _make_churn(args, network, config.attribute, field,
                        config.cluster_of, epochs=horizon)
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
            "deployment": _deployment_json(network),
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


def _workload_row(handle: SessionHandle):
    if handle.historic_result is not None:
        answer = ", ".join(f"{i.key}={i.score:.2f}"
                           for i in handle.historic_result.items[:3])
        epochs_run = "one-shot"
    elif handle.results:
        last = handle.results[-1]
        answer = ", ".join(f"{i.key}={i.score:.2f}" for i in last.items)
        epochs_run = len(handle.results)
    else:
        answer = "(still acquiring)"
        epochs_run = 0
    return [handle.id, handle.algorithm.value, epochs_run, answer,
            handle.stats.messages, handle.stats.payload_bytes]


@dataclass(frozen=True)
class _WorkloadSpec:
    """One workload file as an independent, picklable deployment spec
    (the ``workload`` shard worker's input)."""

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
    """Run one workload file over its own deployment (shard worker).

    Module-level and spec-driven — the spawn contract — returning the
    same JSON payload shape the single-file ``--format json`` mode
    prints, plus the file it came from.
    """
    from .gui.stats import SystemPanel
    from .scenarios import grid_rooms_scenario

    if spec.scenario:
        config = load_scenario(spec.scenario)
        network, field = _deploy_from_config(config, spec.seed)
        group_of = config.cluster_of or None
        attribute = config.attribute

        def factory():
            return _deploy_from_config(config, spec.seed)[0]
    else:
        scenario = grid_rooms_scenario(side=spec.side,
                                       rooms_per_axis=spec.rooms,
                                       seed=spec.seed)
        network = scenario.network
        group_of = scenario.group_of
        field = scenario.field
        attribute = scenario.attribute

        def factory():
            return grid_rooms_scenario(side=spec.side,
                                       rooms_per_axis=spec.rooms,
                                       seed=spec.seed).network
    deployment = Deployment(
        network, group_of=group_of,
        baseline_factory=factory if spec.baseline else None)
    rejected = []
    for algorithm, query in _load_workload(spec.file):
        try:
            deployment.submit(query, algorithm=algorithm)
        except KSpotError as error:
            rejected.append({"query": query, "error": str(error)})
    if not deployment.sessions():
        raise KSpotError(
            f"every workload query in {spec.file!r} was rejected")
    churn = _churn_for(spec.churn, spec.churn_seed, network, attribute,
                       field, group_of, spec.epochs)
    driver = EpochDriver(deployment,
                         interventions=[churn] if churn else ())
    driver.run(spec.epochs)
    panels = [handle.system_panel for handle in deployment.sessions()
              if handle.system_panel is not None
              and handle.system_panel.samples]
    aggregate = SystemPanel.aggregate(panels) if panels else None
    return {
        "file": spec.file,
        "sessions": [_session_json(handle)
                     for handle in deployment.sessions()],
        "rejected": rejected,
        "deployment": _deployment_json(network),
        "churn": (_churn_summary(network, deployment)
                  if churn is not None else None),
        "aggregate_savings": (aggregate.as_dict()
                              if aggregate is not None else None),
    }


def _print_workload_shard(payload: dict) -> None:
    """The compact per-file report of a sharded workload run."""
    print(f"== {payload['file']} ==")
    rows = []
    for session in payload["sessions"]:
        if session.get("historic_result") is not None:
            items = session["historic_result"]["items"][:3]
            epochs_run = "one-shot"
        else:
            results = session.get("results") or []
            items = results[-1]["items"] if results else []
            epochs_run = len(results)
        answer = ", ".join(f"{i['key']}={i['score']:.2f}" for i in items)
        rows.append([session["id"], session["algorithm"], epochs_run,
                     answer, session["stats"]["messages"],
                     session["stats"]["payload_bytes"]])
    print(render_table(
        ["session", "algorithm", "epochs", "latest answer",
         "messages", "bytes"], rows))
    summary = payload["deployment"]
    print(f"deployment: epoch {summary['epoch']}, "
          f"{summary['sensor_samples']} sensor samples, "
          f"{summary['messages']} messages, "
          f"{summary['payload_bytes']} payload bytes"
          + (f" ({len(payload['rejected'])} queries rejected)"
             if payload["rejected"] else ""))
    if payload["churn"] is not None:
        _print_churn_summary(payload["churn"])
    print()


def _cmd_workload_sharded(args) -> int:
    """Several workload files: independent deployments across workers."""
    from .gui.stats import RecordedPanel, SystemPanel
    from .parallel import run_sharded, shard_errors

    specs = [
        _WorkloadSpec(file=path, scenario=args.scenario, side=args.side,
                      rooms=args.rooms, seed=args.seed,
                      epochs=args.epochs, baseline=args.baseline,
                      churn=args.churn, churn_seed=args.churn_seed)
        for path in args.files
    ]
    results = run_sharded(_workload_shard, specs, jobs=args.jobs,
                          keys=list(args.files))
    errors = shard_errors(results)
    payloads = [result.payload for result in results if result.ok]
    panels = [
        RecordedPanel.from_dicts([session["savings"]])
        for payload in payloads
        for session in payload["sessions"]
        if session.get("savings")
    ]
    aggregate = SystemPanel.aggregate(panels) if panels else None
    if args.format == "json":
        print(json.dumps({
            "shards": payloads,
            "aggregate_savings": (aggregate.as_dict()
                                  if aggregate is not None else None),
            "shard_errors": errors,
        }, indent=2))
    else:
        for payload in payloads:
            _print_workload_shard(payload)
        if aggregate is not None:
            print(f"aggregate savings vs per-query TAG shadows: "
                  f"{aggregate.message_saving_pct:.1f}% messages, "
                  f"{aggregate.byte_saving_pct:.1f}% bytes, "
                  f"{aggregate.energy_saving_pct:.1f}% radio energy")
    for entry in errors:
        print(f"shard failed: {entry['key']}\n{entry['error']}",
              file=sys.stderr)
    return 2 if errors else 0


def _cmd_workload(args) -> int:
    if len(args.files) > 1:
        return _cmd_workload_sharded(args)
    from .gui.stats import SystemPanel
    from .scenarios import grid_rooms_scenario

    if args.scenario:
        config = load_scenario(args.scenario)

        def deploy():
            return _deploy_from_config(config, args.seed)[0]

        network, field = _deploy_from_config(config, args.seed)
        group_of = config.cluster_of or None
        attribute = config.attribute
        factory = deploy
    else:
        def deploy():
            return grid_rooms_scenario(side=args.side,
                                       rooms_per_axis=args.rooms,
                                       seed=args.seed)

        scenario = deploy()
        network = scenario.network
        group_of = scenario.group_of
        field = scenario.field
        attribute = scenario.attribute
        factory = lambda: deploy().network  # noqa: E731

    as_json = args.format == "json"
    deployment = Deployment(
        network, group_of=group_of,
        baseline_factory=factory if args.baseline else None)
    entries = _load_workload(args.files[0])
    rejected = []
    for algorithm, query in entries:
        try:
            handle = deployment.submit(query, algorithm=algorithm)
        except KSpotError as error:
            rejected.append({"query": query, "error": str(error)})
            print(f"rejected: {query!r} — {error}", file=sys.stderr)
            continue
        if not as_json:
            print(f"session {handle.id}: routed {handle.algorithm.value} "
                  f"({handle.plan.query_class.value}) — {query}")
    if not deployment.sessions():
        raise KSpotError("every workload query was rejected")
    if not as_json:
        print()

    churn = _make_churn(args, network, attribute, field, group_of)
    driver = EpochDriver(deployment,
                         interventions=[churn] if churn else ())
    driver.run(args.epochs)

    churn_summary = (_churn_summary(network, deployment)
                     if churn is not None else None)
    panels = [handle.system_panel for handle in deployment.sessions()
              if handle.system_panel is not None
              and handle.system_panel.samples]
    aggregate = SystemPanel.aggregate(panels) if panels else None

    if as_json:
        print(json.dumps({
            "sessions": [_session_json(handle)
                         for handle in deployment.sessions()],
            "rejected": rejected,
            "deployment": _deployment_json(network),
            "churn": churn_summary,
            "aggregate_savings": (aggregate.as_dict()
                                  if aggregate is not None else None),
        }, indent=2))
        return 0

    rows = [_workload_row(handle) for handle in deployment.sessions()]
    print(render_table(
        ["session", "algorithm", "epochs", "latest answer",
         "messages", "bytes"], rows))
    print()
    summary = _deployment_json(network)
    print(f"deployment: epoch {summary['epoch']}, "
          f"{summary['sensor_samples']} sensor samples, "
          f"{summary['messages']} messages, "
          f"{summary['payload_bytes']} payload bytes, "
          f"{summary['radio_joules'] * 1e3:.2f} mJ radio"
          + (f" ({len(rejected)} queries rejected)" if rejected else ""))
    if churn_summary is not None:
        _print_churn_summary(churn_summary)
    if aggregate is not None:
        print(f"aggregate savings vs per-query TAG shadows: "
              f"{aggregate.message_saving_pct:.1f}% messages, "
              f"{aggregate.byte_saving_pct:.1f}% bytes, "
              f"{aggregate.energy_saving_pct:.1f}% radio energy")
    return 0


def _cmd_sweep(args) -> int:
    from .parallel import run_sweep, sweep_grid

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
        from pathlib import Path

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
        aggregate = merged["aggregate_savings"]
        if aggregate is not None:
            print(f"aggregate savings vs per-query TAG shadows: "
                  f"{aggregate['message_saving_pct']:.1f}% messages, "
                  f"{aggregate['byte_saving_pct']:.1f}% bytes, "
                  f"{aggregate['energy_saving_pct']:.1f}% radio energy")
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
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        if args.format == "json":
            # Keep stdout human-scannable when the JSON went to a file.
            print(report.to_text())
        else:
            print(rendered)
    else:
        print(rendered)
    return report.exit_code


def _cmd_perf(args) -> int:
    from .perf import FLEET_SIZES, run_perf

    if args.sizes:
        try:
            sizes = tuple(int(part) for part in args.sizes.split(","))
        except ValueError:
            raise ConfigurationError(
                f"--sizes wants comma-separated integers, got "
                f"{args.sizes!r}") from None
        if any(n < 1 for n in sizes):
            raise ConfigurationError("fleet sizes must be positive")
    else:
        sizes = FLEET_SIZES

    def progress(sample):
        line = (f"N={sample.n_nodes:>5}: "
                f"{sample.hot.epochs_per_sec:8.2f} epochs/s, "
                f"{sample.hot.messages_per_sec:10.0f} msgs/s, "
                f"rss {sample.peak_rss_bytes / 1e6:6.1f} MB")
        if sample.speedup is not None:
            line += (f"  ({sample.reference.epochs_per_sec:.2f} eps "
                     f"reference, {sample.speedup:.2f}x)")
        print(line)

    # Mirror run_perf's --quick adjustments so the banner states what
    # will actually run (default ladder trimmed, repeats clamped).
    from .perf import QUICK_SIZES

    shown_sizes = list(sizes)
    shown_repeats = args.repeats
    if args.quick:
        if tuple(sizes) == FLEET_SIZES:
            shown_sizes = list(QUICK_SIZES)
        shown_repeats = min(shown_repeats, 2)
    print(f"perf: e11 workload, sizes {shown_sizes}, "
          f"best of {shown_repeats}"
          + (f", churn={args.churn}" if args.churn else "")
          + (", vs reference path" if args.compare_reference else "")
          + (f", {args.jobs} workers" if args.jobs > 1 else ""))
    report = run_perf(
        sizes=sizes, repeats=args.repeats, seed=args.seed,
        churn=args.churn, churn_seed=args.churn_seed,
        compare_reference=args.compare_reference, quick=args.quick,
        progress=progress, jobs=args.jobs)
    if report.aggregate is not None:
        aggregate = report.aggregate
        line = (f"aggregate: {aggregate['workers']} workers x "
                f"N={aggregate['n_nodes']}: "
                f"{aggregate['epochs_per_sec']:8.2f} epochs/s "
                f"({aggregate['scaleout']:.2f}x scale-out)")
        print(line)
    path = report.write(args.output)
    print(f"wrote {path}")
    for entry in report.shard_errors:
        print(f"shard failed: {entry['key']}\n{entry['error']}",
              file=sys.stderr)
    return 2 if report.shard_errors else 0


def _cmd_savings(args) -> int:
    from .core import Mint, MintConfig, Tag
    from .core.aggregates import make_aggregate
    from .scenarios import grid_rooms_scenario

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

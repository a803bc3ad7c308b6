"""The benchmark's four workloads, built through the public API.

Every workload is a sequence of *episodes*. An episode is one fresh
deployment: it is set up (scenario, :class:`~repro.api.Deployment`,
initial submits, warm-up epochs) and then stepped for a fixed number of
timed epochs. Each episode draws its field, churn and arrival streams
from ``(seed, workload, episode index)``, so a run's inputs depend on
``--seed`` alone and the program only ever sees the generated scenario,
queries and schedules.

Fixed-length episodes keep every run the same work on every commit:
the fleet of ``churn`` shrinks and ``turnover``'s session registry and
``fila``'s retained results grow with epochs driven, so a run that
stepped "as many epochs as fit" would measure different states on a
faster and a slower commit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.network.churn import ChurnSchedule
from repro.network.simulator import Network
from repro.network.topology import grid_topology
from repro.query.plan import Algorithm
from repro.scenarios import Scenario, grid_rooms_scenario
from repro.sensing.board import SensorBoard
from repro.sensing.generators import ZipfEventField

#: Epochs each episode runs untimed after its initial submits: the
#: creation phases (query floods, FILA's filter set-up) and cache
#: priming belong to set-up, not to the steady state being timed.
WARMUP_EPOCHS = 5

#: The four room-ranking MINT queries of the e11 multi-query mix.
ROOM_QUERIES = (
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
    "GROUP BY roomid EPOCH DURATION 1 min",
    "SELECT TOP 1 roomid, MAX(sound) FROM sensors "
    "GROUP BY roomid EPOCH DURATION 1 min",
    "SELECT TOP 3 roomid, SUM(sound) FROM sensors "
    "GROUP BY roomid EPOCH DURATION 1 min",
    "SELECT TOP 1 roomid, MIN(sound) FROM sensors "
    "GROUP BY roomid EPOCH DURATION 1 min",
)

#: The e11 historic TJA query, re-submitted each time it completes.
HISTORIC_QUERY = ("SELECT TOP 3 epoch, AVG(sound) FROM sensors "
                  "GROUP BY epoch WITH HISTORY 10 s EPOCH DURATION 1 s")

#: FILA's node-level query: the louder half of the 400 motes. The
#: boundary then sits in the dense band of quiet clusters, where the
#: per-epoch jitter crosses it every epoch, so filters are violated
#: and re-installed at a steady rate. When the boundary moves down,
#: every mote below it gets a new filter. With k = 25 the boundary
#: sits inside the loudest cluster and such moves are rare and costly;
#: one run then sees too few of them for its per-epoch averages to
#: repeat across seeds.
FILA_QUERY = ("SELECT TOP 200 nodeid, MAX(sound) FROM sensors "
              "GROUP BY nodeid EPOCH DURATION 1 min")

#: Live sessions ``turnover`` keeps admitted at all times.
TURNOVER_LIVE = 8


def derive_seed(seed: int, workload: str, episode: int, stream: str) -> int:
    """A 63-bit seed for one input stream of one episode."""
    digest = hashlib.sha256(
        f"{seed}/{workload}/{episode}/{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _items(items) -> tuple:
    return tuple((i.key, i.score, i.lb, i.ub) for i in items)


class Episode:
    """One fresh deployment of a workload, stepped one epoch at a time.

    :meth:`step` is the unit the benchmark times: the workload's
    between-epoch admissions (submits, cancels) plus one
    :meth:`EpochDriver.step <repro.api.EpochDriver.step>`.
    """

    def __init__(self, scenario: Scenario, interventions=()):
        self.network = scenario.network
        self.deployment = Deployment.from_scenario(scenario)
        self.driver = EpochDriver(self.deployment,
                                  interventions=interventions,
                                  stop_when_idle=False)
        self.submits = 0
        self.session_steps = 0

    def submit(self, text: str, algorithm: Algorithm | None = None):
        self.submits += 1
        return self.deployment.submit(text, algorithm=algorithm)

    def step(self) -> None:
        self.session_steps += len(self.driver.step())
        self.after_step()

    def after_step(self) -> None:
        """The workload's admissions between two epochs."""

    def counters(self) -> dict:
        """Cumulative network counters (diffed around the timed epochs)."""
        stats = self.network.stats
        return {
            "messages": stats.messages,
            "joules": stats.tx_joules + stats.rx_joules,
            "air_bytes": stats.air_bytes,
            "retransmissions": stats.retransmissions,
            "drops": stats.drops,
            "samples": sum(node.samples_taken
                           for node in self.network.nodes.values()),
        }

    def answers(self) -> tuple:
        """Every session's answer stream plus the network's totals."""
        sessions = []
        for handle in self.deployment.sessions():
            historic = handle.historic_result
            sessions.append((
                handle.id,
                tuple((r.epoch, r.exact, _items(r.items))
                      for r in handle.results),
                None if historic is None else _items(historic.items),
            ))
        return tuple(sessions), self.network.stats.summary()


class MonitorEpisode(Episode):
    """Four MINT room rankings plus a historic TJA query that is
    re-submitted each time it completes."""

    def __init__(self, scenario: Scenario, interventions=()):
        super().__init__(scenario, interventions)
        for text in ROOM_QUERIES:
            self.submit(text)
        self.historic = self.submit(HISTORIC_QUERY)

    def after_step(self) -> None:
        if self.historic.historic_result is not None:
            self.historic = self.submit(HISTORIC_QUERY)


class FilaEpisode(Episode):
    """One FILA node-level top-k session."""

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self.submit(FILA_QUERY, Algorithm.FILA)


class TurnoverEpisode(Episode):
    """A service admitting short-lived sessions from a seeded mix.

    Monitoring sessions live 4-12 epochs and are then cancelled;
    historic sessions finish by themselves when their 4-10 s window
    fills. After every epoch the freed slots are refilled, so
    ``TURNOVER_LIVE`` sessions are always live.
    """

    #: One shuffled deck of 20 arrivals: 55% MINT room top-k, 15% FILA
    #: node top-k, 10% TAG room aggregates, 20% TJA/TPUT. Dealing from
    #: a deck instead of drawing each kind independently keeps the mix
    #: exact in every run, so runs differ in order, not in proportions.
    DECK = (("mint",) * 11 + ("fila",) * 3 + ("tag",) * 2
            + ("tja",) * 2 + ("tput",) * 2)

    def __init__(self, scenario: Scenario, arrivals: random.Random):
        super().__init__(scenario)
        self.arrivals = arrivals
        self.deck: list[str] = []
        self.live: list = []
        self._admit()

    def _draw(self) -> tuple[str, Algorithm | None]:
        rng = self.arrivals
        if not self.deck:
            self.deck = list(self.DECK)
            rng.shuffle(self.deck)
        kind = self.deck.pop()
        k = rng.randint(1, 3)
        if kind == "mint":
            agg = rng.choice(("AVG", "MAX", "MIN", "SUM"))
            return (f"SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
                    "GROUP BY roomid EPOCH DURATION 1 min", None)
        if kind == "fila":
            return (f"SELECT TOP {k} nodeid, MAX(sound) FROM sensors "
                    "GROUP BY nodeid EPOCH DURATION 1 min", Algorithm.FILA)
        if kind == "tag":
            agg = rng.choice(("AVG", "MAX", "MIN", "SUM"))
            return (f"SELECT roomid, {agg}(sound) FROM sensors "
                    "GROUP BY roomid EPOCH DURATION 1 min", None)
        # TPUT ranks by SUM or AVG only; TJA gets the same aggregates.
        agg = rng.choice(("AVG", "SUM"))
        window = rng.randint(4, 10)
        return (f"SELECT TOP {k} epoch, {agg}(sound) FROM sensors "
                f"GROUP BY epoch WITH HISTORY {window} s "
                "EPOCH DURATION 1 s",
                Algorithm.TPUT if kind == "tput" else Algorithm.TJA)

    def _admit(self) -> None:
        while len(self.live) < TURNOVER_LIVE:
            text, algorithm = self._draw()
            last = self.driver.epochs_driven + self.arrivals.randint(4, 12)
            self.live.append((self.submit(text, algorithm), last))

    def after_step(self) -> None:
        live = []
        for handle, last in self.live:
            if handle.historic_result is not None:
                continue
            if not handle.is_historic and self.driver.epochs_driven >= last:
                self.deployment.cancel(handle.id)
                continue
            live.append((handle, last))
        self.live = live
        self._admit()


def fila_scenario(seed: int, side: int = 20) -> Scenario:
    """``side²`` motes on a grid over a Zipf event field (skew 2,
    jitter 6, margin 8) with 16 clusters.

    Cluster ``i`` holds the motes with ``id % 16 == i``, spread evenly
    over the grid rather than in blocks. The seed picks which cluster
    is loudest, and with block rooms that choice moves the loud motes
    nearer to or further from the corner sink, which changes the hops
    each report pays; interleaved clusters make every choice cost the
    same.
    """
    topology = grid_topology(side, spacing=10.0, radio_range=15.0)
    cluster_of = {node_id: f"C{node_id % 16:02d}"
                  for node_id in range(1, side * side + 1)}
    field = ZipfEventField(cluster_of, lo=0.0, hi=100.0, skew=2.0,
                           jitter=6.0, seed=seed, margin=8.0)
    boards = {node_id: SensorBoard({"sound": field})
              for node_id in cluster_of}
    network = Network(topology, boards=boards, group_of=cluster_of)
    return Scenario(network=network, group_of=cluster_of,
                    attribute="sound", field=field)


def _monitor(seed: int, episode: int) -> Episode:
    scenario = grid_rooms_scenario(
        side=20, rooms_per_axis=4,
        seed=derive_seed(seed, "monitor", episode, "field"))
    return MonitorEpisode(scenario)


#: ``churn``'s event at the start of each epoch, cycling: 7 deaths and
#: 3 births per 10 epochs, the ``harsh`` preset's 0.35:0.15 mix.
CHURN_PATTERN = "DDBDDDBDDB"


def _churn(seed: int, episode: int) -> Episode:
    """``monitor`` with one node death or birth at every epoch.

    Victims, newborn positions and clusters are seeded Poisson draws
    from :meth:`ChurnSchedule.poisson
    <repro.network.churn.ChurnSchedule.poisson>`, taken in order; only
    their timing is fixed by ``CHURN_PATTERN``. With Poisson timing the
    number of deaths, births and quiet epochs varies from run to run and
    drags the step-time percentiles with it.
    """
    scenario = grid_rooms_scenario(
        side=20, rooms_per_axis=4,
        seed=derive_seed(seed, "churn", episode, "field"))
    topology = scenario.network.topology
    epochs = WARMUP_EPOCHS + WORKLOADS["churn"].epochs
    # At one draw per epoch on average over twice the episode, the
    # generators yield far more than an episode needs of either kind.
    deaths = iter(ChurnSchedule.poisson(
        topology, 2 * epochs, death_rate=1.0, birth_rate=0.0,
        seed=derive_seed(seed, "churn", episode, "deaths")).events)
    births = iter(ChurnSchedule.poisson(
        topology, 2 * epochs, death_rate=0.0, birth_rate=1.0,
        seed=derive_seed(seed, "churn", episode, "births"),
        group_for=scenario.churn_group_for).events)
    events = []
    for epoch in range(1, epochs):
        kind = CHURN_PATTERN[epoch % len(CHURN_PATTERN)]
        event = next(births if kind == "B" else deaths)
        events.append(replace(event, epoch=epoch))
        if kind == "B" and event.group is not None:
            scenario.field.enroll(event.node_id, event.group)
    churn = ChurnIntervention(ChurnSchedule(events),
                              board_for=scenario.board_for)
    return MonitorEpisode(scenario, interventions=(churn,))


def _fila(seed: int, episode: int) -> Episode:
    return FilaEpisode(
        fila_scenario(derive_seed(seed, "fila", episode, "field")))


def _turnover(seed: int, episode: int) -> Episode:
    scenario = grid_rooms_scenario(
        side=10, rooms_per_axis=4,
        seed=derive_seed(seed, "turnover", episode, "field"))
    arrivals = random.Random(derive_seed(seed, "turnover", episode,
                                         "arrivals"))
    return TurnoverEpisode(scenario, arrivals)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build an episode and how long to
    run it. Why each workload exists is recorded in ``BENCHMARK.json``
    and ``bench/README.md``."""

    name: str
    #: Timed epochs per episode.
    epochs: int
    #: Distinct episodes per 10 s of ``--seconds``. An untraced run
    #: times each episode twice, so ten seconds of ``--seconds`` is
    #: about ten seconds of timed work on a 2020s x86 core.
    episodes: int
    build: Callable[[int, int], Episode]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("monitor", epochs=50, episodes=4, build=_monitor),
    Workload("fila", epochs=40, episodes=8, build=_fila),
    Workload("churn", epochs=50, episodes=4, build=_churn),
    Workload("turnover", epochs=120, episodes=4, build=_turnover),
)}

"""The System Panel: live savings statistics (§I, §IV-B).

"KSpot's system panel … continuously displays the savings in energy
and messages that our system yields." The panel compares the running
algorithm's cumulative cost against a baseline's (TAG by default) and
keeps a time series of per-epoch savings for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import ValidationError
from ..network.stats import NetworkStats


@dataclass(frozen=True)
class SavingsSample:
    """Savings observed over one epoch (deltas, not cumulative)."""

    epoch: int
    messages: int
    baseline_messages: int
    payload_bytes: int
    baseline_payload_bytes: int
    radio_joules: float
    baseline_radio_joules: float

    @staticmethod
    def _saving(cost: float, baseline: float) -> float:
        if baseline <= 0:
            return 0.0
        return 100.0 * (1.0 - cost / baseline)

    @property
    def message_saving_pct(self) -> float:
        """Per-epoch message saving vs the baseline, in percent."""
        return self._saving(self.messages, self.baseline_messages)

    @property
    def byte_saving_pct(self) -> float:
        """Per-epoch payload-byte saving vs the baseline, in percent."""
        return self._saving(self.payload_bytes, self.baseline_payload_bytes)

    @property
    def energy_saving_pct(self) -> float:
        """Per-epoch radio-energy saving vs the baseline, in percent."""
        return self._saving(self.radio_joules, self.baseline_radio_joules)

    def plus(self, other: "SavingsSample", epoch: int) -> "SavingsSample":
        """Component-wise total of two samples, stamped ``epoch`` —
        the incremental step the panels' running totals accumulate by."""
        return SavingsSample(
            epoch=epoch,
            messages=self.messages + other.messages,
            baseline_messages=(self.baseline_messages
                               + other.baseline_messages),
            payload_bytes=self.payload_bytes + other.payload_bytes,
            baseline_payload_bytes=(self.baseline_payload_bytes
                                    + other.baseline_payload_bytes),
            radio_joules=self.radio_joules + other.radio_joules,
            baseline_radio_joules=(self.baseline_radio_joules
                                   + other.baseline_radio_joules),
        )

    def as_dict(self) -> dict:
        """Raw costs plus derived savings, JSON-ready (the CLI's
        ``--format json`` serialisation of a panel sample)."""
        return {
            "epoch": self.epoch,
            "messages": self.messages,
            "baseline_messages": self.baseline_messages,
            "payload_bytes": self.payload_bytes,
            "baseline_payload_bytes": self.baseline_payload_bytes,
            "radio_joules": self.radio_joules,
            "baseline_radio_joules": self.baseline_radio_joules,
            "message_saving_pct": self.message_saving_pct,
            "byte_saving_pct": self.byte_saving_pct,
            "energy_saving_pct": self.energy_saving_pct,
        }


@dataclass(frozen=True)
class RecoveryRecord:
    """One session-level recovery pass after a churn event batch.

    Attributes:
        epoch: Shared-clock epoch the recovery ran at.
        failed: Node ids whose failure this pass absorbed.
        joined: Node ids whose join this pass absorbed.
        reprimed: Node states the engine invalidated (they re-ship full
            views on the next epoch — the session's recovery traffic).
        repair_edges: Tree edges the network's incremental repair
            created for these events (attach handshakes on the air).
    """

    epoch: int
    failed: tuple[int, ...]
    joined: tuple[int, ...]
    reprimed: int
    repair_edges: int


@dataclass
class RecoveryLog:
    """Per-session churn-recovery accounting (shown on the panel)."""

    records: list[RecoveryRecord] = field(default_factory=list)

    def record(self, entry: RecoveryRecord) -> None:
        """Append one recovery pass."""
        self.records.append(entry)

    @property
    def events(self) -> int:
        """Total churn events this session recovered from."""
        return sum(len(r.failed) + len(r.joined) for r in self.records)

    @property
    def failures(self) -> int:
        """Node failures absorbed."""
        return sum(len(r.failed) for r in self.records)

    @property
    def joins(self) -> int:
        """Node joins absorbed."""
        return sum(len(r.joined) for r in self.records)

    @property
    def reprimed(self) -> int:
        """Total node states invalidated and re-primed."""
        return sum(r.reprimed for r in self.records)

    @property
    def repair_edges(self) -> int:
        """Total repair edges (attach handshakes) absorbed."""
        return sum(r.repair_edges for r in self.records)

    def summary(self) -> dict[str, int]:
        """Headline recovery counters (for printing / JSON)."""
        return {
            "events": self.events,
            "failures": self.failures,
            "joins": self.joins,
            "reprimed": self.reprimed,
            "repair_edges": self.repair_edges,
        }


class RecordedPanel:
    """A panel-shaped view over already-recorded savings samples.

    Live :class:`SystemPanel` instances observe two stat ledgers and
    cannot leave their process; shard workers therefore serialize the
    *samples* (plain frozen dataclasses) into their result envelope,
    and the merging side rebuilds this read-only stand-in — exposing
    the same ``samples`` / ``cumulative`` surface — so
    :meth:`SystemPanel.aggregate` can fold fleet-wide savings across
    process boundaries exactly as it does across live sessions.
    """

    def __init__(self, samples: Iterable[SavingsSample]):
        self.samples: list[SavingsSample] = list(samples)
        self._totals: SavingsSample | None = None
        for sample in self.samples:
            self._totals = (sample if self._totals is None
                            else self._totals.plus(
                                sample,
                                epoch=max(self._totals.epoch, sample.epoch)))

    @classmethod
    def from_dicts(cls, dicts: "Iterable[dict]") -> "RecordedPanel":
        """Rebuild from :meth:`SavingsSample.as_dict` payloads (the
        derived ``*_pct`` keys are recomputed, not trusted)."""
        fields_wanted = ("epoch", "messages", "baseline_messages",
                        "payload_bytes", "baseline_payload_bytes",
                        "radio_joules", "baseline_radio_joules")
        return cls(SavingsSample(**{name: entry[name]
                                    for name in fields_wanted})
                   for entry in dicts)

    @property
    def cumulative(self) -> SavingsSample:
        """Totals over the recorded series (mirrors
        :attr:`SystemPanel.cumulative`) — pre-folded at construction,
        O(1) per read."""
        if self._totals is None:
            raise ValidationError("no epochs sampled yet")
        return self._totals


class SystemPanel:
    """Tracks two stat ledgers and derives the savings series.

    The panel observes the stats of the network running the KSpot
    algorithm and the stats of an identical shadow network running the
    baseline, sampling both once per epoch. When the session hands the
    panel its :class:`RecoveryLog`, the wall display can show how much
    churn the session has survived next to the savings series.
    """

    def __init__(self, system: NetworkStats, baseline: NetworkStats,
                 baseline_name: str = "tag",
                 recovery: RecoveryLog | None = None):
        self._system = system
        self._baseline = baseline
        self.baseline_name = baseline_name
        self.recovery = recovery
        self._last_system = system.snapshot()
        self._last_baseline = baseline.snapshot()
        self.samples: list[SavingsSample] = []
        self._epoch = 0
        #: Running component-wise total, accumulated per sample so
        #: :attr:`cumulative` is O(1) instead of re-summing the series.
        self._totals: SavingsSample | None = None

    def sample(self) -> SavingsSample:
        """Close the current epoch and record its savings."""
        if self._baseline is None:
            raise ValidationError("the panel's session has stopped")
        system_now = self._system.snapshot()
        baseline_now = self._baseline.snapshot()
        system_delta = system_now.minus(self._last_system)
        baseline_delta = baseline_now.minus(self._last_baseline)
        entry = SavingsSample(
            epoch=self._epoch,
            messages=system_delta.messages,
            baseline_messages=baseline_delta.messages,
            payload_bytes=system_delta.payload_bytes,
            baseline_payload_bytes=baseline_delta.payload_bytes,
            radio_joules=system_delta.tx_joules + system_delta.rx_joules,
            baseline_radio_joules=(baseline_delta.tx_joules
                                   + baseline_delta.rx_joules),
        )
        self.samples.append(entry)
        self._totals = (entry if self._totals is None
                        else self._totals.plus(entry, epoch=entry.epoch))
        self._last_system = system_now
        self._last_baseline = baseline_now
        self._epoch += 1
        return entry

    def release(self) -> None:
        """Stop observing the two ledgers once the session stops.

        The samples and running totals stay readable. The baseline
        ledger's drain hook is its shadow network's, so holding that
        ledger would keep the whole shadow deployment alive.
        """
        self._system = self._baseline = None

    @staticmethod
    def _summed(samples: "Iterable[SavingsSample]",
                epoch: int) -> SavingsSample:
        """One sample holding the component-wise totals of many."""
        samples = tuple(samples)
        return SavingsSample(
            epoch=epoch,
            messages=sum(s.messages for s in samples),
            baseline_messages=sum(s.baseline_messages for s in samples),
            payload_bytes=sum(s.payload_bytes for s in samples),
            baseline_payload_bytes=sum(
                s.baseline_payload_bytes for s in samples),
            radio_joules=sum(s.radio_joules for s in samples),
            baseline_radio_joules=sum(
                s.baseline_radio_joules for s in samples),
        )

    @property
    def cumulative(self) -> SavingsSample:
        """Totals since the panel started observing (the running
        accumulation — O(1), not a re-sum of the series)."""
        if self._totals is None:
            raise ValidationError("no epochs sampled yet")
        return self._totals

    @staticmethod
    def aggregate(panels: "Iterable[SystemPanel]") -> SavingsSample:
        """Fleet-wide savings across many sessions' panels.

        The multi-query server keeps one panel per session; the wall
        display wants a single number for the whole deployment. Sums
        every panel's cumulative costs (panels that have not sampled an
        epoch yet contribute zero) and reports them as one sample whose
        ``epoch`` is the deepest epoch any panel has closed.
        """
        panels = tuple(panels)
        if not panels:
            raise ValidationError("no panels to aggregate")
        totals = [panel.cumulative for panel in panels if panel.samples]
        if not totals:
            raise ValidationError("no epochs sampled yet")
        return SystemPanel._summed(totals,
                                   epoch=max(s.epoch for s in totals))

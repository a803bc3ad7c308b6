"""Abstract syntax tree of the query dialect.

Nodes are frozen dataclasses; :meth:`Query.unparse` round-trips back to
canonical query text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..units import Duration

#: Canonical aggregate names. ``AVERAGE`` normalises to ``AVG``.
AGGREGATES = ("AVG", "MIN", "MAX", "SUM", "COUNT")


@dataclass(frozen=True)
class ColumnRef:
    """A bare attribute reference (``roomid``, ``sound``, ``nodeid``)."""

    name: str

    def unparse(self) -> str:
        return self.name


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate over an attribute (``AVERAGE(sound)``)."""

    func: str
    argument: str

    def unparse(self) -> str:
        return f"{self.func}({self.argument})"


@dataclass(frozen=True)
class Literal:
    """A number or string constant in a predicate."""

    value: float | str

    def unparse(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        if float(self.value) == int(self.value):
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True)
class Comparison:
    """``attribute op literal`` (e.g. ``sound > 50``)."""

    left: ColumnRef
    op: str
    right: Literal

    def unparse(self) -> str:
        return f"{self.left.unparse()} {self.op} {self.right.unparse()}"


@dataclass(frozen=True)
class NotOp:
    """Logical negation."""

    operand: "Predicate"

    def unparse(self) -> str:
        return f"NOT ({self.operand.unparse()})"


@dataclass(frozen=True)
class BoolOp:
    """N-ary AND / OR."""

    op: str  # "AND" | "OR"
    operands: tuple["Predicate", ...]

    def unparse(self) -> str:
        joined = f" {self.op} ".join(
            f"({operand.unparse()})" if isinstance(operand, BoolOp)
            else operand.unparse()
            for operand in self.operands
        )
        return joined


Predicate = Union[Comparison, NotOp, BoolOp]


@dataclass(frozen=True)
class SelectItem:
    """One projection: a column or an aggregate, optionally aliased."""

    expr: ColumnRef | AggregateCall
    alias: str | None = None

    def unparse(self) -> str:
        text = self.expr.unparse()
        if self.alias:
            text += f" AS {self.alias}"
        return text


@dataclass(frozen=True)
class Query:
    """A parsed KSpot query."""

    select: tuple[SelectItem, ...]
    source: str
    top_k: int | None = None
    where: Predicate | None = None
    group_by: str | None = None
    epoch: Duration | None = None
    history: Duration | None = None
    lifetime: Duration | None = None

    @property
    def aggregates(self) -> tuple[AggregateCall, ...]:
        """All aggregate calls in the select list."""
        return tuple(item.expr for item in self.select
                     if isinstance(item.expr, AggregateCall))

    @property
    def plain_columns(self) -> tuple[ColumnRef, ...]:
        """All bare column references in the select list."""
        return tuple(item.expr for item in self.select
                     if isinstance(item.expr, ColumnRef))

    @property
    def is_top_k(self) -> bool:
        """True for ranking queries (``SELECT TOP k …``)."""
        return self.top_k is not None

    def unparse(self) -> str:
        """Canonical query text."""
        parts = ["SELECT"]
        if self.top_k is not None:
            parts.append(f"TOP {self.top_k}")
        parts.append(", ".join(item.unparse() for item in self.select))
        parts.append(f"FROM {self.source}")
        if self.where is not None:
            parts.append(f"WHERE {self.where.unparse()}")
        if self.group_by is not None:
            parts.append(f"GROUP BY {self.group_by}")
        if self.epoch is not None:
            parts.append(f"EPOCH DURATION {self.epoch}")
        if self.history is not None:
            parts.append(f"WITH HISTORY {self.history}")
        if self.lifetime is not None:
            parts.append(f"LIFETIME {self.lifetime}")
        return " ".join(parts)

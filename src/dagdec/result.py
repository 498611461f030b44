"""Decode results shared by the lattice and automaton decoders."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

STATUS_OK = "ok"
STATUS_EMPTY = "empty_language"
STATUS_EMPTY_INTERSECTION = "empty_intersection"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class DecodeResult:
    """One decoded hypothesis.

    `cost` is the raw path cost (negative log-likelihood, lower is better);
    `adjusted_cost` additionally carries the length-penalty-scaled cost when
    a length constraint was applied. `constraints_met` has one flag per
    requested constraint phrase, in request order.
    """

    status: str = STATUS_OK
    tokens: tuple[int, ...] = ()
    text: str | None = None
    cost: float = math.inf
    adjusted_cost: float | None = None
    constraints_met: tuple[bool, ...] = ()
    note: str | None = None
    extra: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        d = {
            "status": self.status,
            "tokens": list(self.tokens),
            "text": self.text,
            "cost": self.cost if math.isfinite(self.cost) else None,
            "adjusted_cost": self.adjusted_cost,
            "constraints_met": list(self.constraints_met),
        }
        if self.note is not None:
            d["note"] = self.note
        d.update(self.extra)
        return d

"""Sliding-window and fence accounting for the live serving tier.

The daemon's time model, kept free of any simulation state so the epoch
arithmetic is testable in isolation:

* the horizon ``[0, horizon_minutes)`` is cut into **epochs** of
  ``epoch_minutes`` (the last one truncated); epoch ``k`` ingests the
  arrivals in ``[k * epoch, min((k+1) * epoch, horizon))``;
* after ingesting through ``ingest_clock = t1``, everything whose merge
  window closed before the **fence** ``max(0, t1 - fence_minutes)`` is
  committed — the fence lag is the daemon's decision margin: a tree is
  only emitted once no future arrival can still join it *and* the clock
  has moved ``fence_minutes`` past its window, so commit decisions are
  always at least the lag ahead of the data they depend on;
* a **drain** (end of stream) commits everything that remains; drained
  records carry no fence (there is none — the stream ended).

``fence_minutes`` must be strictly positive: with a zero lag a future
arrival exactly on a committed tree's cutoff could still belong to it,
breaking committed-prefix immutability.  ``LiveHorizon`` additionally
enforces the monotonicity every record sequence must satisfy — epochs
advance one at a time and fences never move backwards — so a daemon bug
surfaces as a loud error instead of a silently reordered schedule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from ..fleet.engine import FleetPolicy

__all__ = ["LIVE_POLICIES", "LiveConfig", "LiveHorizon"]

#: policy kinds the live tier serves: those whose merge structure is a
#: pure function of the arrivals seen so far (slotted or immediate).
#: Delay-guaranteed's forest is prefix-closed too (one template tree per
#: L, tiled), but the daemon has no template commit path yet; the
#: offline-optimal forest depends on the final slot count n, and
#: general-offline optimises over the whole trace.  All three stay batch-only.
LIVE_POLICIES = (
    "batched-dyadic",
    "immediate-dyadic",
    "pure-batching",
    "unicast",
)


@dataclass(frozen=True)
class LiveConfig:
    """Time model + policy of one daemon run (see module docstring)."""

    delay_minutes: float
    horizon_minutes: float
    epoch_minutes: float
    fence_minutes: float
    policy: str = "batched-dyadic"

    def __post_init__(self) -> None:
        for name in ("delay_minutes", "horizon_minutes", "epoch_minutes"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not (math.isfinite(self.fence_minutes) and self.fence_minutes > 0):
            raise ValueError(
                f"fence_minutes must be strictly positive (a zero lag lets a "
                f"boundary arrival join a committed tree), got {self.fence_minutes!r}"
            )
        if self.epoch_minutes > self.horizon_minutes:
            raise ValueError(
                f"epoch_minutes {self.epoch_minutes} exceeds the horizon "
                f"{self.horizon_minutes}"
            )
        epochs = self.horizon_minutes / self.epoch_minutes
        if not epochs < 2.0**63:  # inf too; epochs are counted in int64
            raise ValueError(
                f"horizon_minutes / epoch_minutes = {epochs:g} epochs do not fit in int64"
            )
        if self.policy not in LIVE_POLICIES:
            raise ValueError(
                f"policy {self.policy!r} is not live-servable; "
                f"choose from {LIVE_POLICIES}"
            )

    @property
    def num_epochs(self) -> int:
        return int(math.ceil(self.horizon_minutes / self.epoch_minutes))

    def epoch_bounds(self, k: int) -> Tuple[float, float]:
        """``[t0, t1)`` of epoch ``k`` in minutes (last epoch truncated)."""
        if not 0 <= k < self.num_epochs:
            raise ValueError(f"epoch {k} outside [0, {self.num_epochs})")
        t0 = k * self.epoch_minutes
        t1 = min((k + 1) * self.epoch_minutes, self.horizon_minutes)
        return t0, t1

    def fence_at(self, ingest_clock: float) -> float:
        """Commit fence after ingesting through ``ingest_clock`` minutes."""
        return max(0.0, ingest_clock - self.fence_minutes)

    def fleet_policy(self) -> FleetPolicy:
        return FleetPolicy(self.policy)

    def to_payload(self) -> dict:
        return {
            "delay_minutes": self.delay_minutes,
            "horizon_minutes": self.horizon_minutes,
            "epoch_minutes": self.epoch_minutes,
            "fence_minutes": self.fence_minutes,
            "policy": self.policy,
        }

    @staticmethod
    def from_payload(payload: dict) -> "LiveConfig":
        """Inverse of :meth:`to_payload`, for untrusted input.

        A missing key, a wrong type or a non-finite number raises
        ``ValueError`` naming the field; so does any value the
        constructor refuses.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"expected an object, got {type(payload).__name__}")
        values = {}
        for name in ("delay_minutes", "horizon_minutes", "epoch_minutes", "fence_minutes"):
            if name not in payload:
                raise ValueError(f"{name}: missing")
            value = payload[name]
            # JSON ints may exceed float range; abs(nan) <= max is False
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max
            ):
                raise ValueError(f"{name}: expected a finite number, got {value!r}")
            values[name] = float(value)
        if "policy" not in payload:
            raise ValueError("policy: missing")
        if not isinstance(payload["policy"], str):
            raise ValueError(f"policy: expected a string, got {payload['policy']!r}")
        return LiveConfig(policy=payload["policy"], **values)


class LiveHorizon:
    """Monotone epoch/fence cursor over a :class:`LiveConfig`.

    ``next_epoch()`` says which epoch may begin, without advancing;
    ``begin_epoch(k)`` validates the advance (exactly one epoch at a
    time, starting at 0) and returns the epoch's ``(t0, t1)``;
    afterwards :attr:`ingest_clock` and :attr:`fence` reflect the epoch
    just ingested.  ``mark_drained`` ends the stream: the fence
    disappears (everything commits) and no further epoch may begin.
    """

    def __init__(self, config: LiveConfig):
        self.config = config
        self.epoch = -1  # last ingested epoch; -1 = nothing yet
        self.ingest_clock = 0.0
        self.fence: Optional[float] = 0.0
        self.drained = False

    @property
    def exhausted(self) -> bool:
        """True when every epoch has been ingested."""
        return self.epoch + 1 >= self.config.num_epochs

    def next_epoch(self) -> Tuple[int, float, float]:
        """``(k, t0, t1)`` of the epoch that may begin next, without
        advancing: ``RuntimeError`` after a drain, ``ValueError`` past
        the last epoch."""
        if self.drained:
            raise RuntimeError("the stream was drained; no further epochs")
        k = self.epoch + 1
        return (k, *self.config.epoch_bounds(k))

    def begin_epoch(self, k: int) -> Tuple[float, float]:
        next_k, t0, t1 = self.next_epoch()
        if k != next_k:
            raise ValueError(
                f"epochs must advance one at a time: got {k} after {self.epoch}"
            )
        self.epoch = k
        self.ingest_clock = t1
        fence = self.config.fence_at(t1)
        assert self.fence is not None and fence >= self.fence  # lag is constant
        self.fence = fence
        return t0, t1

    def seek(self, k: int) -> None:
        """Jump a fresh cursor to just after epoch ``k`` (restore path).

        Leaves the cursor exactly where ``begin_epoch(0..k)`` would; ``k =
        -1`` means nothing ingested yet.
        """
        if self.epoch != -1 or self.drained:
            raise RuntimeError("seek needs a fresh cursor")
        if k == -1:
            return
        _t0, t1 = self.config.epoch_bounds(k)
        self.epoch = k
        self.ingest_clock = t1
        self.fence = self.config.fence_at(t1)

    def mark_drained(self) -> None:
        if self.drained:
            raise RuntimeError("already drained")
        self.drained = True
        self.fence = None

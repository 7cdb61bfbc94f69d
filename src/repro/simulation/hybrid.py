"""The hybrid server of Section 5: Delay Guaranteed when busy, dyadic when
quiet.

    "Another related area for future work is to consider a hybrid server
    that uses the delay guaranteed algorithm when it is heavily loaded (to
    ensure that the maximum bandwidth requirement is met), and switches to
    another more efficient algorithm (like the dyadic algorithm) when the
    client arrival intensity is low."

Implementation: the policy watches a sliding window of recent per-slot
arrival counts.  When the estimated rate crosses ``rate_high`` (arrivals
per slot) it enters DG mode — a stream at every slot end, merged along the
static Fibonacci tree anchored at the mode-entry slot; when the rate falls
below ``rate_low`` it returns to dyadic mode, where only non-empty slot
ends start streams, merged by the on-line dyadic stack.  Hysteresis
(``rate_low < rate_high``) prevents mode flapping around the threshold.

Mode changes are clean because both modes only ever extend *live* streams
(consecutive-slot and alpha <= 2 window invariants) and a DG tree cut
short at a mode exit is a preorder prefix — a valid merge tree whose
stream lengths have already adapted to the slots actually seen.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, TYPE_CHECKING

from ..baselines.dyadic import DyadicOnline, DyadicParams
from ..core.online import OnlineScheduler
from .policies import Policy, _serve_dyadic_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .client import Client
    from .server import Simulation

__all__ = ["HybridPolicy"]


class HybridPolicy(Policy):
    """DG under load, dyadic when idle, with hysteresis switching."""

    uses_slots = True

    def __init__(
        self,
        L: int,
        params: Optional[DyadicParams] = None,
        window_slots: int = 20,
        rate_high: float = 1.0,
        rate_low: float = 0.5,
    ):
        if window_slots < 1:
            raise ValueError("window_slots must be >= 1")
        if not 0 <= rate_low <= rate_high:
            raise ValueError("need 0 <= rate_low <= rate_high")
        self.name = "hybrid"
        self.L = L
        self.scheduler = OnlineScheduler(L)
        self.params = params or DyadicParams()
        self.window_slots = window_slots
        self.rate_high = rate_high
        self.rate_low = rate_low
        self._recent: Deque[int] = deque(maxlen=window_slots)
        self._recent_sum = 0
        self._mode = "dyadic"
        self._dg_anchor: Optional[int] = None
        self._dyadic = DyadicOnline(L, self.params)
        #: (slot_index, mode) history of mode switches, for analysis
        self.mode_log: List[tuple] = []

    # -- rate estimation -------------------------------------------------------

    def _observe(self, count: int) -> None:
        # Running integer sum: O(1) per slot instead of re-summing the
        # whole window, and exactly equal to sum(self._recent) — the
        # counts are ints, so no float accumulation drift is possible.
        if len(self._recent) == self.window_slots:
            self._recent_sum -= self._recent[0]
        self._recent.append(count)
        self._recent_sum += count

    def _rate(self) -> float:
        if not self._recent:
            return 0.0
        return self._recent_sum / len(self._recent)

    def _update_mode(self, slot_index: int) -> None:
        rate = self._rate()
        if self._mode == "dyadic" and rate >= self.rate_high:
            self._mode = "dg"
            self._dg_anchor = slot_index
            self.mode_log.append((slot_index, "dg"))
        elif self._mode == "dg" and rate < self.rate_low:
            self._mode = "dyadic"
            self._dg_anchor = None
            # Start the dyadic builder fresh: resuming an old dyadic window
            # across the DG interlude would interleave tree label ranges,
            # which breaks the merge-forest property (trees must be
            # contiguous in time).  A new root will start instead.
            self._dyadic = DyadicOnline(self.L, self.params)
            self.mode_log.append((slot_index, "dyadic"))

    # -- slot handling ------------------------------------------------------------

    def on_slot_end(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        self._observe(len(clients))
        self._update_mode(slot_index)
        if self._mode == "dg":
            self._serve_dg(slot_index, clients, sim)
        else:
            self._serve_dyadic(slot_index, clients, sim)

    def _serve_dg(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        scale = sim.slot
        rel = slot_index - self._dg_anchor
        node = rel % self.scheduler.size
        label = (slot_index + 1) * scale
        base = self._dg_anchor + (rel - node)
        path_rel = self.scheduler.receiving_path(node)
        path = tuple((base + p + 1) * scale for p in path_rel)
        if node == 0:
            sim.start_stream(label, planned_units=self.L * scale, parent_label=None)
        else:
            parent_label = path[-2]
            sim.start_stream(
                label, planned_units=label - parent_label, parent_label=parent_label
            )
            for depth in range(len(path) - 2, 0, -1):
                a, pa = path[depth], path[depth - 1]
                sim.extend_stream(a, 2 * label - a - pa)
        for c in clients:
            c.assign(label, path)

    def _serve_dyadic(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        if not clients:
            return
        scale = sim.slot
        label = (slot_index + 1) * scale
        node = self._dyadic.push(label / scale)
        path = _serve_dyadic_path(sim, node, self.L, scale, label)
        for c in clients:
            c.assign(label, path)

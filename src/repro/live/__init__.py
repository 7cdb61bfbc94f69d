"""Rolling-horizon online serving tier (``python -m repro live``).

The paper's on-line guarantees are about serving an *unbounded* arrival
stream; every other tier in this repo is batch-replay.  ``repro.live``
closes that gap: :class:`LiveDaemon` ingests arrivals in epoch batches,
maintains per-object merge forests incrementally
(:class:`repro.fastpath.incremental.IncrementalFlatForest`), commits
streams once the fence passes their merge windows
(:mod:`repro.live.horizon`), and emits channel schedules the moment each
tree is final (:mod:`repro.live.schedule`) — ahead of (accelerated)
wall-clock, with a cumulative report bit-identical to the offline batch
oracle on the same trace.  Per-epoch work scales with the new commits
and the open window, not with elapsed history: each record's digest is
one link of a hash chain over the newly committed streams, and
checkpoints are resume tokens (``repro.live-checkpoint.v2``) that restore
without replaying a single epoch.  The fence/epoch invariants and the
digest chain are standing ``burnin.contracts`` checks, soak-tested by
the live episode family in ``burnin.soak``.
"""

from .daemon import (
    CHECKPOINT_SCHEMA,
    EpochRecord,
    LiveDaemon,
    LiveReport,
    chain_digests,
    live_digest,
)
from .horizon import LIVE_POLICIES, LiveConfig, LiveHorizon
from .schedule import ChannelPlanner

__all__ = [
    "CHECKPOINT_SCHEMA",
    "ChannelPlanner",
    "EpochRecord",
    "LIVE_POLICIES",
    "LiveConfig",
    "LiveDaemon",
    "LiveHorizon",
    "LiveReport",
    "chain_digests",
    "live_digest",
]

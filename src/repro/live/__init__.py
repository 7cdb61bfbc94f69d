"""Rolling-horizon online serving tier (``python -m repro live``).

The paper's on-line guarantees are about serving an *unbounded* arrival
stream; every other tier in this repo is batch-replay.  ``repro.live``
closes that gap: :class:`LiveDaemon` ingests arrivals in epoch batches,
one ragged pass over the whole catalog per epoch, holds every object's
open window in one incremental forest
(:class:`repro.fastpath.incremental.IncrementalFlatForest`), commits
streams once the fence passes their merge windows
(:mod:`repro.live.horizon`), building each tree once, at commit, and
emits channel schedules the moment each tree is final
(:mod:`repro.live.schedule`) — ahead of (accelerated)
wall-clock, with a cumulative report bit-identical to the offline batch
oracle on the same trace.  Per-epoch work scales with the new commits
and the open window, not with elapsed history: each record's digest is
one link of a hash chain over the newly committed streams, and
checkpoints are resume tokens (``repro.live-checkpoint.v2``) that restore
without replaying a single epoch.  The fence/epoch invariants and the
digest chain are standing ``burnin.contracts`` checks, soak-tested by
the live episode family in ``burnin.soak``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "CHECKPOINT_SCHEMA": "daemon",
    "ChannelPlanner": "schedule",
    "EpochRecord": "daemon",
    "LIVE_POLICIES": "horizon",
    "LiveConfig": "horizon",
    "LiveDaemon": "daemon",
    "LiveHorizon": "horizon",
    "LiveReport": "daemon",
    "chain_digests": "daemon",
    "live_digest": "daemon",
})

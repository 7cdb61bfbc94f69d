"""Event-driven Media-on-Demand server simulator and verification."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "BandwidthMetrics": "metrics",
    "BatchedDyadicPolicy": "policies",
    "Client": "client",
    "ChannelAssignment": "channels",
    "DelayGuaranteedPolicy": "policies",
    "GeneralOfflinePolicy": "policies",
    "HybridPolicy": "hybrid",
    "Event": "events",
    "EventQueue": "events",
    "ImmediateDyadicPolicy": "policies",
    "OfflineOptimalPolicy": "policies",
    "Policy": "policies",
    "PureBatchingPolicy": "policies",
    "Simulation": "server",
    "SimulationResult": "server",
    "Stream": "stream",
    "StreamInterval": "channels",
    "assign_channels": "channels",
    "assign_forest_channels": "channels",
    "flat_forest_intervals": "channels",
    "forest_intervals": "channels",
    "min_forest_channels": "channels",
    "peak_concurrency": "channels",
    "UnicastPolicy": "policies",
    "VerificationReport": "verify",
    "verify_forest": "verify",
    "verify_forest_continuous": "verify",
    "verify_simulation": "verify",
})

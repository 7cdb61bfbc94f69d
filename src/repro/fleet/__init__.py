"""Catalog-scale batched serving: slot-sweep kernel, sharded runner,
capacity planning, and workload scenarios.

See ``engine.py`` for the slot-sweep contract (which policies can skip
the event queue and why), ``runner.py`` for the sharded catalog fan-out,
``capacity.py`` for the delay-bandwidth frontier, and ``scenarios.py``
for composable workload shapes.  ``python -m repro fleet`` ties them
together.
"""

from .capacity import (
    AdmissionReport,
    FrontierPoint,
    admission_report,
    capacity_frontier,
    default_delay_grid,
    dg_fleet_peak,
    min_fleet_delay,
    min_object_delay,
    render_frontier,
)
from .engine import (
    FLEET_POLICIES,
    SEGMENTED,
    SLOT_SWEEPABLE,
    BatchedResult,
    FleetPolicy,
    RaggedTrace,
    ShardResult,
    simulate_batched,
)
from .runner import (
    FleetObjectResult,
    FleetReport,
    install_task_fault_hook,
    iter_fleet,
    object_run,
    pool_map,
    run_fleet,
    sanitize_times,
    stored_workload,
)
from .scenarios import (
    SCENARIOS,
    Transformer,
    compose,
    constant_poisson_blend,
    diurnal,
    flash_crowd,
    inject,
    premiere_drop,
    scenario_workload,
    thinned,
)

__all__ = [
    "AdmissionReport",
    "BatchedResult",
    "FleetObjectResult",
    "FleetPolicy",
    "FleetReport",
    "FrontierPoint",
    "FLEET_POLICIES",
    "RaggedTrace",
    "SCENARIOS",
    "SEGMENTED",
    "SLOT_SWEEPABLE",
    "ShardResult",
    "Transformer",
    "admission_report",
    "capacity_frontier",
    "compose",
    "constant_poisson_blend",
    "default_delay_grid",
    "dg_fleet_peak",
    "diurnal",
    "flash_crowd",
    "inject",
    "install_task_fault_hook",
    "iter_fleet",
    "min_fleet_delay",
    "min_object_delay",
    "object_run",
    "pool_map",
    "premiere_drop",
    "render_frontier",
    "run_fleet",
    "sanitize_times",
    "scenario_workload",
    "simulate_batched",
    "stored_workload",
    "thinned",
]

"""Catalog-scale batched serving: slot-sweep kernel, sharded runner,
capacity planning, and workload scenarios.

See ``engine.py`` for the slot-sweep contract (which policies can skip
the event queue and why), ``runner.py`` for the sharded catalog fan-out,
``capacity.py`` for the delay-bandwidth frontier, and ``scenarios.py``
for composable workload shapes.  ``python -m repro fleet`` ties them
together.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "AdmissionReport": "capacity",
    "BatchedResult": "engine",
    "FleetObjectResult": "runner",
    "FleetPolicy": "engine",
    "FleetReport": "runner",
    "FrontierPoint": "capacity",
    "FLEET_POLICIES": "engine",
    "RaggedTrace": "engine",
    "SCENARIOS": "scenarios",
    "SEGMENTED": "engine",
    "SLOT_SWEEPABLE": "engine",
    "ShardResult": "engine",
    "Transformer": "scenarios",
    "admission_report": "capacity",
    "capacity_frontier": "capacity",
    "compose": "scenarios",
    "constant_poisson_blend": "scenarios",
    "default_delay_grid": "capacity",
    "dg_fleet_peak": "capacity",
    "diurnal": "scenarios",
    "flash_crowd": "scenarios",
    "inject": "scenarios",
    "install_task_fault_hook": "runner",
    "iter_fleet": "runner",
    "min_fleet_delay": "capacity",
    "min_object_delay": "capacity",
    "object_run": "runner",
    "pool_map": "runner",
    "premiere_drop": "scenarios",
    "render_frontier": "capacity",
    "run_fleet": "runner",
    "sanitize_times": "runner",
    "scenario_workload": "scenarios",
    "simulate_batched": "engine",
    "stored_workload": "runner",
    "thinned": "scenarios",
})

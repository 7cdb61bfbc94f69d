"""The burn-in tier: standing-invariant contracts + fault-injected soak.

The perf tiers (fastpath, fleet, sweeps) are pinned by golden fixtures
and equivalence tests over *clean* runs; this package asserts the system
holds its inviolables when the runtime misbehaves.  Three layers:

* :mod:`~repro.burnin.contracts` — the invariants (capacity, delay
  guarantee, replay-clean folds, paper cost bounds, cache accounting) as
  re-checkable :class:`ContractReport` batteries over any
  ``FleetReport`` / ``SweepResult`` / ``AdmissionReport``;
* :mod:`~repro.burnin.faults` — deterministic injectors (worker kills,
  torn cache artifacts, malformed traces, flash overload) wired into the
  production hooks
  (:func:`repro.fleet.runner.install_task_fault_hook`,
  :attr:`repro.sweeps.cache.SweepCache.read_hook`);
* :mod:`~repro.burnin.soak` — the episode driver behind
  ``python -m repro burnin``, which cycles scenarios x policies x fault
  families, re-checks every contract after every episode, and writes a
  byte-reproducible JSON evidence report.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ContractOutcome": "contracts",
    "ContractReport": "contracts",
    "FAULT_FAMILIES": "soak",
    "SoakConfig": "soak",
    "SoakReport": "soak",
    "TornArtifact": "faults",
    "TornSegment": "faults",
    "WorkerKill": "faults",
    "check_admission_report": "contracts",
    "check_columnar_store": "contracts",
    "check_fleet_report": "contracts",
    "check_sweep_result": "contracts",
    "corrupt_times": "faults",
    "flash_overload": "faults",
    "fleet_reports_equal": "contracts",
    "installed_task_fault": "faults",
    "run_soak": "soak",
})

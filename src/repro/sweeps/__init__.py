"""The sweep tier: declarative parameter grids over the batched kernel.

The paper's figures and tables — and every future scenario study — are
grids of points evaluated through the fast tier: closed-form ``Acost`` /
``Mcost`` / bound evaluation where a point needs no simulation at all,
and :func:`repro.fleet.engine.simulate_batched` where it does.  This
package supplies the grid language (:class:`SweepSpec`), the engine
(:func:`run_sweep`: cache-check, process sharding via the fleet pool,
columnar fold) and the content-hash artifact cache
(:class:`SweepCache`), plus the shared point evaluators the experiment
drivers declare their sweeps over.

Adding a figure is: write/pick an evaluator, declare a ``SweepSpec``,
format the rows (see README "The sweep tier").
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ARTIFACT_SCHEMA": "cache",
    "Axis": "spec",
    "QUARANTINE_DIR": "cache",
    "SweepSpec": "spec",
    "SweepCache": "cache",
    "SweepResult": "engine",
    "DEFAULT_CACHE_DIR": "cache",
    "canonical_json": "spec",
    "configure_sweeps": "engine",
    "run_sweep": "engine",
    "sweep_defaults": "engine",
})

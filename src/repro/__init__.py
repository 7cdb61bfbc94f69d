"""repro — Stream merging for Media-on-Demand with guaranteed start-up delay.

A full reproduction of Bar-Noy, Goshi & Ladner, "Off-line and on-line
guaranteed start-up delay for Media-on-Demand with stream merging"
(SPAA 2003; Journal of Discrete Algorithms 4, 2006, 72-105).

Subpackages
-----------
``repro.core``
    Merge trees, the O(n) optimal off-line algorithm (Fibonacci closed
    forms), full-cost optimisation, receive-all model, buffer bounds, the
    on-line Delay Guaranteed algorithm, client receiving programs, and
    analytic bounds.
``repro.simulation``
    Event-driven Media-on-Demand server simulator and forest verification.
``repro.arrivals``
    Workload generators (constant-rate, Poisson, every-slot) and traces.
``repro.baselines``
    Comparators: (alpha, beta)-dyadic stream merging, batching, unicast,
    patching.
``repro.experiments``
    One module per paper table/figure plus a registry and CLI
    (``python -m repro <experiment>``).

Quickstart
----------
>>> from repro.core import build_optimal_forest
>>> forest = build_optimal_forest(L=15, n=8)
>>> forest.full_cost(15)
36
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {"core": "core"})
__all__.append("__version__")

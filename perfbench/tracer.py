"""Stage timing with speed probes, and the span recorder for traced passes.

Every pass times the benchmark's own calls into the program (stages) and
takes speed probes between them (:class:`Stages`); untraced passes do only
that (:class:`StageTimer`).  A traced pass (:class:`Tracer`) also opens
spans in wrappers patched onto the module or class attribute each layer's
caller resolves at call time (``repro.fleet.runner.simulate_batched`` is
the name ``object_run`` looks up, so patching it there sees every engine
call).  Nothing under ``src/`` is edited.

Spans are kept in memory and written out after the timed window: a Chrome
trace-event file (opens in Perfetto or ``chrome://tracing``) and per-name
totals.  A span's self time is its duration minus the time its direct
child spans cover; the pass is single-threaded, so children never overlap.
The probes' memory (about 3 MB) counts in the pass's peak RSS.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: the speed probe's time on this benchmark's reference machine (2-vCPU
#: x86_64 VM, Python 3.11, numpy 2.4) when nothing else contends for it.
PROBE_REF_S = 0.008
#: a stage call takes a fresh probe when the last one is older than this.
PROBE_EVERY_S = 0.5
_PROBE_SMALL = np.random.default_rng(0).random(20_000)
_PROBE_LARGE = np.random.default_rng(1).random(300_000)


def speed_probe() -> float:
    """Seconds for a fixed piece of Python and numpy work (best of two).

    Shared machines run this benchmark at speeds that swing by 1.6x, in
    spells from a second to half a minute.  A probe next to a call tells
    how fast the machine was just then; scaling the call by
    ``PROBE_REF_S / probe`` cancels most of the swing.  The probe mixes
    interpreter-bound, cache-resident and memory-bound work like the
    workloads do: against a 100 ms numpy-and-Python job, the job's
    run-to-run spread (interquartile range over median) fell from 20% to
    8% once divided by the probe.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        x = 0
        for j in range(20_000):
            x += j * j
        np.sort(_PROBE_SMALL)
        np.sort(_PROBE_LARGE)
        np.cumsum(_PROBE_LARGE)
        len(tuple(map(float, range(50_000))))  # fresh pages: ~2 MB of objects
        best = min(best, time.perf_counter() - t0)
    return best


class Stages:
    """The benchmark's own calls into the program, with speed probes.

    A stage is one such call; ``call`` takes a probe before it when the
    last is stale, and ``close`` takes one after the last.  ``calibrated``
    scales every call by the probes on either side of it.
    """

    def __init__(self) -> None:
        self.calls: List[Tuple[str, float, float]] = []  # name, start, end
        self.probes: List[Tuple[float, float, float]] = []  # start, end, seconds

    def probe(self) -> None:
        start = time.perf_counter()
        seconds = speed_probe()
        self.probes.append((start, time.perf_counter(), seconds))

    def before_stage(self) -> None:
        if not self.probes or time.perf_counter() - self.probes[-1][1] > PROBE_EVERY_S:
            self.probe()

    def probe_time(self) -> float:
        return sum(end - start for start, end, _ in self.probes)

    def calibrated(self, window_s: float) -> Tuple[Dict[str, List[float]], float]:
        """``(stages, glue)``: each call's seconds at reference speed, in
        call order per name, and the rest of the window outside probes."""
        ends = [end for _, end, _ in self.probes]
        stages: Dict[str, List[float]] = defaultdict(list)
        for name, start, end in self.calls:
            i = bisect.bisect_right(ends, start) - 1
            j = bisect.bisect_left(ends, end)
            near = [self.probes[k][2] for k in (i, j) if 0 <= k < len(self.probes)]
            stages[name].append((end - start) * PROBE_REF_S / statistics.fmean(near))
        glue = window_s - self.probe_time() - sum(e - s for _, s, e in self.calls)
        speed = statistics.median(p for _, _, p in self.probes)
        return dict(stages), glue * PROBE_REF_S / speed


class StageTimer(Stages):
    """Untraced stand-in for the tracer: times only the stages; drops counts."""

    def call(self, name, fn, *args, **kwargs):
        self.before_stage()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((name, start, time.perf_counter()))

    def count(self, name, n=1):
        pass


class Tracer(Stages):
    """Nested spans and counters for one single-threaded pass."""

    def __init__(self) -> None:
        super().__init__()
        # (name, start_ns, end_ns, depth)
        self.events: List[Tuple[str, int, int, int]] = []
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._child_ns: List[int] = []  # per open span: time of its children
        self._open: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stage = not self._child_ns
        if stage:
            self.before_stage()
        outer = self._open[name] == 0  # a re-entered name counts once
        self._open[name] += 1
        self._child_ns.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            children = self._child_ns.pop()
            self._open[name] -= 1
            duration = end - start
            if self._child_ns:
                self._child_ns[-1] += duration
            if outer:
                self.inclusive[name] += duration * 1e-9
            self.self_time[name] += (duration - children) * 1e-9
            self.events.append((name, start, end, len(self._child_ns)))
            if stage:
                self.calls.append((name, start * 1e-9, end * 1e-9))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += int(n)

    # -- patching ------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable] = None,
        on_args: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`unwrap`.

        ``on_args(tracer, *args)`` and ``on_result(tracer, result)`` add
        counters; both run outside the span.  For a class, the raw function
        from its ``__dict__`` is wrapped, so instances still bind ``self``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(tracer, *args, **kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON ("X" events, in µs)."""
        if not self.events:
            return
        origin = min(s for _, s, _, _ in self.events)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (s - origin) / 1e3,
                "dur": (e - s) / 1e3,
                "pid": 1,
                "tid": 1,
            }
            for name, s, e, _ in sorted(self.events, key=lambda ev: (ev[1], -ev[2]))
        ]
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata},
                fh,
                separators=(",", ":"),
            )

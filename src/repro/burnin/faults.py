"""Deterministic, seed-driven fault injectors for the soak harness.

Every injector is a plain picklable object (it may travel to worker
processes) whose firing is a pure function of its construction
parameters plus explicit state — no wall clock, no global randomness —
so a soak episode that injects faults is exactly as reproducible as a
clean one.  The injection points live in the production modules:

* :func:`repro.fleet.runner.install_task_fault_hook` — called as
  ``hook(index, arg)`` in the process about to execute a pooled task
  (:class:`WorkerKill` hard-exits the worker there);
* :attr:`repro.sweeps.cache.SweepCache.read_hook` — called with the
  artifact path before every cache read (:class:`TornArtifact` corrupts
  the bytes there);
* workload ingestion — :func:`corrupt_times` malforms a valid arrival
  array (NaN/inf, reordering, duplicates, out-of-window entries) in a
  *non-destructive* way: the finite in-window multiset is preserved, so
  :func:`repro.fleet.runner.sanitize_times` recovers the fault-free run
  exactly;
* :func:`flash_overload` — grafts a crowd far beyond the provisioned
  budget onto one object's trace (the admission/shedding path must then
  degrade gracefully, never violate an admitted guarantee).
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..arrivals.traces import ArrivalTrace
from ..fleet.runner import install_task_fault_hook
from ..fleet.scenarios import flash_crowd

__all__ = [
    "WorkerKill",
    "TornArtifact",
    "TornSegment",
    "corrupt_times",
    "flash_overload",
    "installed_task_fault",
]


@dataclass(frozen=True)
class WorkerKill:
    """Hard-kill the worker process the first time it runs one task.

    ``os._exit`` (no cleanup, no exception) is the closest stand-in for
    an OOM kill or segfault the pool can experience; the executor
    surfaces it as ``BrokenProcessPool`` and
    :func:`repro.fleet.runner.pool_map` must recover by retrying the
    task in-process.  Two guards keep the fault deterministic and safe:

    * a marker file under ``marker_dir`` latches the kill to *exactly
      once* across processes — the retry (and any chunk-mate re-runs)
      see the marker and proceed;
    * the kill never fires in the parent process, so the in-process
      fallback can never take the driver down.
    """

    task_index: int
    marker_dir: str
    exit_code: int = 113

    def _marker(self) -> Path:
        return Path(self.marker_dir) / f"killed-{self.task_index}"

    def __call__(self, index: int, arg: object) -> None:
        if index != self.task_index:
            return
        if multiprocessing.parent_process() is None:
            return  # never kill the driver process
        try:
            self._marker().touch(exist_ok=False)
        except FileExistsError:
            return  # already fired once
        os._exit(self.exit_code)

    def fired(self) -> bool:
        """Whether the kill actually happened (the marker exists)."""
        return self._marker().exists()


@contextlib.contextmanager
def installed_task_fault(hook) -> Iterator:
    """Install a pool-task fault hook for the duration of a block,
    restoring whatever was installed before."""
    previous = install_task_fault_hook(hook)
    try:
        yield hook
    finally:
        install_task_fault_hook(previous)


class TornArtifact:
    """Corrupt every ``every``-th cache artifact read, cycling through
    corruption modes.

    Installed as :attr:`SweepCache.read_hook`; cache reads happen in the
    driver process, so plain counters keep the injection deterministic.
    ``corrupted`` afterwards equals the cache's ``quarantined`` delta if
    — and only if — the quarantine recovery path worked.
    """

    MODES: Tuple[str, ...] = ("truncate", "garbage", "wrong-schema", "wrong-key")

    def __init__(self, every: int = 2, modes: Sequence[str] = MODES):
        if every < 1:
            raise ValueError("every must be >= 1")
        unknown = set(modes) - set(self.MODES)
        if unknown:
            raise ValueError(f"unknown corruption modes {sorted(unknown)}")
        self.every = int(every)
        self.modes = tuple(modes)
        self.reads = 0
        self.corrupted = 0

    def __call__(self, path: Path) -> None:
        self.reads += 1
        if self.reads % self.every:
            return
        mode = self.modes[self.corrupted % len(self.modes)]
        if mode == "truncate":
            text = path.read_text()
            path.write_text(text[: max(1, len(text) // 2)])
        elif mode == "garbage":
            path.write_bytes(b"\x00\xffnot json at all\x00")
        elif mode == "wrong-schema":
            path.write_text(
                json.dumps({"schema": "bogus.v0", "metrics": {"x": 1}})
            )
        else:  # wrong-key: valid artifact recorded under a different hash
            from ..sweeps.cache import ARTIFACT_SCHEMA

            path.write_text(
                json.dumps(
                    {
                        "schema": ARTIFACT_SCHEMA,
                        "key": "0" * 64,
                        "metrics": {"x": 1},
                    }
                )
            )
        self.corrupted += 1


class TornSegment:
    """Corrupt a :mod:`repro.scale.columnar` store on disk, one mode per call.

    The storage-tier sibling of :class:`TornArtifact`: each invocation
    applies the next corruption mode to the store at ``root`` —

    * ``truncate`` — chop the tail off ``segment.bin`` (torn write /
      partial copy; the length no longer matches the index);
    * ``flip`` — overwrite bytes *inside* the segment, length intact
      (bit rot / overlapping write; only the per-column checksums can
      catch this one);
    * ``garbage-index`` — replace ``index.json`` with non-JSON bytes;
    * ``wrong-schema`` — a well-formed index claiming another schema;
    * ``missing-index`` — delete ``index.json`` (spool died pre-publish).

    Every mode must make :func:`repro.burnin.contracts.check_columnar_store`
    report a violation — a torn store may never verify clean — and none
    may crash the checker.  Plain counters keep the cycling
    deterministic, as with :class:`TornArtifact`.
    """

    MODES: Tuple[str, ...] = (
        "truncate", "flip", "garbage-index", "wrong-schema", "missing-index",
    )

    def __init__(self, root, modes: Sequence[str] = MODES):
        unknown = set(modes) - set(self.MODES)
        if unknown:
            raise ValueError(f"unknown corruption modes {sorted(unknown)}")
        self.root = os.fspath(root)
        self.modes = tuple(modes)
        self.torn = 0

    def __call__(self) -> str:
        """Apply the next mode; returns the mode applied."""
        from ..scale.columnar import SCHEMA

        segment = Path(self.root) / "segment.bin"
        index = Path(self.root) / "index.json"
        mode = self.modes[self.torn % len(self.modes)]
        if mode == "truncate":
            raw = segment.read_bytes()
            segment.write_bytes(raw[: max(0, len(raw) - max(1, len(raw) // 3))])
        elif mode == "flip":
            raw = bytearray(segment.read_bytes())
            if raw:
                mid = len(raw) // 2
                for k in range(mid, min(mid + 16, len(raw))):
                    raw[k] ^= 0xFF
                segment.write_bytes(bytes(raw))
        elif mode == "garbage-index":
            index.write_bytes(b"\x00\xffnot json at all\x00")
        elif mode == "wrong-schema":
            index.write_text(
                json.dumps({"schema": "bogus.v0", "total": 0, "objects": []})
            )
        else:  # missing-index
            with contextlib.suppress(FileNotFoundError):
                index.unlink()
        self.torn += 1
        return mode


def corrupt_times(
    times: Sequence[float],
    seed,
    horizon: Optional[float] = None,
    kinds: Sequence[str] = ("nan", "duplicate", "beyond-horizon", "shuffle"),
) -> np.ndarray:
    """Malform a valid arrival array without touching its valid content.

    Each kind *adds* garbage or reorders — NaN/inf/negative entries,
    exact duplicates of existing arrivals, entries at/past the horizon,
    a full permutation — so the finite in-window multiset survives and
    :func:`repro.fleet.runner.sanitize_times` recovers the original
    (sorted, deduplicated) array exactly.  Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    ts = np.asarray(times, dtype=np.float64)
    out = ts.copy()
    for kind in kinds:
        if kind == "nan":
            out = np.concatenate(
                [out, [np.nan, np.inf, -np.inf, -1.0, -1e9]]
            )
        elif kind == "duplicate":
            if ts.size:
                picks = rng.choice(ts, size=min(3, ts.size), replace=True)
                out = np.concatenate([out, picks])
        elif kind == "beyond-horizon":
            if horizon is not None:
                out = np.concatenate([out, [horizon, horizon * 2.0]])
        elif kind == "shuffle":
            out = rng.permutation(out)
        else:
            raise ValueError(f"unknown corruption kind {kind!r}")
    return out


def flash_overload(
    workload: Dict[str, ArrivalTrace],
    target: str,
    at: float,
    clients: int,
    spread: float = 1.0,
    seed=None,
) -> Dict[str, ArrivalTrace]:
    """A copy of ``workload`` with a crowd grafted onto ``target``.

    The overload fault: a surge sized past the provisioned budget.  The
    serving engine absorbs it (batching amortises the crowd); what the
    soak checks is the *capacity* side — admission control must shed
    honestly instead of violating an admitted guarantee.
    """
    if target not in workload:
        raise KeyError(f"overload target {target!r} not in the workload")
    return {**workload, target: flash_crowd(at, clients, spread, seed=seed)(workload[target])}

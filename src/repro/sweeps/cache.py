"""Content-addressed artifact cache for sweep points.

One JSON file per evaluated grid point, keyed by the point's content hash
(:meth:`repro.sweeps.spec.SweepSpec.point_key`), so re-rendering a figure
after a parameter tweak recomputes only the dirty points: untouched
points hit the cache, edited axes/fixed params/evaluators miss by
construction (the hash covers them all).

Values are restricted to JSON scalars (str/int/float/bool/None): Python's
``repr``-based float serialisation round-trips IEEE doubles exactly, so a
cache hit returns bit-identical metrics to a fresh evaluation.  Writes go
through a temp file + rename, making concurrent sweeps over one cache
directory safe (last writer wins with an intact artifact either way).

Robustness contract: a torn, truncated, garbage, too deeply nested,
wrong-schema or key-mismatched artifact, one whose integers exceed the
parser's digit limit, or one that lacks a metric the caller expects, is
**quarantined** — moved to ``<root>/quarantine/`` and counted both in
:attr:`SweepCache.quarantined` and as a miss — and the engine recomputes
the point.  Artifact corruption can degrade cache performance, never
correctness, and never raises out of :meth:`SweepCache.get`.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

__all__ = ["SweepCache", "ARTIFACT_SCHEMA", "DEFAULT_CACHE_DIR", "QUARANTINE_DIR"]

#: conventional cache location (repo-root relative); gitignored.
DEFAULT_CACHE_DIR = ".sweep-cache"

#: subdirectory of the cache root where corrupt artifacts are moved.
QUARANTINE_DIR = "quarantine"

#: schema tag every artifact must carry; anything else is quarantined.
ARTIFACT_SCHEMA = "repro.sweep-point.v1"

_SCALARS = (str, int, float, bool, type(None))


class SweepCache:
    """Directory-backed point-result store: ``<root>/<hh>/<hash>.json``."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        #: burn-in fault injection point (see
        #: :class:`repro.burnin.faults.TornArtifact`): called with the
        #: artifact path before every read of an existing artifact, free
        #: to corrupt the file in place.  None in production.
        self.read_hook: Optional[Callable[[Path], None]] = None

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, key: str, metrics: Sequence[str] = ()
    ) -> Optional[Dict[str, object]]:
        """The cached metrics dict, or None on a miss.

        An unreadable or invalid artifact — torn bytes, JSON the parser
        rejects (malformed, nested past its recursion limit, or an
        integer past its digit limit), wrong schema, non-scalar metrics,
        a payload recorded under a different key, or one missing any of
        the expected ``metrics`` names — is moved to
        ``<root>/quarantine/`` and counted as both ``quarantined`` and a
        miss; the engine then recomputes the point and ``put`` writes a
        fresh artifact in its place.
        """
        path = self.path(key)
        try:
            if self.read_hook is not None and path.exists():
                self.read_hook(path)
            text = path.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, UnicodeDecodeError):
            # Unreadable in name (permission loss, I/O error) or in
            # content (binary garbage is not even text): treat like
            # corruption — out of the way, recompute.
            self._quarantine(path)
            self.misses += 1
            return None
        found = _validated_metrics(text, key, metrics)
        if found is None:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return found

    def put(self, key: str, metrics: Dict[str, object]) -> None:
        for name, value in metrics.items():
            if not isinstance(value, _SCALARS):
                raise TypeError(
                    f"metric {name!r} = {value!r} is not a JSON scalar; "
                    "sweep caching needs scalar metrics (mark the spec "
                    "cacheable=False for richer payloads)"
                )
        target = self.path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=target.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(
                    {"schema": ARTIFACT_SCHEMA, "key": key, "metrics": metrics},
                    fh,
                )
            os.replace(tmp, target)
        except BaseException:
            with_suppress_unlink(tmp)
            raise

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt artifact to the quarantine directory.

        Falls back to deletion if the move itself fails (e.g. the
        quarantine directory is unwritable) — the one thing that must
        never happen is the next ``get`` tripping over the same bytes.
        """
        try:
            qdir = self.quarantine_dir
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            with_suppress_unlink(str(path))
        self.quarantined += 1

    def clear(self) -> int:
        """Delete every artifact under the root (quarantine included);
        returns the count."""
        removed = 0
        if self.root.exists():
            for p in self.root.rglob("*.json"):
                with_suppress_unlink(str(p))
                removed += 1
        return removed

    def __len__(self) -> int:
        """Live (non-quarantined) artifact count."""
        if not self.root.exists():
            return 0
        qdir = self.quarantine_dir
        return sum(1 for p in self.root.rglob("*.json") if p.parent != qdir)


def _validated_metrics(
    text: str, key: str, expected: Sequence[str]
) -> Optional[Dict[str, object]]:
    """Parse and validate one artifact; None means quarantine it.

    ``payload.get("key", key)`` lets pre-``key`` artifacts (written
    before the field existed) keep hitting; a *present* mismatched key
    means the bytes landed under the wrong hash and cannot be trusted.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError):
        # ValueError covers malformed JSON and integer literals past the
        # interpreter's digit limit; deep nesting overflows the parser.
        return None
    if not isinstance(payload, dict) or payload.get("schema") != ARTIFACT_SCHEMA:
        return None
    if payload.get("key", key) != key:
        return None
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return None
    if any(not isinstance(v, _SCALARS) for v in metrics.values()):
        return None
    if any(name not in metrics for name in expected):
        return None
    return metrics


def with_suppress_unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass

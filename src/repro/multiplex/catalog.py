"""Media catalogs with Zipf popularity (multi-object servers, Section 5).

The paper's future-work discussion targets "the practical case of a
server that serves multiple media objects", where *maximum* bandwidth
matters more than the average.  A catalog models the standard VoD
assumption: a library of objects whose request shares follow a Zipf law
(request probability of the rank-``r`` object proportional to
``1 / r^s``), each with its own duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

__all__ = ["MediaObject", "Catalog", "zipf_weights"]


def zipf_weights(count: int, exponent: float = 0.8) -> np.ndarray:
    """Normalised Zipf probabilities for ranks ``1..count``.

    ``exponent`` around 0.7-1.0 matches classic VoD popularity studies.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # NaN fails every comparison, so the range test rejects it too.
    if not 0 <= exponent < math.inf:
        raise ValueError(f"exponent must be finite and >= 0, got {exponent}")
    # Not k ** -exponent: its last bit can differ, and every golden with
    # it.  k ** exponent may overflow to inf, a zero weight, rejected below.
    with np.errstate(over="ignore"):
        raw = 1.0 / np.arange(1, count + 1, dtype=float) ** exponent
    weights = raw / raw.sum()
    if not weights[-1] > 0:
        raise ValueError(
            f"exponent {exponent} is too large for {count} objects: "
            f"the rank-{count} weight underflows to 0"
        )
    return weights


@dataclass(frozen=True)
class MediaObject:
    """One media object: a name, a duration, a popularity weight."""

    name: str
    duration_minutes: float
    weight: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so the range tests reject it too.
        if not 0 < self.duration_minutes < math.inf:
            raise ValueError(f"{self.name}: duration must be positive and finite")
        if not 0 < self.weight < math.inf:
            raise ValueError(f"{self.name}: weight must be positive and finite")

    def units(self, delay_minutes: float) -> int:
        """Stream length ``L`` in slots for a given delay guarantee."""
        if delay_minutes <= 0:
            raise ValueError("delay must be positive")
        slots = self.duration_minutes / delay_minutes
        if not slots < 2.0**63:  # NaN too; the engine holds L as an int64
            raise ValueError(f"{self.name}: {slots:g} slots per stream do not fit in int64")
        return max(1, round(slots))


class Catalog:
    """An ordered collection of media objects with normalised popularity."""

    def __init__(self, objects: Sequence[MediaObject]):
        if not objects:
            raise ValueError("catalog cannot be empty")
        names = [o.name for o in objects]
        if len(set(names)) != len(names):
            raise ValueError("object names must be unique")
        total = sum(o.weight for o in objects)
        self.objects: List[MediaObject] = [
            MediaObject(o.name, o.duration_minutes, o.weight / total)
            for o in objects
        ]

    @staticmethod
    def zipf(
        count: int,
        duration_minutes: float = 120.0,
        exponent: float = 0.8,
        name_prefix: str = "title",
    ) -> "Catalog":
        """A uniform-duration catalog with Zipf popularity."""
        weights = zipf_weights(count, exponent)
        return Catalog(
            [
                MediaObject(f"{name_prefix}-{i + 1:03d}", duration_minutes, float(w))
                for i, w in enumerate(weights)
            ]
        )

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[MediaObject]:
        return iter(self.objects)

    def __getitem__(self, idx: int) -> MediaObject:
        return self.objects[idx]

    def weights(self) -> np.ndarray:
        return np.asarray([o.weight for o in self.objects])

    def popularity_rank(self) -> List[MediaObject]:
        return sorted(self.objects, key=lambda o: -o.weight)

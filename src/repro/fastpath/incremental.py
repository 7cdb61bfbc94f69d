"""Incremental flat merge forests: the live tier's ragged open windows.

:class:`IncrementalFlatForest` holds a whole catalog's open windows in
one forest — one stream length per object, arrivals laid end to end as in
the ragged :func:`~repro.fastpath.dyadic.dyadic_flat_forest` — and
batches, evicts and resumes it.  The batch builder assumes the full
arrival sequence is available and rebuilds from scratch.  A long-running
daemon needs three operations it does not provide:

* **append-arrival** — :meth:`~IncrementalFlatForest.push_batch` appends
  an epoch's arrivals for every object at once: it checks them and
  appends them to the float64 open windows, and builds nothing;
* **extend-stream** — nothing is kept current as arrivals land.  A
  node's parent and subtree maximum ``z`` (hence its Lemma 1 receive-two
  length ``2 z - x - p``) depend only on its own tree's members, so they
  are built where something reads them: once per tree, when it commits,
  and on a :meth:`~IncrementalFlatForest.live_forest` snapshot;
* **evict-completed-tree** — :meth:`~IncrementalFlatForest.evict_committable`
  pops finished trees off the front of every object's window and builds
  them all with one ragged ``dyadic_flat_forest`` call, so live memory is
  O(open window), not O(history).

One arrival at a time is placed by the ``MergeNode`` stack machine
:class:`~repro.baselines.dyadic.DyadicOnline`, which the event policies
run; both agree with the batch construction node for node (tested).

Eviction contract.  A tree rooted at ``r`` can only change while an
arrival ``t <= r + window`` may still arrive (later arrivals start new
roots).  ``evict_committable(fence)`` therefore pops every leading tree
whose window end (``cutoff = r + window``) lies strictly before
``fence``; the caller promises no future push at or below any committed
cutoff, and the forest enforces it — a push at or below the committed
watermark raises rather than silently corrupting an already-emitted
tree.  The committed trees come back as one :class:`CommittedTrees`,
objects end to end and trees in order within each, so an object's
committed trees followed by its live remainder reproduce the batch
construction node for node.

Resume.  Because the live remainder is whole trees, the state is the
live arrivals plus, per object, the evicted count, the watermark and the
last push (:meth:`~IncrementalFlatForest.open_window`), and
:meth:`~IncrementalFlatForest.resume` restores it directly, building the
open windows once so that a window the builder refuses fails there:
O(open window), whatever the history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines.dyadic import DyadicParams, check_stream_length
from ..core.validation import check_offsets, non_increasing_within
from .dyadic import dyadic_flat_forest
from .flat_forest import FlatForest

__all__ = ["CommittedTrees", "IncrementalFlatForest"]


def _ragged_extend(
    values: np.ndarray, bounds: np.ndarray, new: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Append ``new[offsets[k]:offsets[k + 1]]`` to each object ``k`` of
    ``values`` (delimited by ``bounds``); returns the new values and bounds."""
    out = np.empty(values.size + new.size, dtype=np.float64)
    # new value j of object k lands right after the object's old values
    dest = np.arange(new.size) + np.repeat(bounds[1:], np.diff(offsets))
    old = np.ones(out.size, dtype=bool)
    old[dest] = False
    out[dest] = new
    out[old] = values
    return out, bounds + offsets


def _ragged_split(
    values: np.ndarray, bounds: np.ndarray, take: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(taken, taken_offsets, rest, rest_bounds)``: the values where the
    mask ``take`` holds, and the others, each still delimited per object."""
    cum = np.concatenate(([0], np.cumsum(take)))[bounds]
    return values[take], cum, values[~take], bounds - cum


@dataclass(frozen=True)
class CommittedTrees:
    """Every tree one :meth:`IncrementalFlatForest.evict_committable` popped.

    ``forest`` holds them objects end to end (a
    :meth:`FlatForest.concatenated` forest with final ``z``, empty when
    nothing committed); object ``k``'s trees are nodes
    ``offsets[k]:offsets[k + 1]``, in tree order, which is also arrival
    order.  ``roots[k]`` counts them and ``cutoffs[k]`` is the window end
    of the last one — strictly before the fence — or ``-inf`` when object
    ``k`` committed nothing.
    """

    forest: FlatForest
    offsets: np.ndarray
    roots: np.ndarray
    cutoffs: np.ndarray


class IncrementalFlatForest:
    """Dyadic merge forests that grow at the right and shrink at the left.

    ``L`` is one stream length (one object) or one per object.  Node ids
    are global and monotone per object (the k-th arrival ever pushed to
    an object has id ``k``); an object's live nodes are ids ``[evicted,
    evicted + live)``.  All times are in the caller's units (the live
    daemon works in slot units of its delay guarantee).
    """

    def __init__(self, L: Union[float, Sequence[float], np.ndarray], params: DyadicParams = DyadicParams()):
        lengths = np.atleast_1d(np.asarray(L, dtype=np.float64))
        if lengths.ndim != 1 or lengths.size == 0:
            raise ValueError("L must be one stream length or one per object")
        for length in lengths.tolist():
            check_stream_length(length)
        self.params = params
        self._lengths = lengths
        # The scalar window expression, elementwise: beta * L.
        self._window = params.beta * lengths
        m = lengths.size
        # Live arrivals, objects end to end: object k is
        # _values[_bounds[k]:_bounds[k + 1]].
        self._values = np.empty(0, dtype=np.float64)
        self._bounds = np.zeros(m + 1, dtype=np.intp)
        self._evicted = np.zeros(m, dtype=np.int64)
        #: highest committed window end; pushes must land strictly above.
        self._watermark = np.full(m, -math.inf)
        #: newest value pushed (-inf: nothing yet).
        self._last = np.full(m, -math.inf)

    # -- queries ---------------------------------------------------------------

    @property
    def objects(self) -> int:
        return int(self._lengths.size)

    def __len__(self) -> int:
        """Number of *live* (unevicted) nodes, over every object."""
        return int(self._bounds[-1])

    @property
    def evicted(self) -> np.ndarray:
        """Nodes evicted so far, per object."""
        return self._evicted.copy()

    @property
    def total_appended(self) -> np.ndarray:
        """Nodes ever pushed, evicted or not, per object (== next ids)."""
        return self._evicted + np.diff(self._bounds)

    def min_live_cutoffs(self) -> np.ndarray:
        """Window end of each object's oldest live tree (``inf`` when none).

        Eviction pops whole trees, so an object's first live arrival is
        the root of its oldest live tree.
        """
        lo, hi = self._bounds[:-1], self._bounds[1:]
        out = np.full(lo.size, math.inf)
        has = lo < hi
        out[has] = self._values[lo[has]] + self._window[has]
        return out

    def open_window(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(live arrivals, offsets, evicted, watermark, last push)``.

        Everything :meth:`resume` needs to rebuild this forest exactly:
        the live nodes' parents and ``z`` are functions of the live
        arrivals alone.  Arrivals are laid out objects end to end
        (``offsets``); the other three have one entry per object,
        ``-inf`` meaning none.
        """
        return (
            self._values.copy(),
            self._bounds.copy(),
            self._evicted.copy(),
            self._watermark.copy(),
            self._last.copy(),
        )

    @staticmethod
    def check_open_window(arrivals: np.ndarray, watermark: float, last_push: float) -> None:
        """Reject one object's open window that no forest could have left.

        ``arrivals`` must be finite and strictly increasing, above the
        watermark, and end at ``last_push``; an empty window's last push
        (``-inf`` when nothing was pushed) may not exceed the watermark.
        """
        if not np.isfinite(arrivals).all():
            raise ValueError("live arrivals must be finite")
        if np.any(arrivals[1:] <= arrivals[:-1]):
            raise ValueError("live arrivals must be strictly increasing")
        if arrivals.size:
            if not arrivals[0] > watermark:
                raise ValueError(
                    f"live arrival {float(arrivals[0])} at or below the committed "
                    f"watermark {watermark}"
                )
            if last_push != arrivals[-1]:
                raise ValueError(
                    f"last push {last_push} is not the newest live arrival "
                    f"{float(arrivals[-1])}"
                )
        elif last_push > watermark:
            raise ValueError(
                f"last push {last_push} is above the watermark {watermark} "
                "but no arrival is live"
            )

    @classmethod
    def resume(
        cls,
        L: Union[float, Sequence[float], np.ndarray],
        arrivals: np.ndarray,
        offsets: np.ndarray,
        evicted: np.ndarray,
        watermark: np.ndarray,
        last_push: np.ndarray,
        params: DyadicParams = DyadicParams(),
    ) -> "IncrementalFlatForest":
        """Rebuild a forest from :meth:`open_window` output.

        Eviction pops whole trees only, so each object's live remainder
        starts at a tree root; parents and ``z`` follow from the
        arrivals.  The open windows are built once here, so a window
        the dyadic builder refuses raises now.  Inconsistent state raises
        ``ValueError`` naming the object.
        """
        forest = cls(L, params)
        m = forest.objects
        ts = np.ascontiguousarray(arrivals, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError("arrivals must be a 1-D sequence")
        bounds = check_offsets(offsets, ts.size)
        evicted = np.asarray(evicted)
        watermark = np.asarray(watermark, dtype=np.float64)
        last_push = np.asarray(last_push, dtype=np.float64)
        if bounds.size != m + 1 or any(a.shape != (m,) for a in (evicted, watermark, last_push)):
            raise ValueError(f"need offsets and per-object state for {m} objects")
        if evicted.dtype.kind not in "iu" or np.any(evicted < 0):
            raise ValueError("evicted counts must be integers >= 0")
        if np.isnan(watermark).any() or np.isnan(last_push).any():
            raise ValueError("watermark and last push must not be NaN")
        for k in range(m):
            try:
                cls.check_open_window(
                    ts[bounds[k] : bounds[k + 1]], float(watermark[k]), float(last_push[k])
                )
            except ValueError as exc:
                raise ValueError(f"object {k}: {exc}") from None
        forest._values = ts.copy()
        forest._bounds = bounds.copy()
        forest._evicted = evicted.astype(np.int64)
        forest._watermark = watermark.copy()
        forest._last = last_push.copy()
        forest.live_forest()  # the builder's own checks, once
        return forest

    def live_forest(self) -> Optional[FlatForest]:
        """The live remainder as a :class:`FlatForest` (None when empty).

        A snapshot built from the live arrivals: objects end to end, as
        the ragged ``dyadic_flat_forest`` lays them out, with current
        ``z`` (final for every tree but each object's newest).
        """
        if not self._values.size:
            return None
        return dyadic_flat_forest(
            self._values.copy(), self._lengths, self.params, offsets=self._bounds
        )

    # -- append ----------------------------------------------------------------

    def push_batch(
        self,
        arrivals: Union[np.ndarray, Sequence[float]],
        offsets: Optional[np.ndarray] = None,
    ) -> int:
        """Append a batch of arrivals to the open windows; returns the count.

        One object takes a sorted batch; with ``offsets`` the batch holds
        every object's arrivals end to end (object ``k`` is
        ``arrivals[offsets[k]:offsets[k + 1]]``).  Values must be finite,
        strictly increasing within each object and above the object's
        last push (``ValueError``) and its committed watermark
        (``RuntimeError``).  Nothing is built: O(batch + open window)
        numpy work however many objects the batch spans.
        """
        ts = np.ascontiguousarray(arrivals, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError("arrivals must be a 1-D sequence")
        m = self.objects
        if offsets is None:
            if m != 1:
                raise ValueError(f"a batch for {m} objects needs offsets")
            offsets = np.array([0, ts.size], dtype=np.intp)
        else:
            offsets = check_offsets(offsets, ts.size)
            if offsets.size != m + 1:
                raise ValueError(f"offsets must delimit {m} objects")
        if ts.size == 0:
            return 0
        if not np.isfinite(ts).all():
            raise ValueError("arrivals must be finite")
        if non_increasing_within(ts, offsets).any():
            raise ValueError("arrivals must be strictly increasing")
        got = np.flatnonzero(offsets[1:] > offsets[:-1])
        first = ts[offsets[got]]
        late = first <= self._last[got]
        if late.any():
            j = int(np.argmax(late))
            raise ValueError(
                f"arrivals must be strictly increasing: {float(first[j])} after "
                f"{float(self._last[got[j]])}"
            )
        low = first <= self._watermark[got]
        if low.any():
            j = int(np.argmax(low))
            raise RuntimeError(
                f"arrival {float(first[j])} at or below the committed watermark "
                f"{float(self._watermark[got[j]])}: a committed tree would have to change"
            )
        self._values, self._bounds = _ragged_extend(self._values, self._bounds, ts, offsets)
        self._last[got] = ts[offsets[got + 1] - 1]
        return int(ts.size)

    # -- evict -----------------------------------------------------------------

    def _committable_ends(self, fence: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per object: where its committable trees end, how many there
        are, and the last one's cutoff (``-inf`` when none).

        Walks each object's roots from its first live arrival while the
        root's cutoff lies below ``fence``: one round per tree, every
        object at once.  The next root is the first arrival past the
        cutoff, searched among ``(object, time)`` keys held as complex
        numbers (numpy orders them lexicographically, comparing exact
        floats), as the ragged builder finds roots.
        """
        ts = self._values
        bounds = self._bounds
        m = self.objects
        end = bounds[:-1].copy()
        trees = np.zeros(m, dtype=np.int64)
        last = np.full(m, -math.inf)
        obj = np.flatnonzero(bounds[1:] > bounds[:-1])
        keys = None
        while obj.size:
            cutoff = ts[end[obj]] + self._window[obj]
            ok = cutoff < fence
            obj, cutoff = obj[ok], cutoff[ok]
            if not obj.size:
                break
            trees[obj] += 1
            last[obj] = cutoff
            if keys is None:
                keys = np.empty(ts.size, dtype=np.complex128)
                keys.real = np.repeat(np.arange(m), np.diff(bounds))
                keys.imag = ts
            query = np.empty(obj.size, dtype=np.complex128)
            query.real = obj
            query.imag = cutoff
            end[obj] = nxt = np.searchsorted(keys, query, side="right")
            obj = obj[nxt < bounds[obj + 1]]
        return end, trees, last

    def evict_committable(self, fence: float) -> CommittedTrees:
        """Pop every leading tree whose window end is strictly below ``fence``.

        Every object at once: the popped trees are built with one ragged
        :func:`dyadic_flat_forest` call.  ``fence = math.inf`` drains
        everything (end of stream).  After a tree is committed, any push
        at or below its cutoff raises — the committed prefix is immutable
        by construction.
        """
        end, trees, cutoffs = self._committable_ends(fence)
        lo, hi = self._bounds[:-1], self._bounds[1:]
        if not trees.any():
            empty = np.empty(0, dtype=np.float64)
            return CommittedTrees(
                FlatForest.concatenated(empty, np.empty(0, dtype=np.intp), empty),
                np.zeros(lo.size + 1, dtype=np.intp),
                trees,
                cutoffs,
            )
        # each object's committed prefix, then its remainder
        take = np.repeat(
            np.tile([True, False], lo.size), np.column_stack((end - lo, hi - end)).ravel()
        )
        values, offsets, rest, bounds = _ragged_split(self._values, self._bounds, take)
        # build before touching the state: a window the builder refuses
        # leaves the forest as it was
        forest = dyadic_flat_forest(values, self._lengths, self.params, offsets=offsets)
        self._values, self._bounds = rest, bounds
        self._evicted += np.diff(offsets)
        self._watermark = np.maximum(self._watermark, cutoffs)
        return CommittedTrees(forest, offsets, trees, cutoffs)

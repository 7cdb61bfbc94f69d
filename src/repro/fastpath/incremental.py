"""Incremental flat merge forests: the one flat dyadic stack machine.

:class:`IncrementalFlatForest` is the one flat twin of the ``MergeNode``
stack machine :class:`~repro.baselines.dyadic.DyadicOnline`.  The event
policies (``simulation.policies``, ``simulation.hybrid``) only push and
read :meth:`~IncrementalFlatForest.current_path`; the live tier also
batches, evicts and resumes.  The batch builder
:func:`~repro.fastpath.dyadic.dyadic_flat_forest` assumes the full
arrival sequence is available and rebuilds from scratch.  A long-running
daemon needs three operations it does not provide:

* **append-arrival** — place one strictly-later arrival, amortised
  O(log n) (the rightmost-path walk of ``DyadicOnline.push``);
* **extend-stream** — maintain the subtree maxima ``z`` *as arrivals
  land*, so every node's Lemma 1 receive-two length ``2 z - x - p`` is
  current at all times (the batch path only knows ``z`` after the fact);
  an append updates exactly the rightmost path, O(depth);
* **evict-completed-tree** — pop finished trees off the front and forget
  their nodes, so live memory is O(open window), not O(history).

:class:`IncrementalFlatForest` provides all three plus a vectorised bulk
ingest (:meth:`push_batch`) for epoch batches: arrivals that open *and
close* whole dyadic windows inside one batch are routed through the
vectorised ``dyadic_flat_forest`` (tree structure depends only on the
tree's own members, so building completed windows wholesale is exact),
and the still-open final window is absorbed by reconstructing the
rightmost-path stack from its built tree — bit-identical to pushing every
arrival through the scalar stack machine, which the equivalence tests
assert on every prefix.

Eviction contract.  A tree rooted at ``r`` can only change while an
arrival ``t <= r + window`` may still arrive (later arrivals start new
roots).  ``evict_committable(fence)`` therefore pops every leading tree
whose window end (``cutoff = r + window``) lies strictly before
``fence``; the caller promises no future push at or below any committed
cutoff, and the forest enforces it — a push at or below the committed
watermark raises rather than silently corrupting an already-emitted
tree.  Committed trees come back as contiguous, self-contained
:class:`~repro.fastpath.flat_forest.FlatForest` slices (with their final
``z`` arrays), in tree order, which is also global arrival order — so
concatenating committed trees with the live remainder reproduces the
batch construction node for node.

Resume.  Because the live remainder is whole trees, the forest's entire
state is ``(live arrivals, id offset, watermark, last push)``
(:meth:`~IncrementalFlatForest.open_window`), and
:meth:`~IncrementalFlatForest.resume` rebuilds it with one ``push_batch``:
O(open window), whatever the history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines.dyadic import DyadicParams, check_stream_length, dyadic_interval_index
from ..core.validation import check_finite_value
from .dyadic import dyadic_flat_forest
from .flat_forest import FlatForest

__all__ = ["CommittedTree", "IncrementalFlatForest"]

#: batch-prefix size above which extending the open tree switches from
#: scalar pushes to a vectorised whole-tree rebuild.
_BULK_REBUILD_MIN = 16


@dataclass(frozen=True)
class CommittedTree:
    """One finished tree popped off the front of the incremental forest.

    ``root_id`` is the tree root's global node id (ids count every node
    ever pushed, evicted or not); ``cutoff`` the tree's window end —
    strictly before the fence that committed it; ``forest`` the tree as a
    self-contained single-tree :class:`FlatForest` (local parent indices,
    final ``z``).
    """

    root_id: int
    cutoff: float
    forest: FlatForest

    def __len__(self) -> int:
        return len(self.forest)


class _StackEntry:
    __slots__ = ("node", "arrival", "cutoff", "last_child_interval")

    def __init__(
        self,
        node: int,
        arrival: float,
        cutoff: float,
        last_child_interval: Optional[int],
    ):
        self.node = node
        self.arrival = arrival
        self.cutoff = cutoff
        self.last_child_interval = last_child_interval


class IncrementalFlatForest:
    """A dyadic merge forest that grows at the right and shrinks at the left.

    Node ids are global and monotone (the id of the k-th push is ``k``,
    forever); live nodes occupy ids ``[offset, offset + live)`` where
    ``offset`` counts evicted nodes.  All times are in the caller's units
    (the live daemon works in slot units of its delay guarantee).
    """

    def __init__(self, L: float, params: DyadicParams = DyadicParams()):
        check_stream_length(L)
        self.L = L
        self.params = params
        self._window = params.window(L)
        # Live node storage, local index = global id - offset.  Parents
        # are stored as global ids (-1 for roots); they never cross tree
        # boundaries, so every live node's parent is live.
        self._arrivals: List[float] = []
        self._parent: List[int] = []
        self._z: List[float] = []
        self._offset = 0
        # Live trees, oldest first: global root ids and window ends.
        self._tree_roots: List[int] = []
        self._tree_cutoffs: List[float] = []
        # Rightmost path of the newest tree (the only tree that can grow).
        self._stack: List[_StackEntry] = []
        self._last_time: Optional[float] = None
        #: highest committed window end; pushes must land strictly above.
        self._watermark = -math.inf

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of *live* (unevicted) nodes."""
        return len(self._arrivals)

    @property
    def total_appended(self) -> int:
        """Nodes ever pushed, evicted or not (== next global id)."""
        return self._offset + len(self._arrivals)

    @property
    def evicted(self) -> int:
        return self._offset

    def num_live_trees(self) -> int:
        return len(self._tree_roots)

    def min_live_cutoff(self) -> Optional[float]:
        """Window end of the oldest live tree (None when empty)."""
        return self._tree_cutoffs[0] if self._tree_cutoffs else None

    def open_window(self) -> Tuple[np.ndarray, int, float, Optional[float]]:
        """``(live arrivals, id offset, watermark, last push)``.

        Everything :meth:`resume` needs to rebuild this forest exactly:
        the live nodes' parents, ``z`` and the rightmost-path stack are
        functions of the live arrivals alone.
        """
        return (
            np.asarray(self._arrivals, dtype=np.float64),
            self._offset,
            self._watermark,
            self._last_time,
        )

    @classmethod
    def resume(
        cls,
        L: float,
        arrivals: np.ndarray,
        offset: int,
        watermark: float,
        last_time: Optional[float],
        params: DyadicParams = DyadicParams(),
    ) -> "IncrementalFlatForest":
        """Rebuild a forest from :meth:`open_window` output.

        Eviction pops whole trees only, so the live remainder starts at a
        tree root and ``push_batch`` into an empty forest — ids offset by
        the evicted count, watermark preset — partitions it into the same
        windows and rebuilds every node, ``z`` and stack entry exactly.
        Inconsistent state raises ``ValueError``.
        """
        ts = np.ascontiguousarray(arrivals, dtype=np.float64)
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if ts.size:
            if not ts[0] > watermark:
                raise ValueError(
                    f"live arrival {float(ts[0])} at or below the committed "
                    f"watermark {watermark}"
                )
            if last_time != ts[-1]:
                raise ValueError(
                    f"last push {last_time} is not the newest live arrival "
                    f"{float(ts[-1])}"
                )
        elif last_time is not None and last_time > watermark:
            raise ValueError(
                f"last push {last_time} is above the watermark {watermark} "
                "but no arrival is live"
            )
        forest = cls(L, params)
        forest._offset = offset
        forest._watermark = watermark
        forest.push_batch(ts)
        forest._last_time = last_time
        return forest

    def live_forest(self) -> Optional[FlatForest]:
        """The live remainder as a :class:`FlatForest` (None when empty).

        A snapshot copy — local parent indices, current ``z`` (final for
        every tree but the newest, monotone-growing for that one).
        """
        if not self._arrivals:
            return None
        off = self._offset
        parent = np.asarray(self._parent, dtype=np.intp)
        parent[parent >= 0] -= off
        return FlatForest(
            np.asarray(self._arrivals, dtype=np.float64),
            parent,
            z=np.asarray(self._z, dtype=np.float64),
        )

    # -- append / extend -------------------------------------------------------

    def _check_push(self, t: float) -> None:
        check_finite_value(t, what="arrival")
        if self._last_time is not None and t <= self._last_time:
            raise ValueError(
                f"arrivals must be strictly increasing: {t} after {self._last_time}"
            )
        if t <= self._watermark:
            raise RuntimeError(
                f"arrival {t} at or below the committed watermark "
                f"{self._watermark}: a committed tree would have to change"
            )

    def push(self, t: float) -> int:
        """Place one arrival; returns its global node id.

        The ``DyadicOnline.push`` rightmost-path walk, plus the
        extend-stream half: every rightmost-path ancestor's subtree now
        ends at ``t``, so their ``z`` entries advance — O(depth) total.
        """
        self._check_push(t)
        self._last_time = t
        node = self.total_appended
        off = self._offset
        if not self._stack or t > self._stack[0].cutoff:
            self._arrivals.append(t)
            self._parent.append(-1)
            self._z.append(t)
            cutoff = t + self._window
            self._tree_roots.append(node)
            self._tree_cutoffs.append(cutoff)
            self._stack = [_StackEntry(node, t, cutoff, None)]
            return node
        depth = 0
        while True:
            entry = self._stack[depth]
            idx = dyadic_interval_index(
                t, entry.arrival, entry.cutoff, self.params.alpha
            )
            if entry.last_child_interval is not None and idx == entry.last_child_interval:
                depth += 1  # inside the current last child's window
                continue
            if entry.last_child_interval is not None and idx > entry.last_child_interval:
                raise AssertionError(
                    "dyadic interval index increased along time — "
                    "ordering invariant broken"
                )
            span = entry.cutoff - entry.arrival
            hi = entry.arrival + span / self.params.alpha ** (idx - 1)
            self._arrivals.append(t)
            self._parent.append(entry.node)
            self._z.append(t)
            entry.last_child_interval = idx
            del self._stack[depth + 1 :]
            # extend-stream: t is the new subtree maximum of every node
            # on its receiving path (the surviving stack prefix).
            for anc in self._stack:
                self._z[anc.node - off] = t
            self._stack.append(_StackEntry(node, t, hi, None))
            return node

    def extend(self, arrivals: Sequence[float]) -> None:
        for t in arrivals:
            self.push(t)

    def current_path(self) -> Tuple[float, ...]:
        """Arrivals along the rightmost path, root first: the receiving
        path of the most recently pushed node."""
        return tuple(e.arrival for e in self._stack)

    def push_batch(self, arrivals: Union[np.ndarray, Sequence[float]]) -> int:
        """Vectorised bulk append of a sorted arrival batch; returns count.

        Arrivals still inside the open window go through :meth:`push`;
        the rest split into whole dyadic windows.  Every window that is
        *superseded inside the batch* (a later window opened after it)
        is final, so those trees are built in one
        :func:`dyadic_flat_forest` call; the batch's last window becomes
        the new open tree, built the same way and then re-expressed as
        the rightmost-path stack (:meth:`push` continues from it
        seamlessly).  State after ``push_batch(b)`` is identical to
        ``for t in b: push(t)`` — asserted by the fastpath equivalence
        tests — at O(batch) numpy cost instead of O(batch) Python frames.
        """
        ts = np.ascontiguousarray(arrivals, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError("arrivals must be a 1-D sequence")
        if ts.size == 0:
            return 0
        if not np.isfinite(ts).all():
            raise ValueError("arrivals must be finite")
        if np.any(ts[1:] <= ts[:-1]):
            raise ValueError("arrivals must be strictly increasing")
        self._check_push(float(ts[0]))

        # Prefix that extends the currently open tree.  Small prefixes go
        # through scalar pushes (amortised O(log n) each); large ones
        # rebuild the open tree wholesale with the batch builder — a
        # tree's structure depends only on its own members, so rebuilding
        # from (existing members + prefix) is exact, and vectorised
        # construction beats per-arrival Python walks by orders of
        # magnitude on epoch-sized batches.
        split = 0
        if self._stack:
            split = int(
                np.searchsorted(ts, self._stack[0].cutoff, side="right")
            )
            if split >= _BULK_REBUILD_MIN:
                self._rebuild_open_tree(ts[:split])
            else:
                for t in ts[:split].tolist():
                    self.push(t)
        rest = ts[split:]
        if rest.size == 0:
            return int(ts.size)

        # Window boundaries of the remainder (same rule as the batch
        # builder: a root's window is [r, r + window]).
        starts: List[int] = []
        i = 0
        n = int(rest.size)
        while i < n:
            starts.append(i)
            i = int(np.searchsorted(rest, rest[i] + self._window, side="right"))
        last_start = starts[-1]

        if last_start > 0:
            self._append_built(dyadic_flat_forest(rest[:last_start], self.L, self.params))
        open_tree = dyadic_flat_forest(rest[last_start:], self.L, self.params)
        base = self.total_appended
        self._append_built(open_tree)
        self._rebuild_stack(open_tree, base)
        self._last_time = float(ts[-1])
        return int(ts.size)

    def _rebuild_open_tree(self, prefix: np.ndarray) -> None:
        """Vectorised absorb of a batch prefix into the open tree.

        Every ``prefix`` arrival lies at or below the open root's cutoff,
        so all of it belongs to the open tree; the tree is rebuilt from
        (existing members + prefix) in one :func:`dyadic_flat_forest`
        call.  Node ids are preserved — members keep arrival order, new
        nodes take the next global ids — and the rebuilt parents/``z`` of
        the existing members are bit-identical to what the scalar pushes
        would have left (the builder and the stack machine agree node for
        node on every prefix).
        """
        root = self._tree_roots[-1]
        start = root - self._offset
        members = np.asarray(self._arrivals[start:], dtype=np.float64)
        tree = dyadic_flat_forest(
            np.concatenate([members, prefix]), self.L, self.params
        )
        assert tree.num_trees() == 1, "open-window arrivals split a tree"
        del self._arrivals[start:]
        del self._parent[start:]
        del self._z[start:]
        self._arrivals.extend(tree.arrivals.tolist())
        parent = tree.parent + root
        parent[tree.parent < 0] = -1
        self._parent.extend(parent.tolist())
        self._z.extend(tree.z.tolist())
        self._rebuild_stack(tree, root)
        self._last_time = float(prefix[-1])

    def _append_built(self, built: FlatForest) -> None:
        """Append a batch-built forest's nodes under fresh global ids."""
        base = self.total_appended
        self._arrivals.extend(built.arrivals.tolist())
        parent = built.parent + base
        parent[built.parent < 0] = -1
        self._parent.extend(parent.tolist())
        self._z.extend(built.z.tolist())
        for r in np.nonzero(built.is_root)[0].tolist():
            self._tree_roots.append(base + r)
            self._tree_cutoffs.append(float(built.arrivals[r]) + self._window)

    def _rebuild_stack(self, tree: FlatForest, base: int) -> None:
        """Recompute the rightmost-path stack of a batch-built open tree.

        Walks root -> last child, re-deriving each entry's cutoff and
        ``last_child_interval`` with the exact scalar expressions the
        push path uses, so subsequent pushes continue bit-identically.
        """
        parent = tree.parent
        # last child of each node, by arrival order (children have larger
        # indices; the rightmost path is the chain of last children).
        last_child = np.full(len(tree), -1, dtype=np.intp)
        nonroot = np.nonzero(parent >= 0)[0]
        last_child[parent[nonroot]] = nonroot  # later children overwrite
        node = 0  # tree built from one window: node 0 is the root
        arrival = float(tree.arrivals[0])
        cutoff = arrival + self._window
        stack = []
        while True:
            child = int(last_child[node])
            if child < 0:
                stack.append(_StackEntry(base + node, arrival, cutoff, None))
                break
            child_arrival = float(tree.arrivals[child])
            idx = dyadic_interval_index(
                child_arrival, arrival, cutoff, self.params.alpha
            )
            stack.append(_StackEntry(base + node, arrival, cutoff, idx))
            span = cutoff - arrival
            cutoff = arrival + span / self.params.alpha ** (idx - 1)
            node, arrival = child, child_arrival
        self._stack = stack

    # -- evict -----------------------------------------------------------------

    def evict_committable(self, fence: float) -> List[CommittedTree]:
        """Pop every leading tree whose window end is strictly below ``fence``.

        ``fence = math.inf`` drains everything (end of stream).  After a
        tree is committed, any push at or below its cutoff raises — the
        committed prefix is immutable by construction.
        """
        out: List[CommittedTree] = []
        while self._tree_cutoffs and self._tree_cutoffs[0] < fence:
            root = self._tree_roots.pop(0)
            cutoff = self._tree_cutoffs.pop(0)
            end = (
                self._tree_roots[0]
                if self._tree_roots
                else self._offset + len(self._arrivals)
            )
            count = end - root
            arr = np.asarray(self._arrivals[:count], dtype=np.float64)
            parent = np.asarray(self._parent[:count], dtype=np.intp)
            parent[parent >= 0] -= root
            z = np.asarray(self._z[:count], dtype=np.float64)
            del self._arrivals[:count]
            del self._parent[:count]
            del self._z[:count]
            self._offset += count
            if not self._tree_roots:
                self._stack = []  # the open tree itself was committed
            self._watermark = max(self._watermark, cutoff)
            out.append(
                CommittedTree(
                    root_id=root,
                    cutoff=cutoff,
                    forest=FlatForest(arr, parent, z=z),
                )
            )
        return out

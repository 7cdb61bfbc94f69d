"""Flat, numpy-backed merge forests.

:class:`~repro.core.merge_tree.MergeForest` is a pointer graph of
:class:`~repro.core.merge_tree.MergeNode` objects; every cost query walks
it with per-node ``last_descendant()`` calls, which is both allocation-
and pointer-chase-heavy at production scale.  :class:`FlatForest` stores
the same information as three parallel numpy arrays over the nodes in
arrival order:

* ``arrivals[i]`` — the node's label (strictly increasing);
* ``parent[i]`` — index of the parent node, ``-1`` for tree roots
  (always ``parent[i] < i`` since parents arrive earlier);
* ``z[i]`` — the latest arrival in the subtree of node ``i``
  (precomputed once, in one reverse O(n) pass).

Every cost the paper defines is then a vectorised expression: receive-two
stream lengths are ``2 z - x - p`` over non-roots (Lemma 1), receive-all
lengths ``z - p`` (Lemma 17), ``Mcost``/``Fcost`` are sums, and channel
intervals are ``[x, x + length)`` slices — no Python object is ever
materialised.  Conversion to and from ``MergeForest`` is lossless (the
sibling order of a valid merge tree is arrival order, which the flat form
preserves by construction); ``tests/fastpath/test_flat_forest.py`` proves
cost-exact and structure-exact round trips against the object oracles.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..core.merge_tree import (
    MergeForest,
    MergeNode,
    MergeTree,
    _as_int_if_exact,
)
from ..scale.kernels import forest_z

__all__ = ["FlatForest", "as_flat_forest"]


class FlatForest:
    """A merge forest as parallel arrays (see module docstring).

    Construct from raw arrays, or via :meth:`from_forest` /
    :meth:`from_tree`; convert back with :meth:`to_forest`.
    """

    __slots__ = ("arrivals", "parent", "z", "root_index")

    def __init__(
        self,
        arrivals: Union[np.ndarray, Sequence[float]],
        parent: Union[np.ndarray, Sequence[int]],
        z: Union[np.ndarray, Sequence[float], None] = None,
    ):
        arr = np.ascontiguousarray(arrivals, dtype=np.float64)
        par = np.ascontiguousarray(parent, dtype=np.intp)
        if arr.ndim != 1 or par.ndim != 1 or arr.size != par.size:
            raise ValueError("arrivals and parent must be 1-D arrays of equal length")
        n = arr.size
        if n == 0:
            raise ValueError("a merge forest needs at least one node")
        finite = np.isfinite(arr)
        if not finite.all():
            # NaN fails every comparison, so the order check below alone
            # would let it through.
            raise ValueError(
                f"arrivals must be finite, got {float(arr[~finite][0])!r}"
            )
        if np.any(arr[1:] <= arr[:-1]):
            raise ValueError("arrivals must be strictly increasing")
        if par[0] != -1:
            raise ValueError("the first node must be a root (parent == -1)")
        if np.any(par < -1) or np.any(par >= np.arange(n)):
            raise ValueError("parent[i] must be -1 or an earlier index (< i)")
        # root_index[i]: index of the root of i's tree.  Trees must occupy
        # contiguous index ranges (the MergeForest boundary property), so
        # the root of i is the latest root at or before i — and a parent
        # pointing before that root would cross a tree boundary.
        root_index = np.maximum.accumulate(
            np.where(par == -1, np.arange(n), -1)
        )
        nonroot = par >= 0
        if np.any(par[nonroot] < root_index[nonroot]):
            raise ValueError(
                "parent pointer crosses a tree boundary (trees must be "
                "contiguous in arrival order)"
            )
        # z[i] = max arrival in subtree(i): one reverse pass suffices
        # because every child has a larger index than its parent.  Builders
        # that know the subtree maxima already (e.g. the flat dyadic
        # construction, where a run's subtree is exactly the run) may pass
        # ``z`` to skip the pass; the array is trusted as-is.
        if z is None:
            z = forest_z(arr, par)
        else:
            z = np.ascontiguousarray(z, dtype=np.float64)
            if z.shape != arr.shape:
                raise ValueError("z must match arrivals in shape")
        self.arrivals = arr
        self.parent = par
        self.z = z
        self.root_index = root_index

    @classmethod
    def concatenated(
        cls, arrivals: np.ndarray, parent: np.ndarray, z: np.ndarray
    ) -> "FlatForest":
        """Several objects' forests laid end to end, built by trusted code.

        The ragged kernels' output: ``parent`` indexes the whole array and
        never crosses an object, and arrivals increase within each object
        but restart at the next one, so label lookups (:meth:`find`) do
        not apply.  Nothing is validated; every per-node array query
        (``stream_lengths``, ``is_root``, ``z``) does apply.
        """
        forest = cls.__new__(cls)
        forest.arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
        forest.parent = np.ascontiguousarray(parent, dtype=np.intp)
        forest.z = np.ascontiguousarray(z, dtype=np.float64)
        n = forest.arrivals.size
        forest.root_index = np.maximum.accumulate(
            np.where(forest.parent == -1, np.arange(n), -1)
        )
        return forest

    # -- basic queries ---------------------------------------------------------

    def __len__(self) -> int:
        return int(self.arrivals.size)

    @property
    def is_root(self) -> np.ndarray:
        """Boolean mask of tree roots."""
        return self.parent < 0

    def num_trees(self) -> int:
        return int(np.count_nonzero(self.parent < 0))

    def roots(self) -> List[float]:
        """Root labels, in tree order (collapsed to int when exact)."""
        return [_as_int_if_exact(x) for x in self.arrivals[self.is_root].tolist()]

    def find(self, arrival: float) -> int:
        """Index of the node labelled ``arrival`` (binary search)."""
        i = int(np.searchsorted(self.arrivals, arrival))
        if i >= len(self) or self.arrivals[i] != arrival:
            raise KeyError(f"arrival {arrival} not in forest")
        return i

    def path_indices(self, i: int) -> List[int]:
        """Indices from the tree root down to node ``i``."""
        path = []
        j = int(i)
        while j >= 0:
            path.append(j)
            j = int(self.parent[j])
        path.reverse()
        return path

    def paths(self, labels: Union[Sequence, None] = None) -> List[Tuple]:
        """Every node's root path as shared tuples, one forward pass.

        Parents precede children in index order, so ``paths[i]`` can
        reuse ``paths[parent]`` — O(total depth) tuple cells.  ``labels``
        substitutes what the tuples hold (default: arrival labels);
        callers pass node indices or type-collapsed labels as needed.
        """
        lab = self.arrivals.tolist() if labels is None else list(labels)
        par = self.parent.tolist()
        out: List[Tuple] = [()] * len(par)
        for i, a in enumerate(lab):
            p = par[i]
            out[i] = (out[p] + (a,)) if p >= 0 else (a,)
        return out

    def equals(self, other: "FlatForest") -> bool:
        return (
            len(self) == len(other)
            and np.array_equal(self.arrivals, other.arrivals)
            and np.array_equal(self.parent, other.parent)
        )

    # -- costs (all vectorised) ------------------------------------------------

    def stream_lengths(
        self, L: Union[float, np.ndarray], model: str = "receive-two"
    ) -> np.ndarray:
        """Per-node stream lengths: Lemma 1 or Lemma 17; roots carry ``L``
        (one value, or one per node for a :meth:`concatenated` forest).

        Every node takes the non-root expression, a root's "parent" being
        the last node (``-1`` wraps), and the roots are then overwritten,
        so no per-node array is compressed or scattered."""
        if model not in ("receive-two", "receive-all"):
            raise ValueError(f"unknown client model {model!r}")
        p = np.take(self.arrivals, self.parent, mode="wrap")
        if model == "receive-two":
            out = 2 * self.z
            out -= self.arrivals
            out -= p
        else:
            out = np.subtract(self.z, p, out=p)
        np.copyto(out, L, where=self.parent < 0)
        return out

    def stream_length_map(
        self, L: float, model: str = "receive-two"
    ) -> Dict[float, float]:
        """``arrival -> length`` dict, matching ``MergeForest.stream_lengths``."""
        return dict(zip(self.arrivals.tolist(), self.stream_lengths(L, model).tolist()))

    def merge_cost(self) -> float:
        """``Mcost``: sum of receive-two lengths over non-roots (Lemma 1)."""
        nonroot = self.parent >= 0
        total = np.sum(
            2 * self.z[nonroot]
            - self.arrivals[nonroot]
            - self.arrivals[self.parent[nonroot]]
        )
        return _as_int_if_exact(float(total))

    def merge_cost_receive_all(self) -> float:
        """``Mcost_w``: sum of receive-all lengths over non-roots (Lemma 17)."""
        nonroot = self.parent >= 0
        total = np.sum(self.z[nonroot] - self.arrivals[self.parent[nonroot]])
        return _as_int_if_exact(float(total))

    def tree_spans(self) -> np.ndarray:
        """``z - r`` per tree, in tree order."""
        root = self.is_root
        return self.z[root] - self.arrivals[root]

    def validate_for_length(self, L: float) -> None:
        """Every tree must span at most ``L - 1`` (same bound both models)."""
        spans = self.tree_spans()
        bad = np.nonzero(spans > L - 1)[0]
        if bad.size:
            i = int(bad[0])
            root_label = self.arrivals[self.is_root][i]
            raise ValueError(
                f"tree rooted at {_as_int_if_exact(float(root_label))} spans "
                f"{_as_int_if_exact(float(spans[i]))} > L-1 = {L - 1}; the "
                "last arrival cannot merge in time"
            )

    def full_cost(self, L: float) -> float:
        """``Fcost = s*L + Mcost`` (receive-two)."""
        self.validate_for_length(L)
        return _as_int_if_exact(self.num_trees() * L + self.merge_cost())

    def full_cost_receive_all(self, L: float) -> float:
        """``Fcost_w = s*L + Mcost_w`` (receive-all)."""
        self.validate_for_length(L)
        return _as_int_if_exact(self.num_trees() * L + self.merge_cost_receive_all())

    def intervals(self, L: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positive-length stream intervals as ``(labels, starts, ends)``.

        The array analogue of ``simulation.channels.forest_intervals``:
        stream ``x`` occupies ``[x, x + length(x))``.
        """
        lengths = self.stream_lengths(L)
        keep = lengths > 0
        labels = self.arrivals[keep]
        # starts is a copy, not an alias of labels: callers may shift the
        # schedule in place without silently renaming every stream.
        return labels, labels.copy(), labels + lengths[keep]

    # -- conversion ------------------------------------------------------------

    @classmethod
    def from_tree(cls, tree: MergeTree) -> "FlatForest":
        return cls.from_forest(MergeForest([tree]))

    @classmethod
    def from_forest(cls, forest: MergeForest) -> "FlatForest":
        """Lossless flattening of a ``MergeForest`` (O(n))."""
        labels: List[float] = []
        parents: List[int] = []
        index: Dict[float, int] = {}
        for tree in forest:
            for node in tree.root.preorder():
                index[node.arrival] = -1  # placeholder; filled below
        # Node order must be arrival order; a preorder walk of a valid
        # merge tree is not necessarily sorted (only optimal trees are),
        # so sort the labels and map parents through the index.
        ordered = sorted(index)
        index = {a: i for i, a in enumerate(ordered)}
        labels = ordered
        parents = [0] * len(ordered)
        for tree in forest:
            for node in tree.root.preorder():
                parents[index[node.arrival]] = (
                    -1 if node.parent is None else index[node.parent.arrival]
                )
        return cls(np.asarray(labels, dtype=np.float64), np.asarray(parents, dtype=np.intp))

    def to_forest(self) -> MergeForest:
        """Inverse of :meth:`from_forest` (canonical-form identical)."""
        n = len(self)
        nodes = [MergeNode(_as_int_if_exact(float(a))) for a in self.arrivals]
        for i in range(n):
            p = int(self.parent[i])
            if p >= 0:
                nodes[i].parent = nodes[p]
                nodes[p].children.append(nodes[i])
        # Ascending index == ascending arrival, so children lists are in
        # arrival order — the sibling order MergeTree requires.
        out: List[MergeTree] = []
        for i in np.nonzero(self.is_root)[0]:
            out.append(MergeTree(nodes[int(i)]))
        return MergeForest(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatForest(n={len(self)}, trees={self.num_trees()})"


def as_flat_forest(forest: Union[FlatForest, MergeForest, MergeTree]) -> FlatForest:
    """Coerce any forest representation to a :class:`FlatForest`."""
    if isinstance(forest, FlatForest):
        return forest
    if isinstance(forest, MergeTree):
        return FlatForest.from_tree(forest)
    return FlatForest.from_forest(forest)

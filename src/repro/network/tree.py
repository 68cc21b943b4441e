"""The logical routing tree ``G_l`` of Section 2.

All query traffic flows along this tree: convergecasts go child -> parent,
broadcasts go parent -> children.  The tree is a set of read-only per-vertex
arrays (parent, a children CSR, depths, breadth-first levels, subtree
sizes, a preorder and the bottom-up hop order), derived once from the
parent array when the tree is built.  It holds no link lengths, because
every transmission is charged at the nominal radio range
(:mod:`repro.radio.energy`).  This is the only module that derives
structure from a parent array; the simulation engine, the faulty walk, the
watchdog and tree repair all read these arrays.  Python loops that index
the tree element by element read tuple views of the same arrays, built on
first use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import TopologyError
from repro.network.topology import csr_pairs


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False, repr=False)
class RoutingTree:
    """A rooted tree over the network vertices, as read-only arrays.

    One tree is shared by the network, the watchdog, tree repair and every
    runner of a deployment, so its arrays refuse in-place writes; the
    rebuilders (:func:`tree_multi_reparented`, :meth:`with_relays`) return
    new trees.

    Attributes:
        root: index of the root (sink) vertex.
        parent_array: ``int64`` parent per vertex, ``-1`` at the root.
        child_ptr, child_index: the children in CSR form, siblings
            ascending: the children of ``v`` are
            ``child_index[child_ptr[v]:child_ptr[v + 1]]``.
        depth_array: hop distance from the root per vertex.
        levels: the breadth-first frontiers, ``levels[0] == [root]`` and
            ``levels[d]`` the vertices at depth ``d``.  The faulty walk
            sweeps them top-down to find how far each payload gets.
        size_array: subtree size per vertex, itself included.
        preorder: each vertex's position in a preorder (siblings visited in
            descending index order); the subtree of ``v`` occupies exactly
            the positions ``[preorder[v], preorder[v] + size_array[v])``.
        bottom_up: the convergecast hop order, root excluded: children
            before parents (see :attr:`bottom_up_order`).
        relays: vertices that forward traffic but contribute no
            measurements.  Empty in the paper's setting; the probabilistic
            layered-sampling extension (Section 3.1 / [28]) marks
            non-sampled nodes as relays.
    """

    root: int
    parent_array: np.ndarray
    child_ptr: np.ndarray
    child_index: np.ndarray
    depth_array: np.ndarray
    levels: tuple[np.ndarray, ...]
    size_array: np.ndarray
    preorder: np.ndarray
    bottom_up: np.ndarray
    relays: frozenset[int] = frozenset()

    # Two trees are equal when they have the same root, parents and
    # relays; everything else derives from those.
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.root == other.root
            and self.relays == other.relays
            and np.array_equal(self.parent_array, other.parent_array)
        )

    def __hash__(self) -> int:
        return hash((self.root, self.parent_array.tobytes(), self.relays))

    def __repr__(self) -> str:
        return (
            f"RoutingTree(root={self.root!r}, parent={self.parent!r}, "
            f"relays={self.relays!r})"
        )

    @property
    def num_vertices(self) -> int:
        """Total number of vertices, root included."""
        return len(self.parent_array)

    @property
    def num_sensor_nodes(self) -> int:
        """Number of measuring nodes ``|N|`` (root and relays excluded)."""
        return self.num_vertices - 1 - len(self.relays)

    # The views below are built on first use and cached per instance (the
    # tree is immutable; ``with_relays`` and the rebuilders return new
    # instances).  They hold Python ints, whose reprs feed the pinned
    # fingerprints; loops that index the tree one vertex at a time
    # read them instead of the arrays.

    @cached_property
    def parent(self) -> tuple[int, ...]:
        """``parent[v]`` is the parent of ``v``; ``parent[root] == -1``."""
        return tuple(self.parent_array.tolist())

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's children, ascending."""
        bounds = self.child_ptr.tolist()
        kids = self.child_index.tolist()
        return tuple(tuple(kids[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Hop distance from the root per vertex."""
        return tuple(self.depth_array.tolist())

    @cached_property
    def subtree_size(self) -> tuple[int, ...]:
        """Subtree size per vertex, itself included."""
        return tuple(self.size_array.tolist())

    @cached_property
    def hop_order(self) -> tuple[int, ...]:
        """:attr:`bottom_up` as a tuple: the order a convergecast visits
        its hops in."""
        return tuple(self.bottom_up.tolist())

    @cached_property
    def bottom_up_order(self) -> tuple[int, ...]:
        """Vertices ordered children-first, ending on the root: the reverse
        of a stack search's top-down order, which pushes each popped
        vertex's children ascending.  The faulty walk draws its random
        values in this order, so it is part of the spec."""
        return self.hop_order + (self.root,)

    @cached_property
    def top_down_order(self) -> tuple[int, ...]:
        """Vertices ordered root-first (reverse of the bottom-up order)."""
        return tuple(reversed(self.bottom_up_order))

    @cached_property
    def sensor_nodes(self) -> tuple[int, ...]:
        """Indices of all measuring nodes (root and relays excluded)."""
        return tuple(
            v
            for v in range(self.num_vertices)
            if v != self.root and v not in self.relays
        )

    @cached_property
    def sensor_mask(self) -> np.ndarray:
        """:attr:`sensor_nodes` as a read-only per-vertex mask."""
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.root] = False
        if self.relays:
            mask[list(self.relays)] = False
        return _read_only(mask)

    @cached_property
    def branch(self) -> np.ndarray:
        """Each vertex's top-level ancestor: the root child whose branch
        holds it (the root maps to itself)."""
        branch = np.arange(self.num_vertices, dtype=np.int64)
        parent = self.parent_array
        for level in self.levels[2:]:
            branch[level] = branch[parent[level]]
        return _read_only(branch)

    def below(self, mask: np.ndarray) -> np.ndarray:
        """Mask of the vertices in the subtree of some masked non-root
        vertex, the masked ones included.

        One cover over the preorder: each marked subtree adds one over its
        range of positions, and a running sum finds the covered ones.  The
        root's own state is not a subtree's, so a masked root covers
        nothing.
        """
        marked = np.flatnonzero(mask)
        marked = marked[marked != self.root]
        cover = preorder_cover(
            self.num_vertices, self.preorder[marked], self.size_array[marked]
        )
        return cover[self.preorder]

    def with_relays(self, relays: frozenset[int] | set[int]) -> "RoutingTree":
        """A copy of this tree with ``relays`` demoted to pure forwarders."""
        relays = frozenset(relays)
        if self.root in relays:
            raise TopologyError("the root cannot be a relay")
        out_of_range = [v for v in relays if not 0 <= v < self.num_vertices]
        if out_of_range:
            raise TopologyError(f"relay vertices out of range: {out_of_range[:5]}")
        if len(relays) >= self.num_vertices - 1:
            raise TopologyError("at least one sensor node must remain")
        return replace(self, relays=relays)

    def is_leaf(self, vertex: int) -> bool:
        """True iff ``vertex`` has no children."""
        return bool(self.child_ptr[vertex] == self.child_ptr[vertex + 1])

    def path_to_root(self, vertex: int) -> list[int]:
        """The vertex sequence from ``vertex`` up to and including the root."""
        path = [vertex]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path


def preorder_cover(length: int, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Which of ``length`` preorder positions lie in some subtree range
    ``[start, start + size)``: one running count over the ranges' ends."""
    cover = np.bincount(starts, minlength=length + 1)
    cover -= np.bincount(starts + sizes, minlength=length + 1)
    return np.cumsum(cover[:length]) > 0


def tree_from_parents(root: int, parent: list[int]) -> RoutingTree:
    """Construct a validated :class:`RoutingTree` from a parent array.

    Checks that the structure is a single tree spanning all vertices and
    rooted at ``root``.
    """
    n = len(parent)
    if not 0 <= root < n:
        raise TopologyError(f"root {root} out of range for {n} vertices")
    for vertex, par in enumerate(parent):
        if vertex != root and not 0 <= par < n:
            raise TopologyError(f"vertex {vertex} has invalid parent {par}")
    return _tree_from_parent_array(root, np.array(parent, dtype=np.int64))


def _tree_from_parent_array(
    root: int,
    parent: "Sequence[int] | np.ndarray",
    relays: frozenset[int] = frozenset(),
) -> RoutingTree:
    """Validate a parent array and derive the tree's arrays from it.

    An ``int64`` array passed as ``parent`` becomes the tree's own
    (read-only) parent array, so callers pass an array that nothing else
    holds.
    """
    n = len(parent)
    if parent[root] != -1:
        raise TopologyError("parent[root] must be -1")
    par = np.asarray(parent, dtype=np.int64)
    bad = (par < 0) | (par >= n) | (par == np.arange(n))
    bad[root] = False
    if bad.any():
        vertex = int(np.argmax(bad))
        if par[vertex] == vertex:
            raise TopologyError(f"vertex {vertex} is its own parent")
        raise TopologyError(f"vertex {vertex} has invalid parent {parent[vertex]}")

    # Children lists in CSR form, siblings ascending.
    kids = np.argsort(par, kind="stable")[1:]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(par[kids], minlength=n), out=indptr[1:])

    # Breadth-first from the root establishes reachability and acyclicity:
    # a parent array whose edges reach all n vertices from the root is a
    # tree (a cycle and whatever hangs off it stay unreached).  Every vertex
    # is the child of one parent, so no level reaches a vertex twice and
    # each level is just the children of the one before (the order
    # :func:`~repro.network.topology.bfs_levels` gives).
    depth = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    levels = [np.array([root], dtype=np.int64)]
    while True:
        _, frontier = csr_pairs(indptr, kids, levels[-1])
        if not len(frontier):
            break
        depth[frontier] = len(levels)
        levels.append(frontier)
    unreachable = np.flatnonzero(depth < 0).tolist()
    if unreachable:
        raise TopologyError(
            f"{len(unreachable)} vertices unreachable from root "
            f"(first few: {unreachable[:5]})"
        )

    subtree = np.ones(n, dtype=np.int64)
    for level in reversed(levels[1:]):
        np.add.at(subtree, par[level], subtree[level])

    # The top-down order is that of a stack search which pushes each popped
    # vertex's children in ascending order: the root, then every child list
    # in pop order.  The pops are a preorder that visits siblings in
    # descending order, so a vertex pops after its parent and after every
    # later sibling's subtree.
    later = np.cumsum(subtree[kids])
    later = later[indptr[par[kids] + 1] - 1] - later
    preorder = np.zeros(n, dtype=np.int64)
    preorder[kids] = later
    for level in levels[1:]:
        preorder[level] += preorder[par[level]] + 1
    _, top_down = csr_pairs(indptr, kids, np.argsort(preorder))

    return RoutingTree(
        root=root,
        parent_array=_read_only(par),
        child_ptr=_read_only(indptr),
        child_index=_read_only(kids),
        depth_array=_read_only(depth),
        levels=tuple(_read_only(level) for level in levels),
        size_array=_read_only(subtree),
        preorder=_read_only(preorder),
        bottom_up=_read_only(top_down[::-1].copy()),
        relays=relays,
    )


def tree_multi_reparented(
    tree: RoutingTree,
    moves: "Sequence[tuple[int, int]]",
    *,
    new_root: int | None = None,
) -> RoutingTree:
    """A copy of ``tree`` with many re-parentings applied in one rebuild.

    ``moves`` is a sequence of ``(vertex, new_parent)`` entries, applied in
    order (a later move for the same vertex wins).  Tree repair applies a
    whole round's cascade of adoptions through this single call instead of
    rebuilding the derived traversal structures once per adoption — the
    O(n) rebuild happens once per round, not once per orphan.

    ``new_root`` re-roots the result at a different vertex in the same
    O(n) rebuild (root fail-over: the successor takes over the sink role).
    With it set, moves may re-parent the *old* root — typically reversing
    the edges on the successor's path — and the new root's parent entry is
    forced to ``-1`` after all moves are applied.

    Moves are validated jointly: the *final* parent array must still be a
    single tree spanning all vertices, so a combination of individually
    plausible moves that creates a cycle (e.g. two subtrees adopting into
    each other) raises :class:`~repro.errors.TopologyError`.
    """
    if not moves and new_root is None:
        return tree
    root = tree.root if new_root is None else new_root
    if not 0 <= root < tree.num_vertices:
        raise TopologyError(f"new root {root} out of range")
    if root in tree.relays:
        raise TopologyError(f"new root {root} is a relay")
    parent = tree.parent_array.copy()
    for vertex, new_parent in moves:
        if vertex == root or (new_root is None and vertex == tree.root):
            raise TopologyError("cannot re-parent the root")
        if not 0 <= new_parent < tree.num_vertices:
            raise TopologyError(f"new parent {new_parent} out of range")
        parent[vertex] = new_parent
    parent[root] = -1
    return _tree_from_parent_array(root, parent, relays=tree.relays)

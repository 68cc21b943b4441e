"""The logical routing tree ``G_l`` of Section 2.

All query traffic flows along this tree: convergecasts go child -> parent,
broadcasts go parent -> children.  The tree is represented compactly by a
parent array plus derived structures (children lists, a bottom-up traversal
order, per-vertex depths and subtree sizes) that the simulation engine uses
on every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import TopologyError
from repro.network.topology import bfs_levels, csr_pairs


@dataclass(frozen=True)
class RoutingTree:
    """A rooted tree over the network vertices.

    Attributes:
        root: index of the root (sink) vertex.
        parent: ``parent[v]`` is the parent of ``v``; ``parent[root] == -1``.
        link_distance: Euclidean length [m] of the link ``v -> parent[v]``
            (0.0 for the root).  Kept for energy models where the transmit
            amplifier may depend on the actual link length rather than the
            nominal radio range.
    """

    root: int
    parent: tuple[int, ...]
    link_distance: tuple[float, ...]
    children: tuple[tuple[int, ...], ...] = field(repr=False)
    depth: tuple[int, ...] = field(repr=False)
    bottom_up_order: tuple[int, ...] = field(repr=False)
    subtree_size: tuple[int, ...] = field(repr=False)
    #: Vertices that forward traffic but contribute no measurements.  Empty
    #: in the paper's setting; the probabilistic layered-sampling extension
    #: (Section 3.1 / [28]) marks non-sampled nodes as relays.
    relays: frozenset[int] = frozenset()

    @property
    def num_vertices(self) -> int:
        """Total number of vertices, root included."""
        return len(self.parent)

    @property
    def num_sensor_nodes(self) -> int:
        """Number of measuring nodes ``|N|`` (root and relays excluded)."""
        return self.num_vertices - 1 - len(self.relays)

    # The derived orders below are cached per instance (the tree is
    # immutable; ``with_relays`` and the rebuilders return new instances).

    @cached_property
    def sensor_nodes(self) -> tuple[int, ...]:
        """Indices of all measuring nodes (root and relays excluded)."""
        return tuple(
            v
            for v in range(self.num_vertices)
            if v != self.root and v not in self.relays
        )

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
        from dataclasses import replace

        return replace(self, relays=relays)

    @cached_property
    def top_down_order(self) -> tuple[int, ...]:
        """Vertices ordered root-first (reverse of the bottom-up order)."""
        return tuple(reversed(self.bottom_up_order))

    def is_leaf(self, vertex: int) -> bool:
        """True iff ``vertex`` has no children."""
        return not self.children[vertex]

    def internal_vertices(self) -> tuple[int, ...]:
        """Vertices with at least one child (these transmit on broadcasts)."""
        return tuple(v for v in range(self.num_vertices) if self.children[v])

    def path_to_root(self, vertex: int) -> list[int]:
        """The vertex sequence from ``vertex`` up to and including the root."""
        path = [vertex]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def subtree_vertices(self, vertex: int) -> tuple[int, ...]:
        """All vertices of the subtree rooted at ``vertex`` (itself included)."""
        out: list[int] = []
        stack = [vertex]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        return tuple(out)


def tree_from_parents(
    root: int,
    parent: list[int],
    positions: np.ndarray | None = None,
) -> RoutingTree:
    """Construct a validated :class:`RoutingTree` from a parent array.

    Checks that the structure is a single tree spanning all vertices and
    rooted at ``root``.  ``positions`` (``(n, 2)``) is used to record link
    lengths; if omitted all link lengths are zero.
    """
    n = len(parent)
    if not 0 <= root < n:
        raise TopologyError(f"root {root} out of range for {n} vertices")
    for vertex, par in enumerate(parent):
        if vertex != root and not 0 <= par < n:
            raise TopologyError(f"vertex {vertex} has invalid parent {par}")
    if positions is not None:
        pos = np.asarray(positions, dtype=float)
        ends = np.array(parent)
        ends[root] = root
        delta = pos[:n] - pos[ends]
        link = np.hypot(delta[:, 0], delta[:, 1]).tolist()
    else:
        link = [0.0] * n
    return _tree_from_parent_links(root, list(parent), link)


def _tree_from_parent_links(
    root: int,
    parent: list[int],
    link: list[float],
    relays: frozenset[int] = frozenset(),
) -> RoutingTree:
    """Validate a parent array and derive the traversal structures."""
    n = len(parent)
    if parent[root] != -1:
        raise TopologyError("parent[root] must be -1")
    par = np.array(parent, dtype=np.int64)
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
    # tree (a cycle and whatever hangs off it stay unreached).
    depth, levels = bfs_levels(indptr, kids, root)
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
    pop_rank = np.zeros(n, dtype=np.int64)
    pop_rank[kids] = later
    for level in levels[1:]:
        pop_rank[level] += pop_rank[par[level]] + 1
    _, top_down = csr_pairs(indptr, kids, np.argsort(pop_rank))

    bounds = indptr.tolist()
    siblings = kids.tolist()
    return RoutingTree(
        root=root,
        parent=tuple(parent),
        link_distance=tuple(link),
        children=tuple(
            tuple(siblings[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ),
        depth=tuple(depth.tolist()),
        bottom_up_order=tuple(top_down[::-1].tolist()) + (root,),
        subtree_size=tuple(subtree.tolist()),
        relays=relays,
    )


def tree_multi_reparented(
    tree: RoutingTree,
    moves: "Sequence[tuple[int, int, float]]",
    *,
    new_root: int | None = None,
) -> RoutingTree:
    """A copy of ``tree`` with many re-parentings applied in one rebuild.

    ``moves`` is a sequence of ``(vertex, new_parent, link_distance)``
    entries, applied in order (a later move for the same vertex wins).
    Tree repair applies a whole round's cascade of adoptions through this
    single call instead of rebuilding the derived traversal structures once
    per adoption — the O(n) rebuild happens once per round, not once per
    orphan.

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
    parent = list(tree.parent)
    link = list(tree.link_distance)
    for vertex, new_parent, link_distance in moves:
        if vertex == root or (new_root is None and vertex == tree.root):
            raise TopologyError("cannot re-parent the root")
        if not 0 <= new_parent < tree.num_vertices:
            raise TopologyError(f"new parent {new_parent} out of range")
        if link_distance < 0.0:
            raise TopologyError(
                f"link_distance must be >= 0, got {link_distance}"
            )
        parent[vertex] = new_parent
        link[vertex] = float(link_distance)
    parent[root] = -1
    link[root] = 0.0
    return _tree_from_parent_links(root, parent, link, relays=tree.relays)

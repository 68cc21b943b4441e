"""Multi-sensor nodes via artificial children (Section 2).

The paper: "An extension of the concepts proposed in this paper to nodes
producing multiple values at a time is trivial since additional values
could be interpreted as received from artificial child nodes."  This module
performs that interpretation mechanically:

* :func:`expand_tree` appends, for every physical sensor vertex, ``m - 1``
  artificial leaf children co-located with their host.  The artificial
  vertices are *virtual*: :class:`~repro.sim.TreeNetwork` charges no radio
  energy on their device-internal uplinks.
* :func:`expand_values` spreads a ``(hosts, m)`` reading matrix onto the
  expanded vertex indexing (slot 0 stays on the host).

The quantile query then runs unchanged over ``m * |N|`` measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.network.tree import RoutingTree, _tree_from_parent_array


@dataclass(frozen=True)
class MultiValueExpansion:
    """An expanded tree plus the host/slot <-> vertex bookkeeping.

    Attributes:
        tree: the expanded routing tree.
        virtual_vertices: the artificial children (pass to TreeNetwork).
        values_per_node: readings per physical node ``m``.
        host_of: maps every expanded vertex to its physical host vertex.
        slot_vertices: ``slot_vertices[host][slot]`` is the expanded vertex
            carrying the host's ``slot``-th reading (slot 0 = the host).
    """

    tree: RoutingTree
    virtual_vertices: frozenset[int]
    values_per_node: int
    host_of: tuple[int, ...]
    slot_vertices: dict[int, tuple[int, ...]]

    @property
    def num_physical_nodes(self) -> int:
        """Number of physical sensor devices."""
        return len(self.slot_vertices)


def expand_tree(tree: RoutingTree, values_per_node: int) -> MultiValueExpansion:
    """Attach ``values_per_node - 1`` artificial children to every sensor.

    The original vertex ids are preserved; artificial vertices get the ids
    ``tree.num_vertices ..``.  Relay vertices (layered sampling) stay
    relays and are left unexpanded — they contribute no measurements.
    """
    if values_per_node < 1:
        raise ConfigurationError(
            f"values_per_node must be >= 1, got {values_per_node}"
        )
    hosts = tree.sensor_nodes
    parent = tree.parent_array.tolist()
    host_of = list(range(tree.num_vertices))
    slot_vertices: dict[int, list[int]] = {host: [host] for host in hosts}
    virtual: list[int] = []
    next_id = tree.num_vertices
    for host in hosts:
        for _ in range(values_per_node - 1):
            parent.append(host)
            host_of.append(host)
            slot_vertices[host].append(next_id)
            virtual.append(next_id)
            next_id += 1

    return MultiValueExpansion(
        tree=_tree_from_parent_array(tree.root, parent, relays=tree.relays),
        virtual_vertices=frozenset(virtual),
        values_per_node=values_per_node,
        host_of=tuple(host_of),
        slot_vertices={
            host: tuple(slots) for host, slots in slot_vertices.items()
        },
    )


def expand_values(
    expansion: MultiValueExpansion, readings: np.ndarray
) -> np.ndarray:
    """Scatter a per-host reading matrix onto the expanded vertex indexing.

    Args:
        expansion: the expansion produced by :func:`expand_tree`.
        readings: integer array of shape ``(num_physical_nodes, m)`` in the
            order of the original tree's ``sensor_nodes``.

    Returns:
        A values array indexed by expanded vertex id.
    """
    readings = np.asarray(readings)
    expected = (expansion.num_physical_nodes, expansion.values_per_node)
    if readings.shape != expected:
        raise ConfigurationError(
            f"readings must have shape {expected}, got {readings.shape}"
        )
    values = np.zeros(expansion.tree.num_vertices, dtype=np.int64)
    for row, host in enumerate(sorted(expansion.slot_vertices)):
        for slot, vertex in enumerate(expansion.slot_vertices[host]):
            values[vertex] = readings[row, slot]
    return values

"""Struct-of-arrays building blocks for the vectorized simulation core.

The object engine (:mod:`repro.sim.engine`) walks one Python object per
vertex and charges the energy ledger one scalar numpy update at a time —
fine at 30 nodes, ruinous at 30k.  This module holds the three pieces that
turn a round into a handful of segmented array operations:

* :class:`TreeArrays` — a per-vertex array view of a
  :class:`~repro.network.tree.RoutingTree` (parent, depth, topological
  levels, bottom-up order, children mask, link lengths).  Built once per
  tree and reused every round; :meth:`TreeNetwork.retarget` rebuilds it.

* :class:`ChargeLog` — an ordered recorder with the
  ``charge_send``/``charge_recv`` signature of
  :class:`~repro.radio.ledger.EnergyLedger`.  Joules are computed at log
  time with exactly the scalar ledger's float arithmetic; ``flush()``
  replays the whole sequence through one
  :meth:`~repro.radio.ledger.EnergyLedger.charge_batch` call.  Because
  ``np.add.at`` accumulates repeated indices in array order, the per-vertex
  addition sequence — and therefore every float in the ledger — matches the
  scalar call sequence bit for bit.

The opt-in contract for the fully segmented convergecast path —
:class:`~repro.sim.engine.UniformPayload` — lives next to the base
:class:`~repro.sim.engine.Payload` contract in the engine module, so this
module stays free of engine imports.  Payload state under that contract
never travels as objects at all; subtree occupancy and value counts are
per-vertex arrays folded one topological level at a time.

The engine keeps its object API on top of these (see ``DESIGN.md``,
"Vectorized simulation core"); algorithms never see this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.tree import RoutingTree
    from repro.radio.ledger import EnergyLedger
    from repro.radio.message import MessageCost


class TreeArrays:
    """Per-vertex array view of a routing tree, cached across rounds.

    Attributes:
        num_vertices: total vertex count, root included.
        root: the sink vertex.
        parent: ``int64`` parent index per vertex (root maps to itself so
            fancy indexing never walks out of bounds; the root never sends).
        depth: hop distance from the root per vertex.
        link_distance: ``float64`` uplink length per vertex.
        levels: index arrays grouping vertices by depth, ``levels[0]`` being
            ``[root]``.  Broadcasts sweep them top-down, the segmented
            convergecast sweeps them bottom-up.
        bottom_up_no_root: the tree's bottom-up traversal order minus the
            root — the canonical hop order of a convergecast.
        has_children: boolean mask of internal vertices (broadcast senders).
    """

    __slots__ = (
        "num_vertices",
        "root",
        "parent",
        "depth",
        "link_distance",
        "levels",
        "bottom_up_no_root",
        "has_children",
    )

    def __init__(self, tree: "RoutingTree") -> None:
        n = tree.num_vertices
        self.num_vertices = n
        self.root = tree.root
        parent = np.array(tree.parent, dtype=np.int64)
        parent[tree.root] = tree.root
        self.parent = parent
        self.depth = np.array(tree.depth, dtype=np.int64)
        self.link_distance = np.array(tree.link_distance, dtype=np.float64)
        order = np.argsort(self.depth, kind="stable")
        boundaries = np.searchsorted(
            self.depth[order], np.arange(int(self.depth.max()) + 2)
        )
        self.levels = [
            order[boundaries[d] : boundaries[d + 1]]
            for d in range(len(boundaries) - 1)
        ]
        # bottom_up_order ends on the root (it is the reverse of a
        # root-first traversal), so dropping the last entry drops the root.
        self.bottom_up_no_root = np.array(
            tree.bottom_up_order[:-1], dtype=np.int64
        )
        self.has_children = np.array(
            [len(kids) > 0 for kids in tree.children], dtype=bool
        )


def send_cost_per_bit_array(
    model, radio_range: float, link_distance: Sequence[float]
) -> np.ndarray:
    """Per-vertex transmit cost [J/bit], scalar-exact.

    Each entry is produced by the same
    :meth:`~repro.radio.energy.EnergyModel.send_cost_per_bit` float
    arithmetic the scalar ledger path runs, so batched ``bits * cost``
    products equal the scalar ones bit for bit (a vectorized ``dist ** p``
    could round differently on some platforms).
    """
    return np.array(
        [model.send_cost_per_bit(radio_range, d) for d in link_distance],
        dtype=np.float64,
    )


def expand_arq_charges(
    att_child: np.ndarray,
    att_parent: np.ndarray,
    att_bits: np.ndarray,
    att_frames: np.ndarray,
    att_values: np.ndarray,
    att_parent_up: np.ndarray,
    att_frame_ok: np.ndarray,
    arq_enabled: bool,
    send_cpb,
    recv_cpb: float,
    ack_bits: int,
) -> dict:
    """Expand per-attempt ARQ outcomes into one ordered charge batch.

    Input arrays are flat per *data-frame attempt*, ordered by hop then
    attempt — the exact order the scalar faulty walk issues charges in.
    Each attempt expands to up to four energy events, in the scalar
    sequence of ``FaultyTreeNetwork._hop_delivered``:

    1. child data send — always;
    2. parent data receive — iff the parent is up;
    3. parent ACK send — iff ARQ is enabled and the frame survived
       (charged at the *child's* uplink distance, like the scalar path);
    4. child ACK-window receive — iff ARQ is enabled (a real ACK receive
       or the vain listen after a lost frame, same cost either way).

    Joules are per-event products of integer bit counts with the same
    J/bit factors the scalar ledger uses (``send_cpb`` is a per-attempt
    array or a scalar for distance-independent models), so a ledger fed
    the returned ``charge_batch`` kwargs accumulates every per-vertex
    float in scalar order, bit for bit.  The integer traffic counters are
    order-independent and returned pre-split by direction.
    """
    n = att_child.shape[0]
    if np.ndim(send_cpb) == 0:
        send_cpb = np.full(n, float(send_cpb))
    data_send_j = att_bits * send_cpb
    data_recv_j = att_bits * recv_cpb
    up = att_parent_up
    up_i = up.astype(np.int64)
    if arq_enabled:
        ok = att_frame_ok
        ok_i = ok.astype(np.int64)
        counts = 2 + up_i + ok_i
    else:
        counts = 1 + up_i
    offsets = np.empty(n, dtype=np.int64)
    if n:
        offsets[0] = 0
        np.cumsum(counts[:-1], out=offsets[1:])
    total = int(counts.sum())
    energy_vertices = np.empty(total, dtype=np.int64)
    energy_joules = np.empty(total, dtype=np.float64)
    energy_vertices[offsets] = att_child
    energy_joules[offsets] = data_send_j
    slot = offsets + 1
    recv_slots = slot[up]
    energy_vertices[recv_slots] = att_parent[up]
    energy_joules[recv_slots] = data_recv_j[up]
    if arq_enabled:
        ack_send_j = ack_bits * send_cpb
        slot += up_i
        ack_send_slots = slot[ok]
        energy_vertices[ack_send_slots] = att_parent[ok]
        energy_joules[ack_send_slots] = ack_send_j[ok]
        slot += ok_i
        energy_vertices[slot] = att_child
        energy_joules[slot] = ack_bits * recv_cpb
        ack_senders = att_parent[ok]
        k = ack_senders.shape[0]
        send_vertices = np.concatenate([att_child, ack_senders])
        send_messages = np.concatenate(
            [att_frames, np.ones(k, dtype=np.int64)]
        )
        send_bits = np.concatenate(
            [att_bits, np.full(k, ack_bits, dtype=np.int64)]
        )
        send_values = np.concatenate(
            [att_values, np.zeros(k, dtype=np.int64)]
        )
        recv_vertices = np.concatenate([att_parent[up], att_child])
        recv_messages = np.concatenate(
            [att_frames[up], np.ones(n, dtype=np.int64)]
        )
        recv_bits = np.concatenate(
            [att_bits[up], np.full(n, ack_bits, dtype=np.int64)]
        )
    else:
        send_vertices = att_child
        send_messages = att_frames
        send_bits = att_bits
        send_values = att_values
        recv_vertices = att_parent[up]
        recv_messages = att_frames[up]
        recv_bits = att_bits[up]
    return {
        "energy_vertices": energy_vertices,
        "energy_joules": energy_joules,
        "send_vertices": send_vertices,
        "send_messages": send_messages,
        "send_bits": send_bits,
        "send_values": send_values,
        "recv_vertices": recv_vertices,
        "recv_messages": recv_messages,
        "recv_bits": recv_bits,
    }


class ChargeLog:
    """Ordered radio-charge recorder, flushed as one ledger batch.

    Presents the ledger's ``charge_send``/``charge_recv`` signature so the
    fault hooks write through it unchanged; the per-charge joules are
    computed immediately with the scalar ledger's own arithmetic, only the
    array updates are deferred.  ``flush()`` must run before anything reads
    the ledger — the engine flushes at the end of every primitive.
    """

    __slots__ = (
        "_ledger",
        "_model",
        "_radio_range",
        "_send_cpb",
        "_recv_cpb",
        "_vertices",
        "_joules",
        "_is_send",
        "_messages",
        "_bits",
        "_values",
    )

    def __init__(self, ledger: "EnergyLedger") -> None:
        self._ledger = ledger
        self._model = ledger.model
        self._radio_range = ledger.radio_range
        #: Send J/bit, one constant unless ``per_link_distance`` makes it
        #: depend on the link (``None``: computed per charge).
        self._send_cpb = (
            None
            if self._model.per_link_distance
            else self._model.send_cost_per_bit(self._radio_range)
        )
        self._recv_cpb = ledger.model.recv_cost
        self._vertices: list[int] = []
        self._joules: list[float] = []
        self._is_send: list[bool] = []
        self._messages: list[int] = []
        self._bits: list[int] = []
        self._values: list[int] = []

    def __len__(self) -> int:
        return len(self._vertices)

    def charge_send(
        self,
        sender: int,
        cost: "MessageCost",
        values: int = 0,
        link_distance: float = 0.0,
    ) -> None:
        """Record one transmission (same contract as the ledger's)."""
        cpb = self._send_cpb
        if cpb is None:
            cpb = self._model.send_cost_per_bit(
                self._radio_range, link_distance
            )
        self._vertices.append(sender)
        self._joules.append(cost.total_bits * cpb)
        self._is_send.append(True)
        self._messages.append(cost.messages)
        self._bits.append(cost.total_bits)
        self._values.append(values)

    def charge_recv(self, receiver: int, cost: "MessageCost") -> None:
        """Record one reception (same contract as the ledger's)."""
        self._vertices.append(receiver)
        self._joules.append(cost.total_bits * self._recv_cpb)
        self._is_send.append(False)
        self._messages.append(cost.messages)
        self._bits.append(cost.total_bits)
        self._values.append(0)

    def charge_send_each(
        self,
        senders: Sequence[int],
        cost: "MessageCost",
        link_distances: Sequence[float],
    ) -> None:
        """Record one ``cost`` transmission per sender, in order, each over
        its own link: :meth:`charge_send` in a loop, at list speed."""
        count = len(senders)
        cpb = self._send_cpb
        if cpb is None:
            send_cpb, radio_range = self._model.send_cost_per_bit, self._radio_range
            joules = [
                cost.total_bits * send_cpb(radio_range, distance)
                for distance in link_distances
            ]
        else:
            joules = [cost.total_bits * cpb] * count
        self._vertices.extend(senders)
        self._joules.extend(joules)
        self._is_send.extend([True] * count)
        self._messages.extend([cost.messages] * count)
        self._bits.extend([cost.total_bits] * count)
        self._values.extend([0] * count)

    def charge_recv_each(
        self, receivers: Sequence[int], cost: "MessageCost"
    ) -> None:
        """Record one ``cost`` reception per receiver, in order:
        :meth:`charge_recv` in a loop, at list speed."""
        count = len(receivers)
        self._vertices.extend(receivers)
        self._joules.extend([cost.total_bits * self._recv_cpb] * count)
        self._is_send.extend([False] * count)
        self._messages.extend([cost.messages] * count)
        self._bits.extend([cost.total_bits] * count)
        self._values.extend([0] * count)

    def flush(self) -> None:
        """Apply every recorded charge to the ledger in recorded order."""
        if not self._vertices:
            return
        vertices = np.array(self._vertices, dtype=np.int64)
        joules = np.array(self._joules, dtype=np.float64)
        is_send = np.array(self._is_send, dtype=bool)
        messages = np.array(self._messages, dtype=np.int64)
        bits = np.array(self._bits, dtype=np.int64)
        values = np.array(self._values, dtype=np.int64)
        send = is_send
        recv = ~is_send
        self._ledger.charge_batch(
            energy_vertices=vertices,
            energy_joules=joules,
            send_vertices=vertices[send],
            send_messages=messages[send],
            send_bits=bits[send],
            send_values=values[send],
            recv_vertices=vertices[recv],
            recv_messages=messages[recv],
            recv_bits=bits[recv],
        )
        self._vertices.clear()
        self._joules.clear()
        self._is_send.clear()
        self._messages.clear()
        self._bits.clear()
        self._values.clear()

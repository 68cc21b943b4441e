"""Struct-of-arrays building blocks for the vectorized simulation core.

Walking one Python object per vertex and charging the energy ledger one
scalar numpy update at a time is fine at 30 nodes, ruinous at 30k.  This
module holds the pieces that turn a round of :mod:`repro.sim.engine` into
a handful of segmented array operations:

* :class:`ChargeLog` — an ordered recorder with the
  ``charge_send``/``charge_recv`` signature of
  :class:`~repro.radio.ledger.EnergyLedger`.  Joules are computed with
  exactly the scalar ledger's float arithmetic; ``flush()`` replays the
  whole sequence through one
  :meth:`~repro.radio.ledger.EnergyLedger.charge_batch` call.  Because
  ``np.add.at`` accumulates repeated indices in array order, the per-vertex
  addition sequence — and therefore every float in the ledger — matches the
  scalar call sequence bit for bit.

* :func:`fold_columns` — the columnar convergecast fold.  A
  :class:`~repro.sim.engine.PayloadBatch` (the contract lives next to the
  base :class:`~repro.sim.engine.Payload` in the engine module, so this
  module stays free of engine imports) hands it contributor ids and
  integer add-fold columns; every hop's column sums come out as two
  prefix-sum differences over the tree's preorder, with no per-hop
  payload objects and no per-level scatter.  It reads the arrays the
  :class:`~repro.network.tree.RoutingTree` derived when it was built
  (preorder, subtree sizes, bottom-up order) and builds no tree view.

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


def preorder_rank(tree: "RoutingTree", ids: np.ndarray) -> np.ndarray:
    """``rank[p]``: how many of the unique vertices ``ids`` sit at preorder
    positions before ``p`` (``n + 1`` entries).

    The sort is a scatter: preorder positions are unique, so marking them
    and taking a running count gives every vertex its rank, and a subtree
    ``[start, start + size)`` holds ``rank[start + size] - rank[start]``
    of them.
    """
    rank = np.zeros(tree.num_vertices + 1, dtype=np.int64)
    rank[tree.preorder[ids] + 1] = 1
    np.cumsum(rank, out=rank)
    return rank


def held_vertices(
    tree: "RoutingTree", rank: np.ndarray, exclude: np.ndarray | None = None
) -> np.ndarray:
    """The bottom-up vertices (root excluded) whose subtree holds a ranked
    vertex (:func:`preorder_rank`), minus the ``exclude`` mask."""
    start = tree.preorder
    held = rank[start + tree.size_array] > rank[start]
    if exclude is not None:
        held &= ~exclude
    order = tree.bottom_up
    return order[held[order]]


def fold_columns(
    tree: "RoutingTree",
    ids: np.ndarray,
    cols: np.ndarray,
    holders: np.ndarray | None = None,
    top: np.ndarray | None = None,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column sums of the contributions each holder forwards.

    ``ids`` are unique contributor vertices and ``cols`` their add-fold
    rows (``len(ids) x c`` int64).  A vertex holds a contribution from
    its own subtree unless the contribution stopped below it: ``top[i]``
    is the highest vertex contribution ``i`` reached (``None``: every one
    reached the root).  So the holder ``v`` sums its preorder range minus
    the contributions whose ``top`` lies strictly inside its subtree —
    two prefix sums over contributors sorted by preorder position
    (:func:`preorder_rank`).  Any preorder would do: the sums add integers
    over contiguous subtree ranges.

    ``holders`` defaults to :func:`held_vertices` minus the ``exclude``
    mask.  Returns ``(holders, sums, root_sums)``: one row of ``sums`` per
    holder, and the column sums of the contributions whose ``top`` is the
    root.  Temporaries stay at contributors x columns plus a few
    per-vertex vectors.
    """
    start = tree.preorder
    n = tree.num_vertices
    m, c = cols.shape
    rank = preorder_rank(tree, ids)
    if holders is None:
        holders = held_vertices(tree, rank, exclude)
    prefix = np.zeros((m + 1, c), dtype=np.int64)
    prefix[rank[start[ids]] + 1] = cols
    np.cumsum(prefix, axis=0, out=prefix)
    lo = start[holders]
    hi = lo + tree.size_array[holders]
    sums = prefix[rank[hi]]
    sums -= prefix[rank[lo]]
    root_sums = prefix[m]
    if top is not None:
        stuck = top != tree.root
        if stuck.any():
            # Same scatter-rank trick over the stuck contributions' tops;
            # several may share a top, so their rows add up in one scatter.
            keys = start[top[stuck]]
            key_rank = np.zeros(n + 1, dtype=np.int64)
            key_rank[keys + 1] = 1
            np.cumsum(key_rank, out=key_rank)
            inner = np.zeros((int(key_rank[-1]) + 1, c), dtype=np.int64)
            np.add.at(inner, key_rank[keys] + 1, cols[stuck])
            np.cumsum(inner, axis=0, out=inner)
            sums -= inner[key_rank[hi]]
            sums += inner[key_rank[lo + 1]]
            root_sums = root_sums - inner[-1]
    return holders, sums, root_sums


def expand_arq_charges(
    att_child: np.ndarray,
    att_parent: np.ndarray,
    att_bits: np.ndarray,
    att_frames: np.ndarray,
    att_values: np.ndarray,
    att_parent_up: np.ndarray | None,
    att_frame_ok: np.ndarray | None,
    arq_enabled: bool,
    send_cpb: float,
    recv_cpb: float,
    ack_bits: int,
) -> dict:
    """Expand per-attempt ARQ outcomes into one ordered charge batch.

    Input arrays are flat per *data-frame attempt*, ordered by hop then
    attempt — the exact order the scalar faulty walk issues charges in.
    Each attempt expands to up to four energy events, in the sequence a
    one-attempt-at-a-time stop-and-wait hop charges them (the per-hop
    reference walk in ``tests/reference_engine.py``):

    1. child data send — always;
    2. parent data receive — iff the parent is up;
    3. parent ACK send — iff ARQ is enabled and the frame survived;
    4. child ACK-window receive — iff ARQ is enabled (a real ACK receive
       or the vain listen after a lost frame, same cost either way).

    Joules are per-event products of integer bit counts with the same
    J/bit factors the scalar ledger uses, so a ledger fed the returned
    ``charge_batch`` kwargs accumulates every per-vertex float in scalar
    order, bit for bit.  The integer traffic counters are
    order-independent and returned pre-split by direction.

    ``att_parent_up=None`` is the reliable network's case: one delivered
    attempt per hop, every parent up and ARQ off, so each hop is one send
    followed by one receive.
    """
    if att_parent_up is None:
        # One delivered attempt per hop, no ARQ: send, receive, send, ...
        m = att_child.shape[0]
        energy_vertices = np.empty(2 * m, dtype=np.int64)
        energy_vertices[0::2] = att_child
        energy_vertices[1::2] = att_parent
        energy_joules = np.empty(2 * m, dtype=np.float64)
        np.multiply(att_bits, send_cpb, out=energy_joules[0::2])
        np.multiply(att_bits, recv_cpb, out=energy_joules[1::2])
        return {
            "energy_vertices": energy_vertices,
            "energy_joules": energy_joules,
            "send_vertices": att_child,
            "send_messages": att_frames,
            "send_bits": att_bits,
            "send_values": att_values,
            "recv_vertices": att_parent,
            "recv_messages": att_frames,
            "recv_bits": att_bits,
        }
    n = att_child.shape[0]
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
        slot += up_i
        ack_send_slots = slot[ok]
        energy_vertices[ack_send_slots] = att_parent[ok]
        energy_joules[ack_send_slots] = ack_bits * send_cpb
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

    Presents the ledger's ``charge_send``/``charge_recv`` signature so
    scalar-style charging code (tree repair, fail-over beacons) writes
    through it unchanged, plus ``*_each`` forms that charge one message
    cost to a run of vertices, in order, given as a sequence or an array,
    and :meth:`charge_each`, whose run mixes transmissions and receptions.
    Each call is kept as one chunk (the vertex sequence itself, so it must
    not change before the flush); ``flush()`` computes every charge's
    joules with the scalar ledger's own arithmetic (bits times the per-bit
    price) and must run before anything reads the ledger.
    """

    __slots__ = (
        "_ledger",
        "_send_cpb",
        "_recv_cpb",
        "_vertices",
        "_sends",
        "_messages",
        "_bits",
        "_values",
        "_count",
    )

    def __init__(self, ledger: "EnergyLedger") -> None:
        self._ledger = ledger
        self._send_cpb = ledger.model.send_cost_per_bit(ledger.radio_range)
        self._recv_cpb = ledger.model.recv_cost
        # One entry per chunk: its vertices, which of them send (one flag
        # for the chunk, or one per vertex), per-charge message count,
        # bits and values.
        self._vertices: list = []
        self._sends: list = []
        self._messages: list[int] = []
        self._bits: list[int] = []
        self._values: list[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _chunk(self, vertices, sends, cost, values: int) -> None:
        self._vertices.append(vertices)
        self._sends.append(sends)
        self._messages.append(cost.messages)
        self._bits.append(cost.total_bits)
        self._values.append(values)
        self._count += len(vertices)

    def charge_send(self, sender: int, cost: "MessageCost", values: int = 0) -> None:
        """Record one transmission (same contract as the ledger's)."""
        self._chunk((sender,), True, cost, values)

    def charge_recv(self, receiver: int, cost: "MessageCost") -> None:
        """Record one reception (same contract as the ledger's)."""
        self._chunk((receiver,), False, cost, 0)

    def charge_send_each(
        self, senders: "Sequence[int] | np.ndarray", cost: "MessageCost"
    ) -> None:
        """Record one ``cost`` transmission per sender, in order:
        :meth:`charge_send` in a loop."""
        self._chunk(senders, True, cost, 0)

    def charge_recv_each(
        self, receivers: "Sequence[int] | np.ndarray", cost: "MessageCost"
    ) -> None:
        """Record one ``cost`` reception per receiver, in order:
        :meth:`charge_recv` in a loop."""
        self._chunk(receivers, False, cost, 0)

    def charge_each(
        self,
        vertices: "Sequence[int] | np.ndarray",
        sends: "Sequence[bool] | np.ndarray",
        cost: "MessageCost",
    ) -> None:
        """Record one ``cost`` frame per vertex, in order: a transmission
        where ``sends`` is true, a reception elsewhere."""
        self._chunk(vertices, sends, cost, 0)

    def flush(self) -> None:
        """Apply every recorded charge to the ledger in recorded order."""
        if not self._count:
            return
        sizes = [len(chunk) for chunk in self._vertices]
        vertices = np.concatenate(self._vertices).astype(np.int64, copy=False)
        is_send = np.repeat(np.array([sends is True for sends in self._sends]), sizes)
        # Per chunk: how many of its charges are transmissions.
        sent = []
        start = 0
        for sends, size in zip(self._sends, sizes):
            if isinstance(sends, bool):
                sent.append(size if sends else 0)
            else:
                run = is_send[start : start + size]
                run[:] = sends
                sent.append(int(np.count_nonzero(run)))
            start += size
        sent = np.array(sent, dtype=np.int64)
        heard = np.array(sizes, dtype=np.int64) - sent
        bits = np.array(self._bits, dtype=np.int64)
        messages = np.array(self._messages, dtype=np.int64)
        self._ledger.charge_batch(
            energy_vertices=vertices,
            energy_joules=np.repeat(bits, sizes)
            * np.where(is_send, self._send_cpb, self._recv_cpb),
            send_vertices=vertices[is_send],
            send_messages=np.repeat(messages, sent),
            send_bits=np.repeat(bits, sent),
            send_values=np.repeat(np.array(self._values, dtype=np.int64), sent),
            recv_vertices=vertices[~is_send],
            recv_messages=np.repeat(messages, heard),
            recv_bits=np.repeat(bits, heard),
        )
        for chunks in (
            self._vertices,
            self._sends,
            self._messages,
            self._bits,
            self._values,
        ):
            chunks.clear()
        self._count = 0

"""Communication primitives over the routing tree.

Two primitives cover everything the paper's algorithms do:

* **convergecast** — leaf-to-root aggregation.  Every sensor node may
  contribute a payload; payloads are merged bottom-up (TAG-style in-network
  aggregation), and a vertex transmits to its parent iff its merged payload
  is non-empty.  Merging is algorithm-specific (summing counters, unioning
  multisets, adding histograms, pruning to the f largest values, ...), so
  payloads implement the small :class:`Payload` interface.

* **broadcast** — root-to-leaves flooding.  Every internal vertex
  retransmits the payload once; every non-root vertex receives it once.
  The paper's refinement requests and filter broadcasts must reach all
  nodes (any node might hold a relevant value), so broadcasts always flood
  the full tree.

Energy and traffic are charged to the :class:`~repro.radio.EnergyLedger`
exactly as described in Section 5.1.4: the sender pays
``s * (alpha + beta * rho^p)``, every scheduled receiver pays ``s * alpha_r``.

Both primitives run on the struct-of-arrays core built on
:mod:`repro.sim.vectorized`: one convergecast or broadcast is a handful of
segmented array operations over per-vertex arrays, and the energy ledger is
charged in one ordered batch.  Contributions arrive in one of two forms:

* a :class:`PayloadBatch` — integer columns whose merge is addition (the
  paper's validation counters, histograms and bucket deltas, and one-value
  q-digests while no hop can compress).  The merge itself becomes prefix
  sums over the tree's preorder
  (:func:`~repro.sim.vectorized.fold_columns`), so no payload object is
  built per hop;
* a ``{vertex: payload}`` mapping of :class:`Payload` objects, merged per
  hop with ``merged_with`` (value sets, compressing sketches, anything
  else).

Both networks run one fold over both forms (:meth:`TreeNetwork._fold`);
:class:`~repro.faults.network.FaultyTreeNetwork` differs only in the hop
decisions it hands the fold (loss, ARQ, dead and down vertices).  Faults
enter through :meth:`TreeNetwork._down_mask` and a
:class:`~repro.faults.plan.FaultPlan`; the per-hop walk these paths
replaced lives on in ``tests/reference_engine.py`` as the oracle they must
match bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, TypeVar

import numpy as np

from repro.constants import HEADER_BITS, MAX_PAYLOAD_BITS
from repro.errors import ProtocolError
from repro.network.tree import RoutingTree
from repro.radio.ledger import EnergyLedger
from repro.radio.message import ack_cost, message_bits
from repro.sim.vectorized import (
    expand_arq_charges,
    fold_columns,
    held_vertices,
    preorder_rank,
)

P = TypeVar("P", bound="Payload")


@dataclass(frozen=True, slots=True, eq=False, init=False)
class CollectionRecord:
    """Root-observable outcome of one convergecast.

    ``expected`` counts the non-empty contributions that entered the tree;
    ``delivered_ids`` holds the distinct contributors whose payload is
    represented in the merged root payload, as one read-only ``int64``
    array in no particular order.  On a reliable network the two always
    coincide; under fault injection (``repro.faults``) the gap is what the
    root-side watchdog watches.

    The constructor takes the delivered ids as a set or any iterable
    (duplicates count once) or as an integer array of distinct ids; the
    record keeps its own copy, so writing into the array later leaves the
    record unchanged.  Records compare and hash by ``expected`` and the id
    set.
    """

    expected: int
    delivered_ids: np.ndarray

    def __init__(
        self, expected: int, delivered: "Iterable[int] | np.ndarray" = ()
    ) -> None:
        if isinstance(delivered, np.ndarray):
            ids = delivered.astype(np.int64)
        else:
            ids = np.unique(np.fromiter(delivered, dtype=np.int64))
        ids.flags.writeable = False
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "delivered_ids", ids)

    @property
    def delivered(self) -> frozenset[int]:
        """The delivered contributors as a set, built on each call."""
        return frozenset(self.delivered_ids.tolist())

    @property
    def coverage(self) -> float:
        """Delivered fraction of the expected contributions (1.0 if none)."""
        if self.expected == 0:
            return 1.0
        return len(self.delivered_ids) / self.expected

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CollectionRecord):
            return NotImplemented
        return self.expected == other.expected and np.array_equal(
            np.sort(self.delivered_ids), np.sort(other.delivered_ids)
        )

    def __hash__(self) -> int:
        return hash((self.expected, np.sort(self.delivered_ids).tobytes()))


#: The record of a convergecast nobody contributed to; records never
#: change, so every silent convergecast logs this one.
_SILENT = CollectionRecord(0)


class Payload(ABC):
    """Application payload that knows how to merge and size itself.

    Implementations must be *pure*: ``merged_with`` returns a new payload and
    never mutates either operand, because the engine may merge in any order
    along the tree.
    """

    @abstractmethod
    def merged_with(self: P, other: P) -> P:
        """Combine two payloads travelling through the same vertex."""

    @abstractmethod
    def payload_bits(self) -> int:
        """Serialized payload size in bits (headers are added by the MAC)."""

    def num_values(self) -> int:
        """Raw measurements carried, for the transmitted-values statistic."""
        return 0

    def is_empty(self) -> bool:
        """Empty payloads are not transmitted (the vertex stays silent)."""
        return False


class PayloadBatch(ABC):
    """One convergecast's contributions as integer columns.

    A batch stands for a ``{vertex: payload}`` mapping whose payloads merge
    by integer addition.  ``ids`` holds the contributing vertices (unique,
    ``int64``) and :meth:`columns` one row of add-fold columns per
    contributor.  Every per-hop quantity the ledger needs — payload size
    and values statistic — must be a function of the hop's column sums
    (:meth:`hop_sizes`), so the convergecast folds the batch with prefix
    sums over the tree and builds no payload object per hop.  Whatever
    does not add (hint extremes, sorted value lists) is read only at the
    root (:meth:`root_payload`), as one reduction over the contributors
    that reached it.

    A batch lists only contributions the object walk would not skip as
    ``is_empty()``, so ``len(batch)`` equals the length of the mapping it
    replaces.  :meth:`payloads` expands it into exactly that mapping; the
    per-hop reference walk folds the expansion with ``merged_with``, and
    the two must agree bit for bit: ledger, logs and root payload (``==``).
    """

    __slots__ = ("ids",)

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @abstractmethod
    def columns(self) -> np.ndarray:
        """``len(self) x c`` int64 add-fold columns, row ``i`` for ``ids[i]``."""

    @abstractmethod
    def hop_sizes(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Payload bits and values statistic (two int64 vectors) of hops
        whose merged payloads have the column sums ``sums`` (``h x c``)."""

    @abstractmethod
    def root_payload(self, sums: np.ndarray, reached: np.ndarray | None) -> Payload:
        """The merged payload of the contributors that reached the root.

        ``sums`` are their column sums; ``reached`` masks them among the
        batch's rows (``None``: all of them).
        """

    @abstractmethod
    def payloads(self) -> dict[int, Payload]:
        """The ``{vertex: payload}`` mapping this batch stands for."""


def frame_costs(payload_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`~repro.radio.message.message_bits`: frames and
    on-air bits (headers included) per payload size."""
    frames = np.where(payload_bits > 0, -(-payload_bits // MAX_PAYLOAD_BITS), 1)
    return frames, frames * HEADER_BITS + payload_bits


@dataclass(frozen=True)
class _Hops:
    """One convergecast's hop decisions, as a hop decider returns them.

    ``None`` in a field means the reliable case: the fold finds the
    senders itself, every hop is one delivered attempt with ARQ off,
    nobody is down, every uplink delivers and every contribution reaches
    the root (:data:`_RELIABLE`).
    """

    #: Transmitting vertices, in hop (bottom-up) order.
    senders: np.ndarray | None
    #: Data-frame attempts per hop.
    attempts: np.ndarray | None
    #: Per attempt: the data frame got through.
    frame_ok: np.ndarray | None
    #: Per hop: the receiving parent was up.
    parent_up: np.ndarray | None
    #: Stop-and-wait ARQ is on: every delivered frame is acknowledged and
    #: every attempt listens through an ACK window.
    arq: bool
    #: Per vertex: dead or in an outage.
    down: list[bool] | None
    #: Per vertex: its uplink delivered (a virtual vertex's does unless
    #: its host is down).
    delivered_up: list[bool] | None
    #: Per vertex: the highest vertex a payload held there gets to.
    reach: np.ndarray | None


_RELIABLE = _Hops(
    senders=None,
    attempts=None,
    frame_ok=None,
    parent_up=None,
    arq=False,
    down=None,
    delivered_up=None,
    reach=None,
)


def _reliable_hops(ids: np.ndarray) -> _Hops:
    """The reliable network's hop decider: every hop delivers."""
    return _RELIABLE


class TreeNetwork:
    """Binds a routing tree to an energy ledger and runs the primitives.

    ``virtual_vertices`` marks *artificial child nodes* (Section 2: a node
    producing multiple values is modelled as a node with artificial
    children, one per extra value).  They participate in the protocols like
    any sensor node but their link to the hosting vertex is device-internal:
    no radio energy or message accounting is charged on it.  Virtual
    vertices must be leaves.

    Faults enter through :meth:`_down_mask` and, in
    :class:`~repro.faults.network.FaultyTreeNetwork`, a
    :class:`~repro.faults.plan.FaultPlan`.  No convergecast or broadcast
    calls the scalar :meth:`_vertex_down` or :meth:`_hop_delivered`, so a
    subclass that overrides either one is refused when it is defined
    rather than silently ignored.
    """

    #: Always true: the array convergecast is the only one.  Kept as a
    #: class attribute for perfbench's
    #: ``test_tracer_keeps_hook_identities_and_restores_everything``.
    _vector_convergecast = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for hook in ("_vertex_down", "_hop_delivered"):
            if hook in vars(cls):
                raise TypeError(
                    f"{cls.__qualname__} overrides TreeNetwork.{hook}, which "
                    "no convergecast or broadcast calls; inject faults "
                    "through _down_mask and a FaultPlan instead"
                )

    def __init__(
        self,
        tree: RoutingTree,
        ledger: EnergyLedger,
        virtual_vertices: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        if tree.num_vertices != ledger.num_vertices:
            raise ProtocolError(
                f"tree has {tree.num_vertices} vertices but ledger has "
                f"{ledger.num_vertices}"
            )
        if tree.root != ledger.root:
            raise ProtocolError(
                f"tree root {tree.root} differs from ledger root {ledger.root}"
            )
        virtual = frozenset(virtual_vertices)
        for vertex in virtual:
            if not 0 <= vertex < tree.num_vertices or vertex == tree.root:
                raise ProtocolError(f"invalid virtual vertex {vertex}")
            if not tree.is_leaf(vertex):
                raise ProtocolError(
                    f"virtual vertex {vertex} must be a leaf of the tree"
                )
        self.tree = tree
        self.ledger = ledger
        self.virtual_vertices = virtual
        #: Completed tree traversals (convergecasts + broadcasts).  Each
        #: traversal costs one tree depth of TDMA slots, so the runner
        #: derives per-round latency from the delta of this counter — the
        #: time-complexity dimension studied by [15].
        self.exchanges = 0
        #: Protocol phase the algorithms annotate before each primitive
        #: ("initialization", "validation", "refinement", "filter", ...);
        #: on-air bits are attributed to it in :attr:`phase_bits`.
        self.phase = "other"
        self.phase_bits: dict[str, int] = {}
        #: One :class:`CollectionRecord` per convergecast, in order.  The
        #: fault experiments feed these to the root-side watchdog; long
        #: reliable runs may :meth:`list.clear` it between rounds.
        self.collection_log: list[CollectionRecord] = []
        #: Transmit cost [J/bit]: every send is charged at the radio range.
        self._send_cpb = ledger.model.send_cost_per_bit(ledger.radio_range)
        self._virtual_mask: np.ndarray | None = None
        if virtual:
            mask = np.zeros(tree.num_vertices, dtype=bool)
            mask[list(virtual)] = True
            self._virtual_mask = mask

    @property
    def num_sensor_nodes(self) -> int:
        """Number of measuring nodes ``|N|``."""
        return self.tree.num_sensor_nodes

    def retarget(self, tree: RoutingTree, *, allow_reroot: bool = False) -> None:
        """Swap in a repaired routing tree over the same vertex set.

        Tree repair (``repro.faults.repair``) re-attaches orphaned subtrees
        to new parents; the ledger, phase accounting and collection log all
        carry over because the vertices themselves are unchanged.

        ``allow_reroot`` additionally permits the root to move (root
        fail-over: a successor takes over the sink role).  The ledger is
        re-rooted in lockstep so the new sink leaves the battery-derived
        metrics; moving the root remains an error for ordinary repair.
        """
        if tree.num_vertices != self.tree.num_vertices:
            raise ProtocolError(
                f"retarget changed the vertex count: {self.tree.num_vertices} "
                f"-> {tree.num_vertices}"
            )
        if tree.root != self.tree.root:
            if not allow_reroot:
                raise ProtocolError(
                    f"retarget moved the root: {self.tree.root} -> {tree.root}"
                )
            self.ledger.reroot(tree.root)
        if tree.relays != self.tree.relays:
            raise ProtocolError("retarget changed the relay set")
        self.tree = tree

    # -- fault seam -----------------------------------------------------------
    #
    # The base class is a perfectly reliable network.  Faults enter through
    # :meth:`_down_mask`, which the broadcast and the faulty convergecast
    # read, and through ``FaultyTreeNetwork``'s plan.  The two scalar
    # definitions below are the one-vertex and one-hop forms of the
    # reliable network; only the per-hop reference walk in
    # ``tests/reference_engine.py`` calls them, and subclasses may not
    # override them (see ``__init_subclass__``).

    def _vertex_down(self, vertex: int) -> bool:
        """True when ``vertex`` is dead or in an outage: never, here."""
        return False

    def _down_mask(self) -> np.ndarray | None:
        """Per-vertex boolean down mask (``None`` = all up)."""
        return None

    def _cut_off(self) -> np.ndarray | None:
        """Mask of the vertices a down vertex cuts off from the root,
        :meth:`~repro.network.tree.RoutingTree.below` of the down mask
        (``None`` = all up)."""
        down = self._down_mask()
        return None if down is None else self.tree.below(down)

    def _hop_delivered(self, vertex: int, parent: int, payload: "Payload") -> tuple[bool, int]:
        """Transmit one merged payload over the ``vertex -> parent`` link.

        Charges one send and one receive to the ledger and returns
        ``(delivered, bits_on_air)``: a reliable hop always delivers.
        """
        cost = message_bits(payload.payload_bits())
        self.ledger.charge_send(vertex, cost, values=payload.num_values())
        self.ledger.charge_recv(parent, cost)
        return True, cost.total_bits

    def convergecast(
        self, contributions: "Mapping[int, P] | PayloadBatch"
    ) -> Optional[P]:
        """Aggregate payloads leaf-to-root; return the merged root payload.

        Args:
            contributions: per-vertex local payloads, as a mapping or as a
                :class:`PayloadBatch`.  Vertices absent from it (and, in a
                mapping, vertices whose merged payload reports
                ``is_empty()``) stay silent unless they must forward a
                child's data.  A contribution keyed by the root itself is
                merged into the result without radio cost.

        Returns:
            The payload as seen by the root, or ``None`` if nobody sent
            anything.
        """
        return self._fold(contributions, _reliable_hops)

    # -- the fold -------------------------------------------------------------
    #
    # Loss and ARQ decide which hops happen and how often a frame is sent,
    # never how big a hop's payload is.  So a convergecast is one fold over
    # a hop decider: the decider returns the round's :class:`_Hops` record
    # (here the constant reliable one; ``FaultyTreeNetwork`` passes its
    # ``_walk_hops``), and the fold merges the payloads along the delivered
    # uplinks, prices every hop by its merged payload and charges them all
    # in one ordered batch.

    def _fold(
        self,
        contributions: "Mapping[int, P] | PayloadBatch",
        decide: Callable[[np.ndarray], _Hops],
    ) -> Optional[P]:
        """Fold one convergecast's contributions over ``decide``'s hops.

        A :class:`PayloadBatch` folds as prefix sums
        (:func:`~repro.sim.vectorized.fold_columns`); a mapping merges its
        payload objects with ``merged_with`` along the delivered uplinks,
        in bottom-up order, each sender's merged payload pricing its hop.
        """
        self.exchanges += 1
        if isinstance(contributions, PayloadBatch):
            ids = contributions.ids
            if not len(ids):
                return self._log_silent()
            hops = decide(ids)
            senders, sums, root_sums = fold_columns(
                self.tree,
                ids,
                contributions.columns(),
                holders=hops.senders,
                top=None if hops.reach is None else hops.reach[ids],
                exclude=self._virtual_mask,
            )
            self._charge_hops(hops, senders, *contributions.hop_sizes(sums))
            reached = self._log_delivered(hops, ids)
            if reached is not None and not reached.any():
                return None
            return contributions.root_payload(root_sums, reached)

        accumulated: list[Optional[P]] = [None] * self.tree.num_vertices
        contributors: list[int] = []
        for vertex, payload in contributions.items():
            if payload.is_empty():
                continue
            contributors.append(vertex)
            accumulated[vertex] = payload
        if not contributors:
            return self._log_silent()
        ids = np.array(contributors, dtype=np.int64)
        hops = decide(ids)
        if hops.down is not None:
            down = hops.down
            for vertex in contributors:
                if down[vertex]:
                    accumulated[vertex] = None
        tree = self.tree
        delivered_up = hops.delivered_up
        # Only the vertices whose subtree holds a contribution can hold one.
        visit = held_vertices(tree, preorder_rank(tree, ids)).tolist()
        parent = tree.parent
        holders: list[int] = []
        bits: list[int] = []
        values: list[int] = []
        hold, size, count = holders.append, bits.append, values.append
        # A down vertex never holds anything: its own payload stays out and
        # every frame to it is lost.
        for vertex in visit:
            merged = accumulated[vertex]
            if merged is None:
                continue
            hold(vertex)
            size(merged.payload_bits())
            count(merged.num_values())
            if delivered_up is None or delivered_up[vertex]:
                par = parent[vertex]
                existing = accumulated[par]
                accumulated[par] = (
                    merged if existing is None else existing.merged_with(merged)
                )
        senders = np.array(holders, dtype=np.int64)
        hop_bits = np.array(bits, dtype=np.int64)
        hop_values = np.array(values, dtype=np.int64)
        if self._virtual_mask is not None:
            # A virtual vertex's link is device-internal: it holds, never sends.
            radio = ~self._virtual_mask[senders]
            senders, hop_bits, hop_values = (
                senders[radio], hop_bits[radio], hop_values[radio]
            )
        self._charge_hops(hops, senders, hop_bits, hop_values)
        self._log_delivered(hops, ids)
        return accumulated[tree.root]

    def _log_silent(self) -> None:
        """Book a convergecast in which nobody contributed."""
        self.phase_bits[self.phase] = self.phase_bits.get(self.phase, 0)
        self.collection_log.append(_SILENT)

    def _log_delivered(self, hops: _Hops, ids: np.ndarray) -> np.ndarray | None:
        """Log which contributions reached an up root.

        Returns that mask over ``ids``, or ``None`` when the hops reach the
        root by construction (every one of them got through).  The record
        keeps its own copy of the delivered ids.
        """
        reached = None
        delivered = ids
        if hops.reach is not None:
            root = self.tree.root
            reached = hops.reach[ids] == root
            if hops.down[root]:
                reached[:] = False  # not even the root's own contribution counts
            if not reached.all():
                delivered = ids[reached]
        self.collection_log.append(CollectionRecord(len(ids), delivered))
        return reached

    def _charge_hops(
        self,
        hops: _Hops,
        senders: np.ndarray,
        payload_bits: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Charge every attempt of one convergecast's hops in one batch.

        ``senders``, ``payload_bits`` and ``values`` are per hop, in hop
        (bottom-up) order, so the batch reproduces the per-hop walk's
        per-vertex float-addition order.  Hops with no attempt record
        (``hops.attempts is None``) are one delivered attempt each.
        """
        phase_total = 0
        if len(senders):
            frames, hop_bits = frame_costs(payload_bits)
            receivers = self.tree.parent_array[senders]
            parent_up = None
            if hops.attempts is not None:
                # The per-attempt records are in the walk's own hop order.
                assert np.array_equal(senders, hops.senders)
                hop_index = np.repeat(np.arange(len(senders)), hops.attempts)
                senders = senders[hop_index]
                receivers = receivers[hop_index]
                hop_bits = hop_bits[hop_index]
                frames = frames[hop_index]
                values = values[hop_index]
                parent_up = hops.parent_up[hop_index]
            ack_bits = 0
            if hops.arq:
                ack_bits = ack_cost().total_bits
                phase_total = ack_bits * int(np.count_nonzero(hops.frame_ok))
            self.ledger.charge_batch(
                **expand_arq_charges(
                    senders,
                    receivers,
                    hop_bits,
                    frames,
                    values,
                    parent_up,
                    hops.frame_ok,
                    hops.arq,
                    self._send_cpb,
                    self.ledger.model.recv_cost,
                    ack_bits,
                )
            )
            phase_total += int(hop_bits.sum())
        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0) + phase_total
        )

    def broadcast(self, payload_bits: int) -> int:
        """Flood ``payload_bits`` of payload from the root to every node.

        Each internal vertex (root included) transmits once; each non-root
        vertex receives once from its parent.  Downstream link loss is
        assumed to be masked by flooding redundancy, but a dead internal
        vertex cannot retransmit, so its whole subtree misses the flood.

        Returns the number of non-root vertices the flood reached (on a
        reliable, churn-free network: all of them).
        """
        if payload_bits < 0:
            raise ProtocolError(f"payload_bits must be >= 0, got {payload_bits}")
        tree = self.tree
        self.exchanges += 1
        cost = message_bits(payload_bits)
        has_children = tree.child_ptr[1:] > tree.child_ptr[:-1]
        cut = self._cut_off()
        if cut is None:
            senders_mask = has_children
            receivers_mask = np.ones(tree.num_vertices, dtype=bool)
        else:
            # The flood reaches every vertex no down vertex cuts off.  A
            # down root cuts off nothing (``RoutingTree.below``): it still
            # floods.
            receivers_mask = ~cut
            senders_mask = receivers_mask & has_children
        reached_count = int(receivers_mask.sum()) - 1
        receivers_mask[tree.root] = False
        if self._virtual_mask is not None:
            receivers_mask = receivers_mask & ~self._virtual_mask
        senders = np.nonzero(senders_mask)[0]
        receivers = np.nonzero(receivers_mask)[0]
        # A vertex receives from its parent before it retransmits, so the
        # receive batch is applied first to preserve the per-hop walk's
        # per-vertex float-addition order.
        energy_vertices = np.concatenate([receivers, senders])
        energy_joules = np.repeat(
            [
                cost.total_bits * self.ledger.model.recv_cost,
                cost.total_bits * self._send_cpb,
            ],
            [len(receivers), len(senders)],
        )
        self.ledger.charge_batch(
            energy_vertices=energy_vertices,
            energy_joules=energy_joules,
            send_vertices=senders,
            send_messages=np.full(len(senders), cost.messages, dtype=np.int64),
            send_bits=np.full(len(senders), cost.total_bits, dtype=np.int64),
            send_values=np.zeros(len(senders), dtype=np.int64),
            recv_vertices=receivers,
            recv_messages=np.full(
                len(receivers), cost.messages, dtype=np.int64
            ),
            recv_bits=np.full(len(receivers), cost.total_bits, dtype=np.int64),
        )
        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0)
            + cost.total_bits * len(senders)
        )
        return reached_count

"""Reference repair walk: the scalar orphan re-attach the batched pass replaced.

:class:`ReferenceTreeRepair` is the straightforward walk
``repro.faults.repair.TreeRepair`` used to run.  Every adoption rescans
all sensors for orphans and re-sorts them by a depth walk; every
neighbour of a probing orphan has its working path to the root walked for
subtree membership, liveness and ETX; every frame is one scalar
``EnergyLedger`` charge, issued in exchange order.  It is slow on purpose:
it is the oracle the equivalence tests in ``tests/test_repair_equivalence.py``
pin the production pass to, record for record and ledger float for
ledger float.

:class:`ReferenceRootFailover` likewise charges the election beacons one
scalar frame at a time.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VALUE_BITS
from repro.faults.failover import FAILOVER_PHASE, RootFailover
from repro.faults.repair import REPAIR_PHASE, RepairRound, RepairStats
from repro.radio.message import MessageCost, ack_cost, message_bits
from repro.network.tree import tree_multi_reparented


class ReferenceTreeRepair:
    """Drop-in for ``TreeRepair`` (same constructor, same public surface)."""

    def __init__(
        self,
        graph,
        net,
        watchdog=None,
        parent_metric: str = "etx",
        heal_patience: int = 1,
    ) -> None:
        self.graph = graph
        self.net = net
        self.watchdog = watchdog
        self.parent_metric = parent_metric
        self.heal_patience = heal_patience
        self.plan = net.plan
        self.stats = RepairStats()
        self.detached: set[int] = set()
        self._parked: dict[int, int] = {}
        self._expired: list[int] = []
        self._waiting: list[int] = []
        self._healed: list[int] = []

    # -- root-reachability ----------------------------------------------------

    def _reachable(self) -> list[bool]:
        tree = self.net.tree
        ok = [False] * tree.num_vertices
        ok[tree.root] = True
        for vertex in tree.top_down_order:
            if vertex == tree.root:
                continue
            ok[vertex] = ok[tree.parent[vertex]] and not self.plan.is_down(vertex)
        return ok

    def reachable_sensors(self) -> tuple[int, ...]:
        ok = self._reachable()
        return tuple(v for v in self.net.tree.sensor_nodes if ok[v])

    # -- the per-round pass ---------------------------------------------------

    def repair_round(self, algorithm, values: np.ndarray) -> RepairRound:
        energy_before = float(self.net.ledger.energy.sum())
        reattached = self._reattach_orphans()
        fallback = self._expired_fallbacks()
        detached, rejoined = self._sync_membership(algorithm, values)
        round_record = RepairRound(
            reattached=tuple(reattached),
            fallback=tuple(fallback),
            detached=tuple(detached),
            rejoined=tuple(rejoined),
            parked=tuple(self._waiting),
            healed=tuple(self._healed),
        )
        if round_record.changed_membership and self.watchdog is not None:
            self.watchdog.retarget(self.net.tree, self.reachable_sensors())
        self.stats.reattach_count += len(reattached)
        self.stats.fallback_count += len(fallback)
        self.stats.detach_count += len(detached)
        self.stats.rejoin_count += len(rejoined)
        self.stats.parked_rounds += len(round_record.parked)
        self.stats.healed_count += len(round_record.healed)
        self.stats.repair_energy_j += (
            float(self.net.ledger.energy.sum()) - energy_before
        )
        self.stats.rounds.append(round_record)
        return round_record

    def resync_after_reinit(self, algorithm) -> None:
        reachable = set(self.reachable_sensors())
        self.detached = set(self.net.tree.sensor_nodes) - reachable
        algorithm.reset_participation(self.net, self.detached)
        if self.watchdog is not None:
            self.watchdog.retarget(self.net.tree, tuple(sorted(reachable)))

    # -- orphan re-attach on working parent/link copies -------------------------

    def _orphans_in(self, parent: list[int]) -> list[int]:
        orphans = [
            v
            for v in self.net.tree.sensor_nodes
            if not self.plan.is_down(v) and self.plan.is_down(parent[v])
        ]
        orphans.sort(key=lambda v: (self._depth_in(parent, v), v))
        return orphans

    def _depth_in(self, parent: list[int], vertex: int) -> int:
        root, depth = self.net.tree.root, 0
        while vertex != root:
            vertex = parent[vertex]
            depth += 1
        return depth

    def _in_subtree(self, parent: list[int], vertex: int, ancestor: int) -> bool:
        root = self.net.tree.root
        while True:
            if vertex == ancestor:
                return True
            if vertex == root:
                return False
            vertex = parent[vertex]

    def _path_up_ok(self, parent: list[int], vertex: int) -> bool:
        root = self.net.tree.root
        while vertex != root:
            if self.plan.is_down(vertex):
                return False
            vertex = parent[vertex]
        return True

    def _subtree_in(self, parent: list[int], vertex: int) -> frozenset[int]:
        root = self.net.tree.root
        children: dict[int, list[int]] = {}
        for v in range(len(parent)):
            if v != root:
                children.setdefault(parent[v], []).append(v)
        out: set[int] = set()
        stack = [vertex]
        while stack:
            v = stack.pop()
            out.add(v)
            stack.extend(children.get(v, ()))
        return frozenset(out)

    def _reattach_orphans(self) -> list[tuple[int, int]]:
        tree = self.net.tree
        parent = list(tree.parent)
        link = list(tree.link_distance)
        moves: list[tuple[int, int, float]] = []
        failed: set[int] = set()
        while True:
            pending = [v for v in self._orphans_in(parent) if v not in failed]
            if not pending:
                break
            orphan = pending[0]
            candidate = self._probe_for_parent(orphan, parent)
            if candidate is None:
                failed.add(orphan)
                continue
            distance = self._distance(orphan, candidate)
            self._charge_adopt_handshake(orphan, candidate, distance)
            if failed:
                reconnected = self._subtree_in(parent, orphan)
                failed = {
                    v
                    for v in failed
                    if not any(
                        n in reconnected for n in self.graph.neighbors(v)
                    )
                }
            parent[orphan] = candidate
            link[orphan] = distance
            moves.append((orphan, candidate, distance))
        if moves:
            self.net.retarget(tree_multi_reparented(tree, moves))
            for _, new_parent, _ in moves:
                self._report_to_root(new_parent)
        self._settle_park_queue(parent, failed)
        return [(orphan, new_parent) for orphan, new_parent, _ in moves]

    def _settle_park_queue(self, parent: list[int], failed: set[int]) -> None:
        previously_waiting = {
            v for v, streak in self._parked.items() if streak < self.heal_patience
        }
        self._healed = sorted(v for v in previously_waiting if v not in failed)
        for vertex in set(self._parked) - failed:
            del self._parked[vertex]
        self._expired, self._waiting = [], []
        for vertex in sorted(failed):
            streak = self._parked.get(vertex, 0) + 1
            self._parked[vertex] = streak
            if streak == self.heal_patience:
                self._expired.append(vertex)
            elif streak < self.heal_patience:
                self._waiting.append(vertex)
        ack = ack_cost()
        for vertex in self._waiting:
            for member in self._subtree_in(parent, vertex):
                if not self.plan.is_down(member):
                    self._charge_recv(member, ack)

    def _expired_fallbacks(self) -> list[int]:
        fresh = self._expired
        self._expired = []
        return fresh

    def _probe_for_parent(self, orphan: int, parent: list[int]) -> int | None:
        root = self.net.tree.root
        ack = ack_cost()
        self.stats.probe_count += 1
        self._charge_send(orphan, ack, self.graph.radio_range)
        stats = self.net.link_stats if self.parent_metric == "etx" else None
        candidates: list[tuple[float, float, int, bool]] = []
        for neighbor in self.graph.neighbors(orphan):
            if neighbor != root and self.plan.is_down(neighbor):
                continue
            self._charge_recv(neighbor, ack)
            if self._in_subtree(parent, neighbor, orphan) or not (
                self._path_up_ok(parent, neighbor)
            ):
                continue
            distance = self._distance(orphan, neighbor)
            self._charge_send(neighbor, ack, distance)
            self._charge_recv(orphan, ack)
            if stats is None:
                etx_cost, observed = 0.0, False
            else:
                etx_cost, observed = self._etx_path_cost(
                    stats, parent, orphan, neighbor
                )
            candidates.append((etx_cost, distance, neighbor, observed))
        if not candidates:
            return None
        if stats is not None and any(observed for *_, observed in candidates):
            best = min(candidates)
        else:
            best = min(candidates, key=lambda c: (c[1], c[2]))
        return best[2]

    def _etx_path_cost(
        self, stats, parent: list[int], orphan: int, candidate: int
    ) -> tuple[float, bool]:
        root = self.net.tree.root
        cost = stats.etx(orphan, candidate)
        observed = stats.link_observed(orphan, candidate)
        vertex = candidate
        while vertex != root:
            up = parent[vertex]
            cost += stats.etx(vertex, up)
            observed = observed or stats.link_observed(vertex, up)
            vertex = up
        return cost, observed

    def _charge_adopt_handshake(
        self, orphan: int, new_parent: int, distance: float
    ) -> None:
        ack = ack_cost()
        self._charge_send(orphan, ack, distance)
        self._charge_recv(new_parent, ack)
        self._charge_send(new_parent, ack, distance)
        self._charge_recv(orphan, ack)

    # -- membership sync ------------------------------------------------------

    def _sync_membership(
        self, algorithm, values: np.ndarray
    ) -> tuple[list[int], list[int]]:
        tree = self.net.tree
        ok = self._reachable()
        reachable = {v for v in tree.sensor_nodes if ok[v]}
        newly_gone = sorted(
            v
            for v in tree.sensor_nodes
            if v not in self.detached and v not in reachable
        )
        newly_back = sorted(v for v in self.detached if v in reachable)

        for vertex in newly_gone:
            reporter = tree.parent[vertex]
            if reporter == tree.root or (reporter >= 0 and ok[reporter]):
                self._report_to_root(reporter)
            self.detached.add(vertex)
            algorithm.detach(self.net, vertex)

        for vertex in newly_back:
            push = message_bits(VALUE_BITS)
            parent = tree.parent[vertex]
            self._charge_send(parent, push, tree.link_distance[vertex])
            self._charge_recv(vertex, push)
            self._report_to_root(vertex)
            self.detached.discard(vertex)
            algorithm.rejoin(self.net, values, vertex)
        return newly_gone, newly_back

    # -- scalar charging ------------------------------------------------------

    def _distance(self, a: int, b: int) -> float:
        pa, pb = self.graph.positions[a], self.graph.positions[b]
        return float(np.hypot(pa[0] - pb[0], pa[1] - pb[1]))

    def _charge_send(self, sender: int, cost: MessageCost, distance: float) -> None:
        self.net.ledger.charge_send(sender, cost, link_distance=distance)
        self.stats.repair_bits += cost.total_bits
        phase_bits = self.net.phase_bits
        phase_bits[REPAIR_PHASE] = phase_bits.get(REPAIR_PHASE, 0) + cost.total_bits

    def _charge_recv(self, receiver: int, cost: MessageCost) -> None:
        self.net.ledger.charge_recv(receiver, cost)

    def _report_to_root(self, start: int) -> None:
        if start == self.net.tree.root:
            return
        tree = self.net.tree
        cost = MessageCost(messages=0, total_bits=VALUE_BITS, payload_bits=VALUE_BITS)
        path = tree.path_to_root(start)
        for child, parent in zip(path, path[1:]):
            self._charge_send(child, cost, tree.link_distance[child])
            self._charge_recv(parent, cost)


class ReferenceRootFailover(RootFailover):
    """Fail-over whose election beacons are scalar ledger charges."""

    def _charge_election(self, candidates: tuple[int, ...]) -> None:
        net = self.net
        beacon = ack_cost()
        total_bits = 0
        for sender in sorted(candidates):
            net.ledger.charge_send(sender, beacon)
            total_bits += beacon.total_bits
            for receiver in candidates:
                if receiver != sender:
                    net.ledger.charge_recv(receiver, beacon)
        phase_bits = net.phase_bits
        phase_bits[FAILOVER_PHASE] = (
            phase_bits.get(FAILOVER_PHASE, 0) + total_bits
        )

"""Pluggable fault plans: what goes wrong, when, on which link.

A :class:`FaultPlan` bundles the three failure modes the evaluation
studies — per-transmission link loss, permanent node death (churn), and
*transient* node outages (a node down for a bounded number of rounds, then
back) — behind the questions the network layer asks:

* "is this vertex dead?" (:meth:`FaultPlan.is_dead`),
* "is this vertex down right now?" (:meth:`FaultPlan.is_down` — dead *or*
  in a transient outage),
* "did this frame get lost?" (:meth:`FaultPlan.transmission_lost`),
* "who died this round?" (:meth:`FaultPlan.begin_round`).

Link loss is modelled per directed link so acknowledgements can be lost
independently of the data frames they confirm.  Two loss processes ship:

* :class:`IndependentLoss` — i.i.d. Bernoulli loss per transmission, the
  classical model (and what ``repro loss`` simulates).
* :class:`GilbertElliottLoss` — the two-state Markov burst-loss model:
  each link flips between a good state (rare loss) and a bad/burst state
  (frequent loss).  Bursts are what interference and fading actually look
  like, and they hit convergecasts much harder than i.i.d. loss of the
  same average rate because a whole subtree goes dark at once.

Churn is modelled as *permanent* node death (battery failure, crush
damage): :class:`RandomChurn` kills each live sensor with a fixed per-round
hazard, :class:`ScheduledChurn` kills listed vertices at listed rounds
(deterministic scenarios for tests and ablations).

Transient outages (reboots, duty-cycle misses, temporary obstructions) are
the churn the repair layer can actually undo: an :class:`OutageModel`
decides which up nodes go down each round and for how long.
:class:`RandomOutages` draws geometric downtimes (memoryless recovery);
:class:`ScheduledOutages` scripts exact ``(vertex, duration)`` outages per
round for deterministic tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.tree import RoutingTree


def _validate_probability(name: str, value: float, upper_inclusive: bool = False) -> None:
    upper_ok = value <= 1.0 if upper_inclusive else value < 1.0
    if not (0.0 <= value and upper_ok):
        bound = "[0, 1]" if upper_inclusive else "[0, 1)"
        raise ConfigurationError(f"{name} must be in {bound}, got {value}")


def _pool(tree: RoutingTree, *excluded) -> np.ndarray:
    """Mask of the sensors of ``tree`` in none of the ``excluded`` vertex
    collections; its nonzero indices are ascending, as ``sensor_nodes``."""
    pool = tree.sensor_mask.copy()
    for vertices in excluded:
        if vertices:
            pool[list(vertices)] = False
    return pool


def _eligible(tree: RoutingTree, pool: np.ndarray, root_ok: bool, vertex) -> bool:
    """Whether a requested ``vertex`` is in ``pool``, or is the root and
    ``root_ok``: scripts may name the current root, random models sample
    the pool only."""
    if vertex == tree.root:
        return root_ok
    return 0 <= vertex < len(pool) and bool(pool[vertex])


class LinkLossModel(ABC):
    """Decides, per transmission attempt, whether a frame is lost.

    The network calls :meth:`lost` once per data or ACK frame, in the
    per-hop walk's order, with the plan's generator; a model may draw from
    it in any way.
    """

    #: Long-run average loss rate, for labelling results.
    nominal_loss: float = 0.0

    @abstractmethod
    def lost(self, sender: int, receiver: int, rng: np.random.Generator) -> bool:
        """Sample one transmission over the directed link ``sender -> receiver``."""


class IndependentLoss(LinkLossModel):
    """I.i.d. Bernoulli loss: every transmission fails with ``probability``."""

    def __init__(self, probability: float) -> None:
        _validate_probability("loss probability", probability)
        self.probability = probability
        self.nominal_loss = probability

    def lost(self, sender: int, receiver: int, rng: np.random.Generator) -> bool:
        return self.probability > 0.0 and rng.random() < self.probability


class GilbertElliottLoss(LinkLossModel):
    """Bursty loss: a per-link two-state (good/bad) Markov chain.

    The chain advances one step per transmission attempt on the link; the
    loss probability of the attempt is the current state's (``loss_good``
    in the good state, ``loss_bad`` in the burst state).  Links start good.

    Args:
        p_enter_burst: per-transmission probability of a good link entering
            a burst.
        p_exit_burst: per-transmission probability of a burst ending
            (mean burst length is ``1 / p_exit_burst`` attempts).
        loss_good: loss probability while good (usually ~0).
        loss_bad: loss probability inside a burst (usually ~1).
    """

    def __init__(
        self,
        p_enter_burst: float,
        p_exit_burst: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        _validate_probability("p_enter_burst", p_enter_burst)
        if not 0.0 < p_exit_burst <= 1.0:
            raise ConfigurationError(
                f"p_exit_burst must be in (0, 1], got {p_exit_burst}"
            )
        _validate_probability("loss_good", loss_good)
        _validate_probability("loss_bad", loss_bad, upper_inclusive=True)
        self.p_enter_burst = p_enter_burst
        self.p_exit_burst = p_exit_burst
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        stationary_bad = (
            p_enter_burst / (p_enter_burst + p_exit_burst)
            if p_enter_burst > 0.0
            else 0.0
        )
        self.nominal_loss = (
            stationary_bad * loss_bad + (1.0 - stationary_bad) * loss_good
        )
        self._burst_state: dict[tuple[int, int], bool] = {}

    @classmethod
    def from_average(
        cls,
        average_loss: float,
        burst_length: float = 8.0,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> "GilbertElliottLoss":
        """A burst model matched to a target long-run average loss rate.

        Useful for apples-to-apples sweeps against :class:`IndependentLoss`:
        same average rate, different temporal structure.
        """
        _validate_probability("average_loss", average_loss)
        if burst_length < 1.0:
            raise ConfigurationError(
                f"burst_length must be >= 1, got {burst_length}"
            )
        if loss_bad <= loss_good:
            raise ConfigurationError("loss_bad must exceed loss_good")
        if average_loss < loss_good:
            raise ConfigurationError(
                "average_loss below loss_good is unreachable"
            )
        # Solve pi_bad * loss_bad + (1 - pi_bad) * loss_good = average_loss
        # for the stationary burst probability, then pick p_enter to realize
        # it at the requested mean burst length.
        pi_bad = (average_loss - loss_good) / (loss_bad - loss_good)
        if pi_bad >= 1.0:
            raise ConfigurationError("average_loss not reachable with loss_bad")
        p_exit = 1.0 / burst_length
        p_enter = p_exit * pi_bad / (1.0 - pi_bad)
        return cls(p_enter, p_exit, loss_good=loss_good, loss_bad=loss_bad)

    def lost(self, sender: int, receiver: int, rng: np.random.Generator) -> bool:
        link = (sender, receiver)
        bad = self._burst_state.get(link, False)
        if bad:
            bad = not (rng.random() < self.p_exit_burst)
        else:
            bad = rng.random() < self.p_enter_burst
        self._burst_state[link] = bad
        probability = self.loss_bad if bad else self.loss_good
        return probability > 0.0 and rng.random() < probability


class ChurnModel(ABC):
    """Decides which live sensors die (permanently) at each round start."""

    @abstractmethod
    def deaths(
        self,
        round_index: int,
        live: Sequence[int],
        rng: np.random.Generator,
    ) -> Iterable[int]:
        """Vertices among ``live`` that die entering ``round_index``."""


class RandomChurn(ChurnModel):
    """Memoryless churn: each live sensor dies with ``rate`` per round.

    ``start_round`` (default 1) leaves the initialization round clean so a
    query can at least be planted before the network starts crumbling.
    """

    def __init__(self, rate: float, start_round: int = 1) -> None:
        _validate_probability("churn rate", rate, upper_inclusive=True)
        if start_round < 0:
            raise ConfigurationError(f"start_round must be >= 0, got {start_round}")
        self.rate = rate
        self.start_round = start_round

    def deaths(
        self,
        round_index: int,
        live: Sequence[int],
        rng: np.random.Generator,
    ) -> Iterable[int]:
        if round_index < self.start_round or self.rate == 0.0 or not live:
            return ()
        drawn = np.flatnonzero(rng.random(len(live)) < self.rate)
        return [live[index] for index in drawn.tolist()]


class ScheduledChurn(ChurnModel):
    """Deterministic churn from an explicit ``{round: vertices}`` script."""

    def __init__(self, schedule: Mapping[int, Iterable[int]]) -> None:
        self.schedule = {
            int(round_index): tuple(vertices)
            for round_index, vertices in schedule.items()
        }

    def deaths(
        self,
        round_index: int,
        live: Sequence[int],
        rng: np.random.Generator,
    ) -> Iterable[int]:
        # Returned verbatim: the plan drops vertices that already died.
        # The current root may be listed — that schedules a root fail-over.
        return self.schedule.get(round_index, ())


class CompositeChurn(ChurnModel):
    """Union of several churn models' death sets, queried in order.

    Lets a deterministic script (e.g. a scheduled root kill) ride on top of
    a random hazard without touching either model: every part sees the same
    ``live`` pool and the shared generator, in construction order, so the
    random parts' draw sequences are unchanged by appending a scheduled
    part (which draws nothing).
    """

    def __init__(self, *parts: ChurnModel | None) -> None:
        self.parts: tuple[ChurnModel, ...] = tuple(
            part for part in parts if part is not None
        )

    def deaths(
        self,
        round_index: int,
        live: Sequence[int],
        rng: np.random.Generator,
    ) -> Iterable[int]:
        out: list[int] = []
        for part in self.parts:
            out.extend(part.deaths(round_index, live, rng))
        return out


class OutageModel(ABC):
    """Decides which up sensors go down *transiently* at each round start."""

    @abstractmethod
    def outages(
        self,
        round_index: int,
        candidates: Sequence[int],
        rng: np.random.Generator,
    ) -> Iterable[tuple[int, int]]:
        """``(vertex, duration)`` outages starting at ``round_index``.

        ``candidates`` are the sensors that are currently up (neither dead
        nor already in an outage).  ``duration`` counts rounds the vertex
        stays down, including this one; it must be >= 1.
        """


class RandomOutages(OutageModel):
    """Memoryless outages: each up sensor goes down with ``rate`` per round.

    Downtimes are geometric with mean ``mean_downtime`` rounds — the
    discrete analogue of exponential repair times.  ``start_round``
    (default 1) keeps the initialization round clean, mirroring
    :class:`RandomChurn`.
    """

    def __init__(
        self,
        rate: float,
        mean_downtime: float = 3.0,
        start_round: int = 1,
    ) -> None:
        _validate_probability("outage rate", rate, upper_inclusive=True)
        if mean_downtime < 1.0:
            raise ConfigurationError(
                f"mean_downtime must be >= 1 round, got {mean_downtime}"
            )
        if start_round < 0:
            raise ConfigurationError(f"start_round must be >= 0, got {start_round}")
        self.rate = rate
        self.mean_downtime = mean_downtime
        self.start_round = start_round

    def outages(
        self,
        round_index: int,
        candidates: Sequence[int],
        rng: np.random.Generator,
    ) -> Iterable[tuple[int, int]]:
        if round_index < self.start_round or self.rate == 0.0 or not candidates:
            return ()
        drawn = np.flatnonzero(rng.random(len(candidates)) < self.rate)
        out: list[tuple[int, int]] = []
        for index in drawn.tolist():
            duration = int(rng.geometric(1.0 / self.mean_downtime))
            out.append((candidates[index], max(1, duration)))
        return out


class ScheduledOutages(OutageModel):
    """Deterministic outages from a ``{round: [(vertex, duration), ...]}`` script."""

    def __init__(
        self, schedule: Mapping[int, Iterable[tuple[int, int]]]
    ) -> None:
        self.schedule = {
            int(round_index): tuple(
                (int(vertex), int(duration)) for vertex, duration in outages
            )
            for round_index, outages in schedule.items()
        }

    def outages(
        self,
        round_index: int,
        candidates: Sequence[int],
        rng: np.random.Generator,
    ) -> Iterable[tuple[int, int]]:
        # Returned verbatim: the plan validates durations and duplicates.
        # The current root may be listed — the driver's grace window and
        # fail-over machinery absorb a down sink.
        return self.schedule.get(round_index, ())


class FaultPlan:
    """One deployment's failure script: loss + churn + outages + randomness.

    A plan with no model (the default) is a perfectly reliable network, so
    :class:`~repro.faults.network.FaultyTreeNetwork` degrades gracefully
    to the plain engine behaviour.

    The network reads the down set as a mask built from :attr:`dead` and
    :attr:`down` (``FaultyTreeNetwork._down_mask``), once per :attr:`stamp`,
    and it draws i.i.d. loss under a static ARQ policy inline, straight
    from :attr:`rng`.  Only :meth:`begin_round` and :meth:`retire` change
    the two sets, and each moves the stamp on.  A
    subclass that overrides :meth:`is_down` or :meth:`transmission_lost`
    is therefore refused when it is defined rather than silently ignored;
    script outages through an :class:`OutageModel` and loss through a
    :class:`LinkLossModel`.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for hook in ("is_down", "transmission_lost"):
            if hook in vars(cls):
                raise TypeError(
                    f"{cls.__qualname__} overrides FaultPlan.{hook}, but the "
                    "network reads the dead and down sets through "
                    "FaultyTreeNetwork._down_mask and draws i.i.d. loss "
                    "inline, so the override would be ignored; script "
                    "outages through an OutageModel and loss through a "
                    "LinkLossModel instead"
                )

    def __init__(
        self,
        loss: LinkLossModel | None = None,
        churn: ChurnModel | None = None,
        outages: OutageModel | None = None,
        rng: np.random.Generator | None = None,
        seed: int = 20140324,
    ) -> None:
        self.loss = loss
        self.churn = churn
        self.outages = outages
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        #: Permanently dead vertices.  Since root fail-over landed this may
        #: include the current (or a retired) sink: a dead root is a
        #: repairable event, not a configuration error — the fault driver
        #: elects a successor and re-roots the tree.
        self.dead: set[int] = set()
        #: Transiently down vertices -> remaining down rounds (this one
        #: included).  Disjoint from :attr:`dead` by construction.
        self.down: dict[int, int] = {}
        #: Vertices whose transient outage began this round.
        self.newly_down: frozenset[int] = frozenset()
        #: Vertices whose transient outage ended entering this round.
        self.newly_recovered: frozenset[int] = frozenset()
        #: Moves on whenever :attr:`dead` or :attr:`down` may have changed,
        #: so a reader can keep what it derives from them per stamp.
        self.stamp = 0

    @property
    def nominal_loss(self) -> float:
        """The loss model's long-run average rate (0.0 without one)."""
        return self.loss.nominal_loss if self.loss is not None else 0.0

    def begin_round(self, tree: RoutingTree, round_index: int) -> frozenset[int]:
        """Advance churn and outages by one round; returns the newly dead.

        Transient bookkeeping lands in :attr:`newly_down` /
        :attr:`newly_recovered`; the return value stays the set of newly
        *permanently* dead vertices (the original contract).
        """
        self.stamp += 1
        recovered = self._tick_outages()
        newly_dead = self._churn_deaths(tree, round_index)
        # A vertex can die the very round its outage would have ended: it
        # never recovers.
        self.newly_recovered = frozenset(v for v in recovered if v not in self.dead)
        self.newly_down = self._begin_outages(tree, round_index)
        return newly_dead

    def _tick_outages(self) -> list[int]:
        recovered: list[int] = []
        for vertex in list(self.down):
            self.down[vertex] -= 1
            if self.down[vertex] <= 0:
                del self.down[vertex]
                recovered.append(vertex)
        return recovered

    def _churn_deaths(self, tree: RoutingTree, round_index: int) -> frozenset[int]:
        if self.churn is None:
            return frozenset()
        # The hazard pool handed to random models stays sensors-only: the
        # *current* sink is mains-powered, so battery churn never samples
        # it (and the pool follows the current tree, so it tracks re-roots
        # without perturbing the RNG draw sequence).  Explicit scripts
        # (ScheduledChurn) may still name the root — root death is a
        # fail-over event now, not a configuration error.
        pool = _pool(tree, self.dead)
        live = np.flatnonzero(pool).tolist()
        requested = self.churn.deaths(round_index, live, self.rng)
        root_ok = tree.root not in self.dead
        newly = frozenset(v for v in requested if _eligible(tree, pool, root_ok, v))
        self.dead |= newly
        # Death supersedes a pending outage: the vertex stays down forever.
        for vertex in newly:
            self.down.pop(vertex, None)
        return newly

    def _begin_outages(self, tree: RoutingTree, round_index: int) -> frozenset[int]:
        if self.outages is None:
            return frozenset()
        # Like churn: random models only ever sample the sensors of the
        # current tree, but scripted outages may take the sink down — the
        # driver rides out its grace window or fails over.
        pool = _pool(tree, self.dead, self.down)
        candidates = np.flatnonzero(pool).tolist()
        requested = self.outages.outages(round_index, candidates, self.rng)
        started: set[int] = set()
        root_ok = tree.root not in self.dead and tree.root not in self.down
        for vertex, duration in requested:
            if duration < 1:
                raise ConfigurationError(
                    f"outage duration must be >= 1 round, got {duration}"
                )
            if not _eligible(tree, pool, root_ok, vertex) or vertex in started:
                continue
            self.down[vertex] = duration
            started.add(vertex)
        return frozenset(started)

    def retire(self, vertex: int) -> None:
        """Mark ``vertex`` permanently dead outside the churn pipeline.

        Root fail-over retires the deposed sink through this: whether it
        died outright or merely outlasted the grace window while down, the
        successor has taken over its state, so the old root never returns
        to the query (any pending outage is superseded).
        """
        self.stamp += 1
        self.dead.add(vertex)
        self.down.pop(vertex, None)

    def is_dead(self, vertex: int) -> bool:
        """True when ``vertex`` has permanently failed."""
        return vertex in self.dead

    def is_down(self, vertex: int) -> bool:
        """True when ``vertex`` is out right now (dead or transient outage)."""
        return vertex in self.dead or vertex in self.down

    def transmission_lost(self, sender: int, receiver: int) -> bool:
        """Sample one transmission attempt on ``sender -> receiver``."""
        return self.loss is not None and self.loss.lost(
            sender, receiver, self.rng
        )

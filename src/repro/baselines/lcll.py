"""LCLL: message-size-driven histogram quantile tracking (Liu et al. [16]).

The paper evaluates LCLL with ``b`` chosen to fill one message (64 two-byte
bucket counts in a 128-byte payload) and two refinement strategies:

* **Hierarchical refining (LCLL-H)** — the root maintains a *zoom path*: a
  chain of bucket grids, starting with 64 buckets over the whole universe
  and recursively subdividing the bucket that contains the current quantile
  until buckets cover single values.  Nodes stay registered to every grid
  level that contains their value and report cheap per-bucket count deltas
  during validation (the improved validation of Section 5.1.6: one ``-1``
  and one ``+1`` entry per changed level).  When the rank-k bucket leaves
  the cached path at some level, the root zooms out (one broadcast) and
  re-descends (one broadcast + one histogram convergecast per level) —
  ``O(log_b)`` in the distance the quantile moved, independent of ``|N|``
  and insensitive to noise that stays within buckets.

* **Slip refining (LCLL-S)** — the root maintains a *focused window* of 64
  unit-width cells around the quantile plus two boundary counters (values
  below/above the window).  Validation reports cell/boundary deltas.  When
  rank k leaves the window, the window *slips* one window-width at a time
  toward it; each slip costs one broadcast plus a histogram convergecast
  answered only by nodes inside the 64-value target window — very selective
  (good at large ``|N|``), but linear in the quantile distance.

The full LCLL internals are sketched rather than specified in the paper;
this implementation reproduces every property Section 5.2 relies on (see
DESIGN.md, "Faithful-simulation substitutions").
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    REFINEMENT_REQUEST_BITS,
    VALUE_BITS,
    VALUES_PER_MESSAGE,
)
from repro.core.base import (
    ContinuousQuantileAlgorithm,
    collect_histogram,
    tag_initialization,
)
from repro.core.histogram import BucketGrid, locate_bucket, make_grid
from repro.core.payloads import BucketDeltaBatch
from repro.errors import ProtocolError
from repro.sim.engine import TreeNetwork
from repro.types import QuerySpec, RoundOutcome

#: LCLL fills one maximum payload with bucket counts (Section 5.1.6).
LCLL_BUCKETS: int = VALUES_PER_MESSAGE

#: Pseudo-level used by LCLL-S for the below/above boundary regions.
_REGION_LEVEL: int = -1
_BELOW, _ABOVE = 0, 1


class LCLLHierarchical(ContinuousQuantileAlgorithm):
    """LCLL with recursive hierarchical refining (LCLL-H)."""

    name = "LCLL-H"

    def __init__(self, spec: QuerySpec, num_buckets: int = LCLL_BUCKETS) -> None:
        super().__init__(spec)
        if num_buckets < 2:
            raise ProtocolError(f"need at least 2 buckets, got {num_buckets}")
        self.num_buckets = num_buckets
        self._grids: list[BucketGrid] = []
        self._counts: list[list[int]] = []
        self._registration: np.ndarray | None = None  # (levels, vertices)

    # -- rounds ---------------------------------------------------------------

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        k = self.rank(net)
        self._grids, self._counts = [], []
        quantile, refinements = self._descend(
            net, values, k, 0, self.spec.r_min, self.spec.r_max
        )
        self._registration = self._register_all(net, values)
        self.current_quantile = quantile
        return RoundOutcome(quantile=quantile, refinements=refinements)

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        if self._registration is None:
            raise ProtocolError("update() called before initialize()")
        k = self.rank(net)
        new_registration = self._register_all(net, values)
        self._validate(net, new_registration)
        self._registration = new_registration

        # Walk the cached zoom path with the freshly updated counts.
        below = 0
        refinements = 0
        for level, (grid, counts) in enumerate(zip(self._grids, self._counts)):
            target = k - below - 1
            if not 0 <= target < sum(counts):
                raise ProtocolError(
                    f"rank {k} outside level-{level} grid "
                    f"[{grid.low}, {grid.high}]"
                )
            bucket, skipped = locate_bucket(counts, target)
            bucket_low, bucket_high = grid.bucket_bounds(bucket)
            if bucket_low == bucket_high:
                # Exact value reachable from cached counts: no refinement.
                self.current_quantile = bucket_low
                return RoundOutcome(quantile=bucket_low, refinements=refinements)
            below += skipped
            next_level = level + 1
            if (
                next_level < len(self._grids)
                and self._grids[next_level].low == bucket_low
                and self._grids[next_level].high == bucket_high
            ):
                continue  # the cached path still covers rank k: descend

            # Re-zoom: drop the stale tail, zoom out once, then descend.
            self._grids = self._grids[:next_level]
            self._counts = self._counts[:next_level]
            net.phase = "refinement"
            net.broadcast(REFINEMENT_REQUEST_BITS)  # zoom-out / deregister
            quantile, extra = self._descend(
                net, values, k, below, bucket_low, bucket_high
            )
            self._registration = self._register_all(net, values)
            self.current_quantile = quantile
            return RoundOutcome(quantile=quantile, refinements=refinements + extra)
        raise ProtocolError("zoom path exhausted without locating the quantile")

    # -- internals ------------------------------------------------------------

    def _descend(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        k: int,
        below: int,
        low: int,
        high: int,
    ) -> tuple[int, int]:
        """Zoom into ``[low, high]`` until the rank-k value is unique."""
        net.phase = "refinement"
        refinements = 0
        while True:
            grid = make_grid(low, high, self.num_buckets)
            net.broadcast(REFINEMENT_REQUEST_BITS)  # zoom-in request
            counts = list(
                collect_histogram(net, values, grid, self.participation_mask(net))
            )
            refinements += 1
            self._grids.append(grid)
            self._counts.append(counts)
            bucket, skipped = locate_bucket(counts, k - below - 1)
            bucket_low, bucket_high = grid.bucket_bounds(bucket)
            if bucket_low == bucket_high:
                return bucket_low, refinements
            below += skipped
            low, high = bucket_low, bucket_high

    def _validate(self, net: TreeNetwork, new_registration: np.ndarray) -> None:
        """Delta convergecast; applies the merged deltas to cached counts."""
        assert self._registration is not None
        old_reg = self._registration
        moved = old_reg != new_registration  # (levels, vertices)
        changed = np.flatnonzero(moved.any(axis=0))
        # Per moved level: -1 for the bucket the value left, +1 for the one
        # it entered (-1 registrations are outside the level's grid).  Key
        # (level, bucket) is column level * b + bucket of a levels x b grid.
        level, row = np.nonzero(moved[:, changed])
        vertex = changed[row]
        buckets = np.concatenate(
            (old_reg[level, vertex], new_registration[level, vertex])
        ).astype(np.int64)
        inside = buckets >= 0
        keys = np.concatenate((level, level)) * self.num_buckets + buckets
        deltas = np.repeat(np.array([-1, 1], dtype=np.int64), len(row))
        net.phase = "validation"
        merged = net.convergecast(
            BucketDeltaBatch(
                changed,
                np.concatenate((row, row))[inside],
                keys[inside],
                deltas[inside],
                grid=tuple((lvl, self.num_buckets) for lvl in range(len(self._grids))),
            )
        )
        if merged is None:
            return
        for (level, bucket), delta in merged.as_dict().items():
            self._counts[level][bucket] += delta
            if self._counts[level][bucket] < 0:
                raise ProtocolError(
                    f"negative count at level {level} bucket {bucket}"
                )

    # -- repair hooks (repro.faults.repair) -----------------------------------

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        super().detach(net, vertex)
        if self._registration is None:
            return
        for level in range(len(self._grids)):
            bucket = int(self._registration[level, vertex])
            if bucket >= 0:
                self._counts[level][bucket] -= 1
                if self._counts[level][bucket] < 0:
                    raise ProtocolError(
                        f"detach drove level {level} bucket {bucket} negative"
                    )
            self._registration[level, vertex] = -1

    def rejoin(self, net: TreeNetwork, values: np.ndarray, vertex: int) -> None:
        super().rejoin(net, values, vertex)
        if self._registration is None:
            return
        value = int(values[vertex])
        for level, grid in enumerate(self._grids):
            if grid.low <= value <= grid.high:
                bucket = grid.bucket_of(value)
                self._counts[level][bucket] += 1
                self._registration[level, vertex] = bucket
            else:
                self._registration[level, vertex] = -1

    def handover_state_bits(self) -> int:
        # The whole zoom hierarchy moves: per level, the grid bounds plus
        # one counter per bucket.
        bits = super().handover_state_bits()
        for counts in self._counts:
            bits += (len(counts) + 2) * VALUE_BITS
        return bits

    def _register_all(self, net: TreeNetwork, values: np.ndarray) -> np.ndarray:
        """Per-level bucket registration of every vertex (-1 = outside)."""
        outside = ~self.participation_mask(net)
        levels = len(self._grids)
        registration = np.full((levels, net.tree.num_vertices), -1, dtype=np.int32)
        values = np.asarray(values)
        for level, grid in enumerate(self._grids):
            indices = grid.bucket_of_array(values)
            indices[outside] = -1
            registration[level] = indices
        return registration


class LCLLSlip(ContinuousQuantileAlgorithm):
    """LCLL with slip refining (LCLL-S): a sliding 64-value focused window."""

    name = "LCLL-S"

    def __init__(self, spec: QuerySpec, window_cells: int = LCLL_BUCKETS) -> None:
        super().__init__(spec)
        if window_cells < 2:
            raise ProtocolError(f"window needs >= 2 cells, got {window_cells}")
        self.window_cells = window_cells
        self._window_low: int | None = None
        self._cells: list[int] = []
        self._below: int = 0
        self._above: int = 0
        self._state: np.ndarray | None = None

    @property
    def _window_high(self) -> int:
        assert self._window_low is not None
        return self._window_low + self.window_cells - 1

    # -- rounds ---------------------------------------------------------------

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        k = self.rank(net)
        quantile, counters, smallest = tag_initialization(
            net, values, k, participants=self.participating_sensors(net)
        )
        # Centre the focused window on the initial quantile and register the
        # in-window nodes with one histogram.  Windows may extend past the
        # universe bounds; cells for unrepresentable values simply stay empty.
        low = quantile - self.window_cells // 2
        self._window_low = low
        net.phase = "initialization"
        net.broadcast(2 * VALUE_BITS)  # window announcement
        self._cells = list(self._collect_window(net, values, low))
        self._below = sum(1 for value in smallest if value < low)
        self._above = self.population(net) - self._below - sum(self._cells)
        self._state = self._positions(net, values)
        self.current_quantile = quantile
        return RoundOutcome(quantile=quantile, refinements=1, filter_broadcast=True)

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        if self._window_low is None or self._state is None:
            raise ProtocolError("update() called before initialize()")
        k = self.rank(net)
        new_state = self._positions(net, values)
        self._validate(net, new_state)
        self._state = new_state

        refinements = 0
        # With exact counters the window moves monotonically toward rank k,
        # so no refinement ever needs more slips than there are window tiles
        # across the universe.  Message loss can corrupt the boundary
        # counters into a state no window satisfies (the window oscillates
        # or runs off the universe); the budget turns that into a protocol
        # failure the fault-recovery layer can handle by re-initializing.
        span = self.spec.r_max - self.spec.r_min + 1
        max_slips = -(-span // self.window_cells) + 2
        while True:
            inside = sum(self._cells)
            if self._below < k <= self._below + inside:
                target = k - self._below - 1
                cell, _ = locate_bucket(tuple(self._cells), target)
                quantile = self._window_low + cell
                self.current_quantile = quantile
                return RoundOutcome(quantile=quantile, refinements=refinements)
            if refinements >= max_slips:
                raise ProtocolError(
                    f"window failed to converge on rank {k} after "
                    f"{refinements} slips — boundary counters are "
                    "inconsistent (lost messages?)"
                )
            if k <= self._below:
                self._slip(net, values, leftward=True)
            else:
                self._slip(net, values, leftward=False)
            refinements += 1

    # -- internals ------------------------------------------------------------

    def _slip(self, net: TreeNetwork, values: np.ndarray, leftward: bool) -> None:
        """Move the window one window-width toward the rank-k value."""
        assert self._window_low is not None
        # Windows tile contiguously (slip distance == window width), which
        # keeps the boundary-counter arithmetic exact; windows beyond the
        # universe are harmless because no measurement can fall there.
        old_sum = sum(self._cells)
        if leftward:
            new_low = self._window_low - self.window_cells
        else:
            new_low = self._window_low + self.window_cells

        net.phase = "refinement"
        net.broadcast(2 * VALUE_BITS)  # slip request: the new window bounds
        new_cells = list(self._collect_window(net, values, new_low))
        new_sum = sum(new_cells)
        if leftward:
            self._above += old_sum
            self._below -= new_sum
        else:
            self._below += old_sum
            self._above -= new_sum
        if self._below < 0 or self._above < 0:
            raise ProtocolError("slip produced negative boundary counts")
        self._window_low = new_low
        self._cells = new_cells
        # Window moved: refresh the registration baseline.
        self._state = self._positions(net, values)

    def _validate(self, net: TreeNetwork, new_state: np.ndarray) -> None:
        assert self._state is not None
        changed = np.flatnonzero(self._state != new_state)
        rows = np.arange(len(changed))
        net.phase = "validation"
        merged = net.convergecast(
            BucketDeltaBatch(
                changed,
                np.concatenate((rows, rows)),
                np.concatenate(
                    (
                        self._delta_columns(self._state[changed]),
                        self._delta_columns(new_state[changed]),
                    )
                ),
                np.repeat(np.array([-1, 1], dtype=np.int64), len(changed)),
                grid=((_REGION_LEVEL, 2), (0, self.window_cells)),
            )
        )
        if merged is None:
            return
        for (level, index), delta in merged.as_dict().items():
            if level == _REGION_LEVEL:
                if index == _BELOW:
                    self._below += delta
                else:
                    self._above += delta
            else:
                self._cells[index] += delta
                if self._cells[index] < 0:
                    raise ProtocolError(f"negative count in window cell {index}")
        if self._below < 0 or self._above < 0:
            raise ProtocolError("validation produced negative boundary counts")

    # -- repair hooks (repro.faults.repair) -----------------------------------

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        super().detach(net, vertex)
        if self._window_low is None or self._state is None:
            return
        self._shift_position(int(self._state[vertex]), -1)
        self._state[vertex] = -1

    def rejoin(self, net: TreeNetwork, values: np.ndarray, vertex: int) -> None:
        super().rejoin(net, values, vertex)
        if self._window_low is None or self._state is None:
            return
        value = int(values[vertex])
        if value < self._window_low:
            position = -1
        elif value > self._window_high:
            position = self.window_cells
        else:
            position = value - self._window_low
        self._shift_position(position, 1)
        self._state[vertex] = position

    def handover_state_bits(self) -> int:
        # Window base, the per-cell counters, and the two boundary counters.
        return super().handover_state_bits() + (len(self._cells) + 3) * VALUE_BITS

    def _shift_position(self, position: int, delta: int) -> None:
        """Move one membership in/out of a window cell or boundary counter."""
        if position == -1:
            self._below += delta
        elif position == self.window_cells:
            self._above += delta
        else:
            self._cells[position] += delta
            if self._cells[position] < 0:
                raise ProtocolError(
                    f"membership patch drove window cell {position} negative"
                )
        if self._below < 0 or self._above < 0:
            raise ProtocolError(
                "membership patch produced negative boundary counts"
            )

    def _delta_columns(self, positions: np.ndarray) -> np.ndarray:
        """Delta-grid columns of window positions: the boundary counters
        ``(_REGION_LEVEL, _BELOW)`` and ``(_REGION_LEVEL, _ABOVE)`` first,
        then cell ``(0, position)``."""
        positions = positions.astype(np.int64)
        columns = positions + 2
        columns[positions == -1] = _BELOW
        columns[positions == self.window_cells] = _ABOVE
        return columns

    def _positions(self, net: TreeNetwork, values: np.ndarray) -> np.ndarray:
        """Window position of every vertex: -1 below, cell index, or ``cells``."""
        assert self._window_low is not None
        values = np.asarray(values)
        low, high = self._window_low, self._window_high
        state = (values - low).astype(np.int32)
        state[values < low] = -1
        state[values > high] = self.window_cells
        state[~self.participation_mask(net)] = -1
        return state

    def _collect_window(
        self, net: TreeNetwork, values: np.ndarray, window_low: int
    ) -> tuple[int, ...]:
        """One-hot cell histograms from nodes inside the (new) window."""
        high = window_low + self.window_cells - 1
        cells = make_grid(window_low, high, self.window_cells)  # unit-wide
        return collect_histogram(net, values, cells, self.participation_mask(net))


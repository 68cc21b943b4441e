"""Mergeable quantile sketches for approximate in-network aggregation.

The exact algorithms of this package (POS/HBC/IQ vs TAG/LCLL) answer with
the *exact* k-th value every round; this subsystem trades bounded rank
error for energy.  Two sketches share one structural interface
(:class:`~repro.sketch.payload.QuantileSketch`):

* :class:`QDigest` — deterministic ``eps * n`` rank-error guarantee over a
  bounded integer universe, any merge order (SenSys 2004).
* :class:`KLLSketch` — smaller, universe-agnostic, probabilistic guarantee
  with deterministic seeding (FOCS 2016).

:class:`SketchPayload` adapts either to the simulator's payload contract,
and :class:`~repro.core.sketchq.SketchQuantile` builds a continuous
algorithm on top.  :func:`one_value_digests` builds a q-digest
collection's contributions: a :class:`DigestBatch` of integer columns
while no hop can compress, payload objects otherwise.
"""

from repro.sketch.kll import KLLSketch
from repro.sketch.payload import (
    DigestBatch,
    QuantileSketch,
    SketchPayload,
    TaggedSketchPayload,
    one_value_digests,
)
from repro.sketch.qdigest import QDigest

__all__ = [
    "DigestBatch",
    "KLLSketch",
    "QDigest",
    "QuantileSketch",
    "SketchPayload",
    "TaggedSketchPayload",
    "one_value_digests",
]

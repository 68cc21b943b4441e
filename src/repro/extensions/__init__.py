"""Extensions the paper points at but does not build (Sections 3.1, 4.2, 6)."""

from repro.extensions.adaptive import AdaptiveQuantile
from repro.extensions.sampling import (
    SamplingResult,
    run_sampling_experiment,
    sample_layer,
)

__all__ = [
    "AdaptiveQuantile",
    "SamplingResult",
    "run_sampling_experiment",
    "sample_layer",
]

"""Parameter-free panoptic segmentation from dense detections.

The library turns dense per-pixel box and semantic predictions into instance
masks and a fused panoptic map without learning any extra parameters, and
ships the matching training-target generation, forward loss computation,
panoptic/semantic metrics and a synthetic-scene harness used to validate the
whole pipeline end to end.
"""

__version__ = "0.1.0"

from . import assignment, bundle, fields, geometry, losses, maskcons, metrics, pipeline, selection, synth

__all__ = [
    "assignment",
    "bundle",
    "fields",
    "geometry",
    "losses",
    "maskcons",
    "metrics",
    "pipeline",
    "selection",
    "synth",
    "__version__",
]

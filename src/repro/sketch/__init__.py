"""Line-rate aggregate detection: sketches + the RSU aggregate monitor.

The paper's probe protocol keeps per-suspect state at the cluster head;
this package provides the O(1)-per-packet alternative for heavy
traffic: a seeded count-min sketch and space-saving heavy-hitter
summary (``repro.sketch.summaries``) and an ``AggregateMonitor``
(``repro.sketch.monitor``) that folds every overheard transmission
into per-origin RREQ-rate, per-suspect drop-ratio, and
hello-response-latency aggregates, convicting RREQ
flooders via a DPRAODV-style dynamic threshold.

See docs/sketch-detection.md for the full design.
"""

from repro.sketch.monitor import (
    VERDICT_FLOODER,
    AggregateMonitor,
    SketchConfig,
    install_monitors,
)
from repro.sketch.summaries import CountMinSketch, SpaceSavingSummary

__all__ = [
    "AggregateMonitor",
    "CountMinSketch",
    "SketchConfig",
    "SpaceSavingSummary",
    "VERDICT_FLOODER",
    "install_monitors",
]

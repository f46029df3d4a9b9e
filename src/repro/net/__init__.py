"""Network substrate: loss models, mobility, multicast groups, traces.

The paper's evaluation ran on a real 2 Mbps WaveLAN; this package holds the
data of its simulated replacement — calibrated distance-based loss, bursty
Gilbert–Elliott loss, a straight-line walk, the WaveLAN constants, generic
multicast groups, and packet traces/statistics including the Figure 7
windowing.  The wireless segment itself, an access point with independent
per-receiver losses, is the inproc transport's
:class:`~repro.transport.inproc.InprocChannel`.
"""

from .arq import (
    ArqResult,
    compare_fec_with_arq,
    fec_transmission_overhead,
    simulate_multicast_arq,
    simulate_unicast_arq,
)
from .channel import (
    CALIBRATION_DISTANCE_M,
    CALIBRATION_LOSS,
    PER_PACKET_OVERHEAD_S,
    WAVELAN_BANDWIDTH_BPS,
    BernoulliLoss,
    DistanceLoss,
    FixedPatternLoss,
    GilbertElliottLoss,
    LinearWalk,
    LossModel,
    NoLoss,
    loss_probability_at_distance,
)
from .multicast import MulticastGroup, SubscriberRecord
from .stats import (
    FIG7_WINDOW_SIZE,
    DeliveryReport,
    ReceiverStats,
    WindowPoint,
    loss_run_lengths,
    windowed_percentages,
)
from .trace import (
    EVENT_DELIVERED,
    EVENT_LOST,
    EVENT_REPAIRED,
    EVENT_SENT,
    PacketTrace,
    TraceEvent,
)

__all__ = [
    "ArqResult",
    "simulate_multicast_arq",
    "simulate_unicast_arq",
    "compare_fec_with_arq",
    "fec_transmission_overhead",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "DistanceLoss",
    "FixedPatternLoss",
    "loss_probability_at_distance",
    "CALIBRATION_DISTANCE_M",
    "CALIBRATION_LOSS",
    "LinearWalk",
    "WAVELAN_BANDWIDTH_BPS",
    "PER_PACKET_OVERHEAD_S",
    "MulticastGroup",
    "SubscriberRecord",
    "ReceiverStats",
    "DeliveryReport",
    "WindowPoint",
    "FIG7_WINDOW_SIZE",
    "windowed_percentages",
    "loss_run_lengths",
    "PacketTrace",
    "TraceEvent",
    "EVENT_SENT",
    "EVENT_DELIVERED",
    "EVENT_LOST",
    "EVENT_REPAIRED",
]

"""E4 — packet loss versus distance from the access point.

Section 3 motivates adaptation with the observation (from the authors'
companion measurement study) that "packet loss rate can change dramatically
over a distance of several meters on wireless LANs".  This benchmark sweeps
the receiver's distance, measures the delivered fraction of a fixed packet
train at each position, and checks the calibration point used throughout
the reproduction (≈1.46% loss at 25 m, the operating point of Figure 7).
"""

from __future__ import annotations

import pytest

from repro.net import (
    CALIBRATION_LOSS,
    DistanceLoss,
    loss_probability_at_distance,
)
from repro.transport import InprocChannel

from benchutil import format_row, write_table

DISTANCES_M = [5, 10, 15, 20, 25, 30, 35, 40, 45]
PACKETS_PER_POINT = 20000


def measure_loss_at(distance_m: float, packets: int = PACKETS_PER_POINT,
                    seed: int = 17) -> float:
    channel = InprocChannel("e4")
    probe = channel.join("probe", loss_model=DistanceLoss(distance_m, seed=seed),
                         queue_payloads=False)
    payload = b"\x00" * 500
    for _ in range(packets):
        channel.send(payload)
    return probe.stats.loss_ratio


def test_e4_loss_vs_distance_sweep(benchmark):
    def sweep():
        return {d: measure_loss_at(d) for d in DISTANCES_M}

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        "E4: packet loss vs distance from the access point "
        f"({PACKETS_PER_POINT} packets per point)",
        "",
        format_row(["distance (m)", "model loss %", "measured loss %"],
                   [13, 13, 16]),
    ]
    for distance in DISTANCES_M:
        lines.append(format_row(
            [distance, f"{100 * loss_probability_at_distance(distance):.3f}",
             f"{100 * measured[distance]:.3f}"], [13, 13, 16]))
    lines += [
        "",
        f"calibration: 25 m -> {100 * CALIBRATION_LOSS:.2f}% "
        "(paper's Figure 7 operating point: 100 - 98.54 = 1.46%)",
    ]
    write_table("e4_loss_vs_distance", lines)

    # Shape assertions: monotone increase, calibrated at 25 m, and a
    # dramatic (an order of magnitude) change across the last ten metres.
    rates = [measured[d] for d in DISTANCES_M]
    assert all(b >= a - 0.005 for a, b in zip(rates, rates[1:]))
    assert measured[25] == pytest.approx(CALIBRATION_LOSS, abs=0.005)
    assert measured[5] < 0.002
    assert measured[45] > 10 * max(measured[25], 1e-6)


def test_e4_loss_measurement_throughput(benchmark):
    """Time the loss measurement primitive itself (simulator throughput)."""
    rate = benchmark(lambda: measure_loss_at(30.0, packets=5000))
    assert 0.0 <= rate <= 1.0

"""E7 — boundary-aware insertion on a video stream.

Section 3: an FEC filter for video "may be specific to video streams (e.g.,
placing more redundancy in I frames than in B frames)", so "we need to
consider the format of the stream in order to start the FEC filter at a
'frame boundary' in the stream".  This benchmark inserts an FEC encoder into
a live GOP video stream with and without the boundary hold and reports:

* the frame type at which the FEC filter actually started, and
* the latency cost of waiting for the boundary.
"""

from __future__ import annotations

import time


from repro.fec import FecPacket, FecPacketError, unpad_block
from repro.media import FRAME_I, FRAME_TYPE_NAMES, MediaPacket, VideoSource
from repro.proxies import VideoProxy

from benchutil import format_row, write_table


def first_fec_frame_type(delivered):
    """Frame type of the first media packet the FEC encoder wrapped."""
    for raw in delivered:
        try:
            fec = FecPacket.unpack(raw)
        except FecPacketError:
            continue
        if fec.is_data:
            return MediaPacket.unpack(unpad_block(fec.payload)).marker
        if fec.is_uncoded:
            return MediaPacket.unpack(fec.payload).marker
    return None


def run_insertion(use_boundary: bool, seed: int = 0):
    """Insert FEC into a flowing video stream; return (frame type, latency)."""
    video = VideoSource(duration=4.0, seed=seed)  # 120 frames, ~13 GOPs
    delivered = []
    # The source keeps an absolute schedule, so a stall of this process
    # does not stretch the stream: 120 packets x 4 ms = 0.48 s keeps the
    # insertion 50 ms after start inside a flowing stream.
    proxy = VideoProxy(video, delivered.append, pacing_s=0.004,
                       name=f"video-proxy-{seed}-{use_boundary}")
    proxy.start()
    time.sleep(0.05)
    started = time.perf_counter()
    if use_boundary:
        proxy.insert_fec_at_gop_boundary(k=3, n=4)
    else:
        from repro.filters import FecEncoderFilter

        proxy.control.add(FecEncoderFilter(k=3, n=4, name="video-fec"),
                          position=0)
    latency = time.perf_counter() - started
    proxy.wait_for_completion(timeout=60.0)
    proxy.shutdown()
    return first_fec_frame_type(delivered), latency


def test_e7_boundary_insertion_starts_on_i_frames(benchmark):
    def run_trials():
        aligned = [run_insertion(True, seed=s) for s in range(5)]
        unaligned = [run_insertion(False, seed=100 + s) for s in range(5)]
        return aligned, unaligned

    aligned, unaligned = benchmark.pedantic(run_trials, rounds=1, iterations=1)

    aligned_types = [FRAME_TYPE_NAMES.get(t, "?") for t, _ in aligned]
    unaligned_types = [FRAME_TYPE_NAMES.get(t, "?") for t, _ in unaligned]
    aligned_latency = sum(latency for _, latency in aligned) / len(aligned)
    unaligned_latency = sum(latency for _, latency in unaligned) / len(unaligned)

    lines = [
        "E7: frame type at which the video FEC filter started (5 trials each)",
        "",
        format_row(["insertion mode", "start frame types", "avg latency (ms)"],
                   [22, 22, 17]),
        format_row(["at GOP boundary", " ".join(aligned_types),
                    f"{1000 * aligned_latency:.1f}"], [22, 22, 17]),
        format_row(["immediate", " ".join(unaligned_types),
                    f"{1000 * unaligned_latency:.1f}"], [22, 22, 17]),
        "",
        "GOP pattern is IBBPBBPBB: an immediate insertion usually lands "
        "mid-GOP, a boundary insertion always starts on an I frame.",
    ]
    write_table("e7_boundary_insertion", lines)

    # Boundary-aligned insertions always start the FEC filter at an I frame.
    assert all(t == FRAME_I for t, _ in aligned)
    # Immediate insertions mostly start mid-GOP (8 of 9 frames are not I).
    assert any(t != FRAME_I for t, _ in unaligned)


def test_e7_boundary_insertion_latency(benchmark):
    """Time a single boundary-aligned insertion on a flowing stream."""

    def insert_once():
        frame_type, latency = run_insertion(True, seed=7)
        assert frame_type == FRAME_I
        return latency

    latency = benchmark.pedantic(insert_once, rounds=3, iterations=1)
    # Waiting for the next I frame can take at most one GOP of pacing time
    # (9 frames x 2 ms) plus scheduling noise.
    assert latency < 2.0

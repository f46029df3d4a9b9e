"""Trivial filters: pass-through, counting, and delay.

A "null" filter that forwards data unmodified is useful for three things:
measuring the overhead of the composition mechanism itself (experiment E6),
padding chains to a given length in benchmarks, and serving as the simplest
possible example of the Filter API.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.filter import Filter, PacketFilter


class PassthroughFilter(Filter):
    """Forwards every byte chunk unchanged."""

    type_name = "passthrough"

    def transform(self, chunk: bytes) -> bytes:
        return chunk

    def transform_chunks(self, chunks, outputs) -> None:
        # Identity fused over the batch: one extend instead of a per-chunk
        # transform() round-trip.  E6 measures the composition mechanism
        # through chains of this filter, so its hop cost is pure plumbing.
        # (It cannot fail mid-batch, so it keeps no tally of its own: the
        # caller accounts the batch from the stream's byte count.)
        outputs.extend(chunks)


class PacketPassthroughFilter(PacketFilter):
    """Forwards every framed packet unchanged (reframing it on the way)."""

    type_name = "packet-passthrough"

    def transform_packet(self, packet: bytes) -> bytes:
        return packet


class UppercaseFilter(Filter):
    """Uppercases ASCII text — the "hello world" of stream filters.

    Used by the quickstart example to make the effect of dynamic insertion
    visible to the naked eye.
    """

    type_name = "uppercase"

    def transform(self, chunk: bytes) -> bytes:
        # Input may be a memoryview (zero-copy data path); bytes() it first.
        return bytes(chunk).upper()


class DelayFilter(Filter):
    """Adds a fixed processing delay per chunk (models a slow transcoder)."""

    type_name = "delay"

    def __init__(self, delay_s: float = 0.001, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        self.delay_s = delay_s

    def transform(self, chunk: bytes) -> bytes:
        if self.delay_s:
            time.sleep(self.delay_s)
        return chunk

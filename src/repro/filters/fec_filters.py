"""FEC encoder and decoder filters.

These are the RAPIDware ports of the paper's FEC proxy components (Section
5): the encoder collects the packets flowing through the proxy into (n, k)
erasure-coded groups and emits data + parity packets; the decoder, placed on
the receiving side of a lossy link, reconstructs the original packets from
whatever subset arrives.

Both are :class:`~repro.core.filter.PacketFilter` subclasses, so they can be
inserted into (and removed from) a running stream by the ControlThread at
any packet boundary — the "demand-driven FEC" of the paper's title example.
"""

from __future__ import annotations

import itertools
import threading
from typing import List, Optional

from ..core.filter import PacketFilter
from ..fec import FecGroupDecoder, FecGroupEncoder, FecPacket, FecPacketError

#: The configuration used in the paper's Figure 7 experiment.
PAPER_FEC_K = 4
PAPER_FEC_N = 6

#: Each encoder instance claims its own block of group identifiers so that a
#: decoder never confuses the groups of two encoders that served the same
#: stream at different times (FEC enabled, disabled, re-enabled).
_GROUP_ID_STRIDE = 1 << 20
_encoder_counter = itertools.count()
_encoder_counter_lock = threading.Lock()


def _allocate_group_id_base() -> int:
    with _encoder_counter_lock:
        return next(_encoder_counter) * _GROUP_ID_STRIDE % (1 << 32)


class FecEncoderFilter(PacketFilter):
    """Wrap the packets of a stream in (n, k) block-erasure-code groups.

    Every incoming packet becomes the payload of an FEC data packet; after
    ``k`` payloads a full group (k data + n-k parity packets) is emitted.
    At end-of-stream any partial group is flushed uncoded so no payload is
    ever withheld.
    """

    type_name = "fec-encoder"

    #: One fused gather-XOR pass per pump budget: every group completed by
    #: the batch reaches the numpy backend as a single 2D array.
    fused_packet_batch = True

    def __init__(self, k: int = PAPER_FEC_K, n: int = PAPER_FEC_N,
                 name: Optional[str] = None,
                 start_group_id: Optional[int] = None,
                 backend: Optional[str] = None) -> None:
        super().__init__(name=name)
        if start_group_id is None:
            start_group_id = _allocate_group_id_base()
        self._encoder = FecGroupEncoder(k=k, n=n, start_group_id=start_group_id,
                                        backend=backend)
        self.k = k
        self.n = n

    @property
    def encoder_stats(self):
        """Group/packet counters maintained by the underlying encoder."""
        return self._encoder.stats

    def transform_packet(self, packet: bytes) -> List[bytes]:
        return self.transform_packets((packet,))

    def transform_packets(self, packets: List[bytes],
                          outputs: Optional[List[bytes]] = None) -> List[bytes]:
        if outputs is None:
            outputs = []
        fec_packets: List[FecPacket] = []
        try:
            self._encoder.add_batch(packets, fec_packets)
        finally:
            # A rejected payload leaves the groups completed before it.
            outputs += [fec_packet.pack() for fec_packet in fec_packets]
        return outputs

    def finalize_packets(self) -> List[bytes]:
        return [fec_packet.pack() for fec_packet in self._encoder.flush()]

    def describe(self) -> dict:
        info = super().describe()
        info["fec"] = {"k": self.k, "n": self.n,
                       "backend": self._encoder.backend_name,
                       "groups_encoded": self._encoder.stats.groups_encoded}
        return info


class FecDecoderFilter(PacketFilter):
    """Reconstruct original packets from a (possibly lossy) FEC stream.

    Packets that are not valid FEC packets are forwarded unchanged when
    ``passthrough_unknown`` is True (the default), which lets the decoder be
    inserted speculatively on streams that are only sometimes FEC-protected.
    """

    type_name = "fec-decoder"

    #: Batch the decode too: consecutive runs of valid FEC packets in one
    #: pump budget reach the group decoder (and its fused reconstruction)
    #: as a single call.
    fused_packet_batch = True

    def __init__(self, name: Optional[str] = None,
                 passthrough_unknown: bool = True,
                 max_tracked_groups: int = 1024,
                 backend: Optional[str] = None) -> None:
        super().__init__(name=name)
        self._group_decoder = FecGroupDecoder(max_tracked_groups=max_tracked_groups,
                                              backend=backend)
        self.passthrough_unknown = passthrough_unknown
        self.unknown_packets = 0

    @property
    def decoder_stats(self):
        """Group/packet counters maintained by the underlying decoder."""
        return self._group_decoder.stats

    def transform_packet(self, packet: bytes) -> List[bytes]:
        return self.transform_packets((packet,))

    def transform_packets(self, packets: List[bytes],
                          outputs: Optional[List[bytes]] = None) -> List[bytes]:
        if outputs is None:
            outputs = []
        unpack = FecPacket.unpack
        run: List[FecPacket] = []
        for packet in packets:
            try:
                run.append(unpack(packet))
            except FecPacketError:
                if run:
                    # Flush the run first so a passthrough packet keeps its
                    # position relative to the decoded payloads around it.
                    self._group_decoder.add_batch(run, outputs)
                    run = []
                self.unknown_packets += 1
                if self.passthrough_unknown:
                    outputs.append(packet)
        if run:
            self._group_decoder.add_batch(run, outputs)
        return outputs

    def finalize_packets(self) -> List[bytes]:
        return self._group_decoder.flush()

    def describe(self) -> dict:
        info = super().describe()
        stats = self._group_decoder.stats
        info["fec"] = {
            "backend": self._group_decoder.backend_name,
            "groups_decoded": stats.groups_decoded,
            "groups_repaired": stats.groups_repaired,
            "payloads_recovered": stats.payloads_recovered,
        }
        return info

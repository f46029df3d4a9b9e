"""The FEC audio proxy — the paper's Section 5 example, end to end.

Figure 6 of the paper shows the components of the FEC audio proxy:

* downstream (toward the mobile hosts): a ``WiredReceiver`` takes multicast
  audio packets from the wired LAN, an ``FEC Encoder`` groups them and adds
  parity, and a ``WirelessSender`` multicasts data + parity on the WLAN;
* upstream (from the mobile hosts): a wireless receiver takes packets off
  the WLAN, an ``FEC Decoder`` reconstructs lost packets, and a
  ``WiredSender`` forwards them to the wired participants.

In the RAPIDware port those boxes become EndPoints and PacketFilters managed
by a ControlThread, so the FEC filters can be inserted and removed while the
stream is live.  This module assembles both directions from the building
blocks in :mod:`repro.core`, :mod:`repro.filters` and :mod:`repro.net`, and
provides :func:`run_fec_audio_experiment`, the driver that reproduces the
Figure 7 measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import ControlThread, IterableSource, Proxy
from ..fec import FecPacket, FecPacketError
from ..filters import FecDecoderFilter, FecEncoderFilter, PAPER_FEC_K, PAPER_FEC_N
from ..media import (
    AudioPacketizer,
    AudioSource,
    Depacketizer,
    MediaPacket,
    MediaPacketError,
    ToneSource,
)
from ..net import DeliveryReport
from ..transport import InprocChannel, TransportSink
from ..transport.base import DatagramChannel


@dataclass
class FecAudioProxyConfig:
    """Configuration of the downstream (wired -> wireless) FEC audio proxy."""

    k: int = PAPER_FEC_K
    n: int = PAPER_FEC_N
    fec_enabled: bool = True
    packet_duration_ms: int = 20
    stream_name: str = "audio-downstream"
    #: GF(256) backend name for the FEC filters (None = process default).
    fec_backend: Optional[str] = None
    #: Execution engine name for the proxy's streams (None = ``REPRO_ENGINE``
    #: / the registry default; see :mod:`repro.runtime`).
    engine: Optional[str] = None
    #: Transport name for the wireless segment when no ``channel`` is
    #: given (None = ``REPRO_TRANSPORT`` / the registry default; see
    #: :mod:`repro.transport`).
    transport: Optional[str] = None
    #: Pin the FEC group-id base (None = a fresh process-wide block per
    #: encoder).  Pinning makes two runs byte-identical on the wire, which
    #: the transport-equivalence tests rely on.
    fec_start_group_id: Optional[int] = None
    #: Stream supervision policy — an :class:`~repro.core.ErrorPolicy`, a
    #: mode name (``"fail"`` / ``"restart-filter"`` / ``"bypass"``), or a
    #: serialised policy dict.  None = unsupervised (the pre-supervision
    #: behaviour).
    error_policy: Optional[object] = None
    #: Pace the wired receiver (seconds between packets).  None = drain as
    #: fast as the chain allows; the chaos demo paces the stream so faults
    #: and recovery happen observably mid-flight.
    source_pacing_s: Optional[float] = None


class FecAudioProxy:
    """A RAPIDware proxy carrying one audio stream onto a wireless LAN.

    The proxy is built as a null proxy (wired receiver EndPoint -> wireless
    sender EndPoint); :meth:`enable_fec` and :meth:`disable_fec` insert and
    remove the FEC encoder filter *while the stream is running*, which is
    exactly the demand-driven behaviour of the paper's Section 3 scenario.

    The wireless segment is a transport channel: pass an existing
    :class:`~repro.transport.base.DatagramChannel` (the classic testbed is
    an :class:`~repro.transport.inproc.InprocChannel` whose members carry
    their own loss models), or none, in which case the proxy opens a
    channel on its transport (``transport=`` / ``config.transport`` /
    ``REPRO_TRANSPORT`` / inproc default) — with the ``udp`` transport the
    mobile hosts may live in other OS processes.
    """

    def __init__(self, wired_packets: List[MediaPacket],
                 config: Optional[FecAudioProxyConfig] = None,
                 name: str = "fec-audio-proxy",
                 channel: Optional[DatagramChannel] = None,
                 transport=None) -> None:
        self.config = config or FecAudioProxyConfig()
        self.proxy = Proxy(name, engine=self.config.engine,
                           transport=transport or self.config.transport)
        if channel is None:
            channel = self.proxy.open_channel("wlan")
        self.channel = channel
        self._encoder_filter: Optional[FecEncoderFilter] = None

        # Wired receiver: the already-packetised audio stream from the wired
        # LAN.  Each MediaPacket is framed so packet filters can be composed.
        self._source = IterableSource(
            [packet.pack() for packet in wired_packets],
            name="wired-receiver", frame_output=True,
            pacing_s=self.config.source_pacing_s or 0.0)
        # Wireless sender: every packet leaving the chain is multicast on the
        # wireless channel; end-of-stream closes the channel so receivers
        # (local or remote) see EOF.
        self._sink = TransportSink(self.channel, name="wireless-sender",
                                   expect_frames=True)
        self.control: ControlThread = self.proxy.add_stream(
            self._source, self._sink, name=self.config.stream_name,
            auto_start=False, error_policy=self.config.error_policy)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "FecAudioProxy":
        """Start the stream; the FEC encoder is composed in first if enabled.

        Enabling FEC before start uses static composition (no unprotected
        window); calling :meth:`enable_fec` later inserts the filter into the
        live stream instead.
        """
        if self.config.fec_enabled:
            self.enable_fec()
        self.control.start()
        return self

    def wait_for_completion(self, timeout: Optional[float] = None) -> bool:
        return self.control.wait_for_completion(timeout=timeout)

    def shutdown(self) -> None:
        self.proxy.shutdown()

    # -- demand-driven FEC -------------------------------------------------------

    @property
    def fec_active(self) -> bool:
        return self._encoder_filter is not None

    def enable_fec(self, k: Optional[int] = None, n: Optional[int] = None) -> None:
        """Insert the FEC encoder into the running stream (idempotent)."""
        if self._encoder_filter is not None:
            return
        encoder = FecEncoderFilter(k=k or self.config.k, n=n or self.config.n,
                                   name="fec-encoder",
                                   start_group_id=self.config.fec_start_group_id,
                                   backend=self.config.fec_backend)
        self.control.add(encoder, position=0)
        self._encoder_filter = encoder

    def disable_fec(self) -> None:
        """Remove the FEC encoder from the running stream (idempotent)."""
        if self._encoder_filter is None:
            return
        self.control.remove(self._encoder_filter)
        self._encoder_filter = None

    @property
    def encoder_stats(self):
        if self._encoder_filter is None:
            return None
        return self._encoder_filter.encoder_stats


class WirelessAudioReceiver:
    """The mobile-host side: FEC decoding and playout accounting.

    The receiver consumes the raw packets its WLAN receiver captured,
    separates FEC data/parity from plain packets, reconstructs what it can,
    and tracks which original sequence numbers were received directly versus
    available after reconstruction — the two series plotted in Figure 7.
    """

    def __init__(self, name: str = "mobile-host",
                 fec_backend: Optional[str] = None) -> None:
        self.name = name
        self.depacketizer = Depacketizer()
        self.decoder = FecDecoderFilter(name=f"{name}-fec-decoder",
                                        backend=fec_backend)
        self._raw_sequences: set = set()
        self._reconstructed_sequences: set = set()
        self.undecodable_packets = 0

    def process(self, raw_packets: List[bytes]) -> None:
        """Feed the packets captured off the WLAN (in arrival order)."""
        for raw in raw_packets:
            self._classify_raw(raw)
            for payload in self.decoder.transform_packets((raw,)):
                self._accept_media(payload, reconstructed=True)
        # Flush groups that never completed (end of experiment).

    def finish(self) -> None:
        """Flush FEC state at the end of the stream."""
        for payload in self.decoder.finalize_packets() or []:
            self._accept_media(payload, reconstructed=True)

    def _classify_raw(self, raw: bytes) -> None:
        """Record the sequence numbers of *directly received* media packets."""
        try:
            fec_packet = FecPacket.unpack(raw)
        except FecPacketError:
            # Not FEC-wrapped: a plain media packet.
            self._accept_media(raw, reconstructed=False)
            return
        if fec_packet.is_uncoded:
            self._record_raw_media(fec_packet.payload)
        elif fec_packet.is_data:
            from ..fec import unpad_block
            try:
                self._record_raw_media(unpad_block(fec_packet.payload))
            except FecPacketError:
                self.undecodable_packets += 1

    def _record_raw_media(self, payload: bytes) -> None:
        try:
            media = MediaPacket.unpack(payload)
        except MediaPacketError:
            self.undecodable_packets += 1
            return
        self._raw_sequences.add(media.sequence)

    def _accept_media(self, payload: bytes, reconstructed: bool) -> None:
        try:
            media = MediaPacket.unpack(payload)
        except MediaPacketError:
            self.undecodable_packets += 1
            return
        self._reconstructed_sequences.add(media.sequence)
        if not reconstructed:
            self._raw_sequences.add(media.sequence)
        self.depacketizer.add(media)

    # -- results ---------------------------------------------------------------

    def delivery_report(self, total_packets: int) -> DeliveryReport:
        """Raw vs reconstructed delivery accounting (Figure 7's two series)."""
        return DeliveryReport(total_packets=total_packets,
                              received=set(self._raw_sequences),
                              reconstructed=set(self._reconstructed_sequences))

    def reconstructed_pcm(self, total_packets: int) -> bytes:
        """The playout buffer contents (lost packets filled with silence)."""
        return self.depacketizer.reassemble(total_packets)


@dataclass
class FecAudioExperimentResult:
    """Everything measured by one run of the Figure 7 experiment."""

    total_packets: int
    k: int
    n: int
    distance_m: float
    reports: Dict[str, DeliveryReport] = field(default_factory=dict)
    packets_on_air: int = 0
    bytes_on_air: int = 0
    airtime_s: float = 0.0

    def average_received_percent(self) -> float:
        if not self.reports:
            return 100.0
        return sum(r.received_percent for r in self.reports.values()) / len(self.reports)

    def average_reconstructed_percent(self) -> float:
        if not self.reports:
            return 100.0
        return sum(r.reconstructed_percent
                   for r in self.reports.values()) / len(self.reports)


def run_fec_audio_experiment(
        audio_source: Optional[AudioSource] = None,
        duration_s: float = 10.0,
        distance_m: float = 25.0,
        receiver_count: int = 3,
        k: int = PAPER_FEC_K,
        n: int = PAPER_FEC_N,
        fec_enabled: bool = True,
        packet_duration_ms: int = 20,
        loss_model_factory=None,
        seed: int = 2001,
        completion_timeout_s: float = 120.0,
        fec_backend: Optional[str] = None,
        engine: Optional[str] = None) -> FecAudioExperimentResult:
    """Run the paper's FEC audio experiment on the simulated testbed.

    The defaults mirror the paper's setup: a PCM audio stream (8 kHz, two
    8-bit channels), an FEC(6,4) configuration, three wireless laptops, and
    a receiver position 25 m from the access point.

    ``loss_model_factory`` may be a callable ``(receiver_index) -> LossModel``
    to override the distance-based default (used by the benchmark sweeps).
    """
    if receiver_count < 1:
        raise ValueError("receiver_count must be >= 1")

    source = audio_source or ToneSource(duration=duration_s)
    packets = AudioPacketizer(source,
                              packet_duration_ms=packet_duration_ms).packet_list()
    total_packets = len(packets)

    channel = InprocChannel("wlan", seed=seed)
    receivers: Dict[str, WirelessAudioReceiver] = {}
    for index in range(receiver_count):
        name = f"laptop-{index}"
        if loss_model_factory is not None:
            channel.join(name, loss_model=loss_model_factory(index))
        else:
            channel.join(name, distance_m=distance_m,
                         seed=seed * 1009 + index)
        receivers[name] = WirelessAudioReceiver(name, fec_backend=fec_backend)

    config = FecAudioProxyConfig(k=k, n=n, fec_enabled=fec_enabled,
                                 packet_duration_ms=packet_duration_ms,
                                 fec_backend=fec_backend, engine=engine)
    proxy = FecAudioProxy(packets, config=config, channel=channel)
    proxy.start()
    completed = proxy.wait_for_completion(timeout=completion_timeout_s)
    proxy.shutdown()
    if not completed:
        raise RuntimeError("the FEC audio proxy did not finish in time")

    result = FecAudioExperimentResult(
        total_packets=total_packets, k=k, n=n, distance_m=distance_m,
        packets_on_air=channel.packets_sent,
        bytes_on_air=channel.bytes_sent,
        airtime_s=channel.busy_time_s)

    for name, audio_receiver in receivers.items():
        audio_receiver.process(channel.receiver(name).take())
        audio_receiver.finish()
        result.reports[name] = audio_receiver.delivery_report(total_packets)
    return result

"""The ``chaos:<inner>`` transport — deterministic faults over any transport.

:class:`ChaosTransport` decorates a registered transport; every datagram
channel it opens is wrapped in a :class:`ChaosChannel` that applies one
:class:`~repro.chaos.plan.FaultPlan` on the *send* side.  Injecting at the
sender means the same wrapper breaks inproc, loopback and UDP identically
— the fault happens before the substrate, so the whole equivalence suite
runs under faults unchanged.

Determinism: each channel owns a :class:`random.Random` seeded from
``plan.seed`` mixed with the channel name, and every send consumes a fixed
number of draws (one per probabilistic fault kind, triggered or not), so a
given (plan, channel, payload sequence) produces the same fault sequence
on every run — the bit-reproducibility acceptance criterion.

Every injected fault is emitted as a ``chaos-fault`` event and counted in
``repro_chaos_faults_total{action=...}``; the stream service
(``listen``/``connect``) and unicast ``send_to`` (FEC repair traffic)
pass through untouched so control planes stay reliable while the data
plane burns.
"""

from __future__ import annotations

import threading
import time
import zlib
from random import Random
from typing import Dict, List, Optional, Tuple

from ..obs.events import EVENT_CHAOS_FAULT, get_event_log
from ..obs.metrics import Counter, default_registry
from ..transport.base import DatagramChannel, DatagramReceiver, Transport
from .plan import FaultPlan


def _fault_counter():
    return default_registry().counter(
        "repro_chaos_faults_total",
        "Datagram faults injected by the chaos transport",
        label_names=("action",))


class DatagramFaultInjector:
    """Per-channel fault decisions, deterministic in (plan, key, index).

    Not thread-safe by itself; :class:`ChaosChannel` serialises calls.
    """

    def __init__(self, plan: FaultPlan, key: str) -> None:
        self.plan = plan
        # Mix the channel name into the seed so two channels under one plan
        # draw independent (but individually reproducible) fault sequences.
        self._rng = Random((plan.seed & 0xFFFFFFFF) << 32
                           ^ zlib.crc32(key.encode("utf-8")))
        self._index = 0
        self._held: Optional[bytes] = None

    @property
    def index(self) -> int:
        """Datagrams seen so far (the offset of the *next* send)."""
        return self._index

    def process(self, payload: bytes):
        """Decide one datagram's fate.

        Returns ``(sends, faults, delay_s)``: the payloads to hand to the
        inner channel *in order*, the ``(action, offset)`` faults applied
        (both tuples), and seconds to sleep before sending (latency/stall
        injection).
        """
        plan = self.plan
        offset = self._index
        self._index += 1
        # Fixed draw order, consumed whether or not each fault triggers:
        # changing one probability never shifts another fault's sequence.
        # (A draw is in [0, 1), so a zero probability never triggers.)
        draw = self._rng.random
        drop = draw() < plan.drop_p or offset in plan.drop_offsets
        duplicate = (draw() < plan.duplicate_p
                     or offset in plan.duplicate_offsets)
        reorder = draw() < plan.reorder_p or offset in plan.reorder_offsets
        corrupt = draw() < plan.corrupt_p or offset in plan.corrupt_offsets
        if not (drop or duplicate or reorder or corrupt
                or self._held is not None or plan.stall_offset == offset):
            return (payload,), (), plan.delay_s  # no fault touches it

        delay_s = plan.delay_s
        faults: List[Tuple[str, int]] = []
        if plan.stall_offset == offset and plan.stall_s > 0:
            faults.append(("stall", offset))
            delay_s += plan.stall_s

        # The previously held datagram (if any) goes out *after* whatever
        # this call emits — that completes the adjacent swap.
        flush, self._held = self._held, None
        sends: List[bytes] = []
        if drop:
            faults.append(("drop", offset))
        else:
            data = payload
            if corrupt and len(payload):
                data = self._corrupt(payload, offset)
                faults.append(("corrupt", offset))
            if reorder:
                self._held = data
                faults.append(("reorder", offset))
            else:
                sends.append(data)
            if duplicate:
                sends.append(data)
                faults.append(("duplicate", offset))
        if flush is not None:
            sends.append(flush)
        return tuple(sends), tuple(faults), delay_s

    def flush(self) -> Optional[bytes]:
        """Release a datagram still held for reordering (on channel close)."""
        held, self._held = self._held, None
        return held

    @staticmethod
    def _corrupt(payload: bytes, offset: int) -> bytes:
        """Flip one byte, at a position derived from the datagram offset."""
        mutated = bytearray(payload)
        mutated[offset % len(mutated)] ^= 0xFF
        return bytes(mutated)


class ChaosChannel(DatagramChannel):
    """A datagram channel that injects the plan's faults on send.

    Membership, delivery and unicast go straight to the wrapped channel;
    only the multicast send path (``send``/``send_many``) passes through
    the injector.  Faults are decided under one lock so concurrent senders
    see a single, well-ordered fault sequence.
    """

    def __init__(self, inner: DatagramChannel, plan: FaultPlan) -> None:
        super().__init__(inner.name)
        self.inner = inner
        self.plan = plan
        self._injector = DatagramFaultInjector(plan, inner.name)
        self._send_lock = threading.Lock()
        self._counter = _fault_counter()
        self._action_counters: Dict[str, Counter] = {}  # child per action seen
        # The plan is frozen: its event text is rendered once, not per fault.
        self._plan_text = plan.describe()

    # -- membership (delegated) ------------------------------------------------

    def join(self, member: str, **options) -> DatagramReceiver:
        return self.inner.join(member, **options)

    def leave(self, member: str) -> None:
        self.inner.leave(member)

    def members(self) -> List[str]:
        return self.inner.members()

    def local_receivers(self) -> List[DatagramReceiver]:
        return self.inner.local_receivers()

    # -- send path -------------------------------------------------------------

    def _record_faults(self, faults) -> None:
        log = get_event_log()
        counters = self._action_counters
        for action, offset in faults:
            counter = counters.get(action)
            if counter is None:
                counter = counters[action] = self._counter.labels(action=action)
            counter.inc()
            log.emit(EVENT_CHAOS_FAULT, channel=self.name, action=action,
                     offset=offset, plan=self._plan_text)

    def _forward(self, outbox: List[bytes]) -> int:
        """Hand the decided survivors to the inner channel, accounted."""
        if not outbox:
            return 0
        delivered = self.inner.send_many(outbox)
        self.packets_sent += len(outbox)
        self.bytes_sent += sum(map(len, outbox))
        return delivered

    def send(self, data: bytes) -> int:
        # One datagram is a batch of one; it targeted the membership.
        return len(self.members()) if self.send_many((data,)) else 0

    def send_many(self, payloads) -> int:
        """Decide the whole batch under one lock hold, forward it as one.

        The injector sees the datagrams one by one, so the draw order, the
        fault events and the counters are those of a loop of :meth:`send`;
        only the survivors travel together, through one inner
        ``send_many``.  A delay or stall first flushes what is already
        decided, so wire order and timing are kept.  Returns the payloads
        that reached (or, dropped or held back, targeted) a member.
        """
        survivors = silenced = forwarded = 0
        outbox: List[bytes] = []
        with self._send_lock:
            process = self._injector.process
            for payload in payloads:
                sends, faults, delay_s = process(payload)
                if faults:
                    self._record_faults(faults)
                if delay_s > 0:
                    forwarded += self._forward(outbox)
                    outbox = []
                    time.sleep(delay_s)
                if sends:
                    survivors += 1
                    outbox.extend(sends)
                else:
                    silenced += 1
            forwarded += self._forward(outbox)
        # A dropped datagram still "targeted" the membership — callers use
        # the return value for fan-out accounting, not delivery receipts.
        if silenced and not self.members():
            silenced = 0
        return min(survivors, forwarded) + silenced

    def send_to(self, member: str, data: bytes) -> bool:
        # Unicast is the repair/control path (e.g. FEC retransmissions);
        # chaos applies to the broadcast data plane only.
        return self.inner.send_to(member, data)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        with self._send_lock:
            held = self._injector.flush()
            if held is not None:
                # Never lose the reorder-held datagram to a close racing
                # the swap; it simply arrives last.
                self.inner.send(held)
                self._account(len(held))
        self.inner.close()
        super().close()

    def __getattr__(self, name: str):
        # Transport-specific extras (e.g. UDP's address accessors) pass
        # through so the wrapper stays drop-in for any inner channel.
        return getattr(self.inner, name)


class ChaosTransport(Transport):
    """Wrap any registered transport with fault injection.

    Selected as ``chaos:<inner>`` through the transport registry, or
    implicitly for any transport when ``REPRO_CHAOS`` is set (see
    :func:`repro.transport.base.get_transport`).  The plan defaults to
    :meth:`FaultPlan.from_env`.
    """

    def __init__(self, inner: Transport,
                 plan: Optional[FaultPlan] = None) -> None:
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan.from_env()
        self.name = f"chaos:{inner.name}"
        self._channels: Dict[str, ChaosChannel] = {}
        self._lock = threading.Lock()

    def open_channel(self, name: str = "default", **options) -> DatagramChannel:
        inner_channel = self.inner.open_channel(name, **options)
        if not self.plan.active:
            # An empty plan is a strict passthrough — no wrapper object,
            # no per-send overhead, byte-identical behaviour.
            return inner_channel
        with self._lock:
            channel = self._channels.get(name)
            if channel is None or channel.inner is not inner_channel:
                channel = ChaosChannel(inner_channel, self.plan)
                self._channels[name] = channel
            return channel

    def listen(self, address=None):
        return self.inner.listen(address)

    def connect(self, address):
        return self.inner.connect(address)

    def close(self) -> None:
        with self._lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for channel in channels:
            try:
                channel.close()
            except Exception:  # noqa: BLE001 - best effort teardown
                pass
        self.inner.close()

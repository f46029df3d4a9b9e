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
        """Decide one datagram's fate: :meth:`process_many` of one.

        Returns ``(sends, faults, delay_s)``: the payloads to hand to the
        inner channel *in order*, the ``(action, offset)`` faults applied
        (both tuples), and seconds to sleep before sending (latency/stall
        injection).
        """
        sends, faults, pauses, _silenced = self.process_many((payload,))
        return (tuple(sends), tuple(faults),
                pauses[0][2] if pauses else self.plan.delay_s)

    def process_many(self, payloads):
        """Decide a batch of datagrams' fates, one after the other.

        Returns ``(sends, faults, pauses, silenced)``: every payload to hand
        to the inner channel, in order; every ``(action, offset)`` fault
        applied, in order; one ``(sends before it, faults through it,
        seconds)`` per datagram that must wait (latency/stall injection) —
        the sends before it go out and the faults up to and including its
        own are recorded first, then it sleeps; and the number of datagrams
        that put nothing on the wire.
        """
        plan = self.plan
        drop_p, drop_at = plan.drop_p, plan.drop_offsets
        duplicate_p, duplicate_at = plan.duplicate_p, plan.duplicate_offsets
        reorder_p, reorder_at = plan.reorder_p, plan.reorder_offsets
        corrupt_p, corrupt_at = plan.corrupt_p, plan.corrupt_offsets
        delay, stall = plan.delay_s, plan.stall_offset
        draw = self._rng.random
        offset, held = self._index, self._held
        sends: List[bytes] = []
        faults: List[Tuple[str, int]] = []
        pauses: List[Tuple[int, int, float]] = []
        silenced = 0
        try:
            for payload in payloads:
                # Fixed draw order, consumed whether or not each fault
                # triggers: changing one probability never shifts another
                # fault's sequence.  (A draw is in [0, 1), so a zero
                # probability never triggers.)
                drop = draw() < drop_p or offset in drop_at
                duplicate = draw() < duplicate_p or offset in duplicate_at
                reorder = draw() < reorder_p or offset in reorder_at
                corrupt = draw() < corrupt_p or offset in corrupt_at
                if not (drop or duplicate or reorder or corrupt
                        or held is not None or stall == offset):
                    # No fault touches it.
                    if delay > 0:
                        pauses.append((len(sends), len(faults), delay))
                    sends.append(payload)
                    offset += 1
                    continue

                before = len(sends)
                delay_s = delay
                if stall == offset and plan.stall_s > 0:
                    faults.append(("stall", offset))
                    delay_s += plan.stall_s
                # The previously held datagram (if any) goes out *after*
                # whatever this datagram emits — that completes the
                # adjacent swap.
                flush, held = held, None
                if drop:
                    faults.append(("drop", offset))
                else:
                    data = payload
                    if corrupt and len(payload):
                        data = self._corrupt(payload, offset)
                        faults.append(("corrupt", offset))
                    if reorder:
                        held = data
                        faults.append(("reorder", offset))
                    else:
                        sends.append(data)
                    if duplicate:
                        sends.append(data)
                        faults.append(("duplicate", offset))
                if flush is not None:
                    sends.append(flush)
                if len(sends) == before:
                    silenced += 1
                if delay_s > 0:
                    pauses.append((before, len(faults), delay_s))
                offset += 1
        finally:
            self._index, self._held = offset, held
        return sends, faults, pauses, silenced

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

        One injector call decides it (:meth:`DatagramFaultInjector.process_many`).
        The draw order, the fault events and the counters are those of a
        loop of :meth:`send`; only the survivors travel together, through
        one inner ``send_many``.  A delay or stall first flushes what is
        already decided, so wire order and timing are kept.  Returns the
        payloads that reached (or, dropped or held back, targeted) a member.
        """
        forwarded = 0
        with self._send_lock:
            injector = self._injector
            first = injector.index
            sends, faults, pauses, silenced = injector.process_many(payloads)
            survivors = injector.index - first - silenced
            sent = recorded = 0
            for at, upto, delay_s in pauses:
                self._record_faults(faults[recorded:upto])
                forwarded += self._forward(sends[sent:at])
                sent, recorded = at, upto
                time.sleep(delay_s)
            if faults:
                self._record_faults(faults[recorded:])
            forwarded += self._forward(sends[sent:] if sent else sends)
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

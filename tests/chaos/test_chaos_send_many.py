"""``ChaosChannel.send_many`` against the loop of ``send`` it replaces.

For one (plan, channel name, payload sequence) the batched send must leave
the receiver the same wire sequence, the event log the same ``chaos-fault``
records in the same order, ``repro_chaos_faults_total`` the same counts and
the caller the same return value — however the sequence is cut into batches.
"""

from types import SimpleNamespace

import pytest

from repro.chaos import ChaosTransport, FaultPlan
from repro.chaos import transport as chaos_transport
from repro.chaos.transport import DatagramFaultInjector
from repro.obs.events import EVENT_CHAOS_FAULT, get_event_log
from repro.obs.metrics import default_registry
from repro.transport import LoopbackTransport, TransportError

ACTIONS = ("drop", "duplicate", "reorder", "corrupt", "stall")

PLANS = {
    "seeded-mix": FaultPlan(seed=99, drop_p=0.2, duplicate_p=0.1,
                            reorder_p=0.15, corrupt_p=0.1),
    "offsets": FaultPlan(seed=3, drop_offsets=(0, 7, 63), reorder_offsets=(5, 64),
                         duplicate_offsets=(6, 7), corrupt_offsets=(1, 70)),
    "drop-only": FaultPlan(seed=11, drop_p=0.10),
    "delay-and-stall": FaultPlan(seed=5, drop_p=0.1, reorder_p=0.2,
                                 delay_s=0.0002, stall_offset=9,
                                 stall_s=0.02),
    "reorder-last": FaultPlan(seed=1, reorder_offsets=(99,)),
    "all-five-kinds": FaultPlan(seed=24, drop_p=0.1, duplicate_p=0.1,
                                reorder_p=0.1, corrupt_p=0.1,
                                stall_offset=40, stall_s=0.002),
}

PAYLOADS = [bytes([i]) * (16 + i % 5) for i in range(100)]


def _counts():
    counter = default_registry().counter(
        "repro_chaos_faults_total",
        "Datagram faults injected by the chaos transport",
        label_names=("action",))
    return {action: counter.labels(action=action).value for action in ACTIONS}


def _run(plan, split, members=("r",)):
    """Send PAYLOADS cut into batches of ``split`` (0: a loop of ``send``)."""
    log = get_event_log()
    log.clear()
    before = _counts()
    transport = ChaosTransport(LoopbackTransport(), plan)
    try:
        channel = transport.open_channel("wlan")
        receivers = [channel.join(member) for member in members]
        returned = []
        if split == 0:
            returned = [1 if channel.send(p) > 0 else 0 for p in PAYLOADS]
            returned = [sum(returned)]
        else:
            for start in range(0, len(PAYLOADS), split):
                returned.append(
                    channel.send_many(PAYLOADS[start:start + split]))
        sent = (channel.packets_sent, channel.bytes_sent,
                channel.inner.packets_sent, channel.inner.bytes_sent)
        channel.close()
        wire = [receiver.take() for receiver in receivers]
    finally:
        transport.close()
    events = [(r["action"], r["offset"], r["channel"], r["plan"])
              for r in log.records(event=EVENT_CHAOS_FAULT)]
    after = _counts()
    faults = {action: after[action] - before[action] for action in ACTIONS}
    return wire, events, faults, sum(returned), sent


@pytest.mark.parametrize("split", [1, 7, 64])
@pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
def test_send_many_is_a_loop_of_send(plan, split):
    assert _run(plan, split) == _run(plan, 0)


@pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
def test_the_injector_alone_predicts_the_batched_send(plan):
    """An oracle that shares no code with the channel's send path."""
    injector = DatagramFaultInjector(plan, "wlan")
    wire, events = [], []
    for payload in PAYLOADS:
        sends, faults, _delay_s = injector.process(payload)
        wire.extend(sends)
        events.extend((action, offset, "wlan", plan.describe())
                      for action, offset in faults)
    held = injector.flush()
    if held is not None:
        wire.append(held)
    got_wire, got_events, got_faults, returned, sent = _run(plan, 64)
    assert got_wire == [wire]
    assert got_events == events
    assert got_faults == {action: sum(1 for event in events
                                      if event[0] == action)
                          for action in ACTIONS}
    assert returned == len(PAYLOADS)
    # The held datagram's flush at close is sent outside this reading.
    on_wire = wire if held is None else wire[:-1]
    assert sent == (len(on_wire), sum(map(len, on_wire))) * 2


def test_the_plans_do_inject_every_kind_of_fault():
    _wire, events, faults, _returned, _sent = _run(PLANS["seeded-mix"], 64)
    assert all(faults[action] > 0
               for action in ("drop", "duplicate", "reorder", "corrupt"))
    assert [offset for _action, offset, _c, _p in events] \
        == sorted(offset for _action, offset, _c, _p in events)
    assert _run(PLANS["delay-and-stall"], 64)[2]["stall"] == 1


def test_one_counter_increment_and_one_event_per_fault_of_every_kind(
        monkeypatch):
    """With all five kinds firing, ``repro_chaos_faults_total{action}`` and
    the ``chaos-fault`` events agree per action, and the channel asks the
    counter family for each action's child once, not once per fault."""
    family = chaos_transport._fault_counter()
    asked = []
    real_labels = family.labels
    monkeypatch.setattr(family, "labels", lambda **labels: (
        asked.append(labels["action"]), real_labels(**labels))[1])
    plan = PLANS["all-five-kinds"]
    log = get_event_log()
    log.clear()
    before = {action: real_labels(action=action).value for action in ACTIONS}
    transport = ChaosTransport(LoopbackTransport(), plan)
    try:
        channel = transport.open_channel("wlan")
        channel.join("r")
        for start in range(0, len(PAYLOADS), 16):
            channel.send_many(PAYLOADS[start:start + 16])
    finally:
        transport.close()
    counted = {action: real_labels(action=action).value - before[action]
               for action in ACTIONS}
    events = log.records(event=EVENT_CHAOS_FAULT)
    assert counted == {action: sum(1 for r in events if r["action"] == action)
                       for action in ACTIONS}
    assert all(counted[action] > 0 for action in ACTIONS)
    assert counted["stall"] == 1 and sum(counted.values()) > len(ACTIONS)
    assert sorted(asked) == sorted(ACTIONS)
    for record in events:
        assert set(record) == {"ts", "event", "stream", "cid", "channel",
                               "action", "offset", "plan"}
        assert (record["channel"], record["plan"], record["stream"],
                record["cid"]) == ("wlan", plan.describe(), "", "")


def test_every_member_sees_the_same_wire_sequence():
    wire, *_ = _run(PLANS["seeded-mix"], 7, members=("a", "b", "c"))
    assert wire[0] == wire[1] == wire[2] != []


def test_without_members_nothing_counts_as_delivered():
    assert _run(PLANS["drop-only"], 64, members=())[3] == 0
    assert _run(PLANS["drop-only"], 0, members=())[3] == 0


def test_a_stall_flushes_what_was_decided_before_sleeping(monkeypatch):
    """The datagrams before the stalled one are on the wire during the stall."""
    arrivals, on_wire_at_sleep = [], []
    monkeypatch.setattr(chaos_transport, "time", SimpleNamespace(
        sleep=lambda seconds: on_wire_at_sleep.append((seconds,
                                                       len(arrivals)))))
    plan = FaultPlan(seed=0, stall_offset=3, stall_s=0.2)
    transport = ChaosTransport(LoopbackTransport(), plan)
    try:
        channel = transport.open_channel("wlan")
        channel.join("r", on_receive=arrivals.append)
        channel.send_many(PAYLOADS[:6])
    finally:
        transport.close()
    assert on_wire_at_sleep == [(0.2, 3)]
    assert arrivals == PAYLOADS[:6]


def test_send_after_close_still_raises():
    transport = ChaosTransport(LoopbackTransport(),
                               FaultPlan(seed=0, duplicate_offsets=(0,)))
    try:
        channel = transport.open_channel("wlan")
        channel.join("r")
        channel.inner.close()
        with pytest.raises(TransportError):
            channel.send_many([b"late"])
    finally:
        transport.close()

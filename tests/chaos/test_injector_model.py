"""``DatagramFaultInjector.process`` against a per-datagram reference model.

The model below is the specification written out the slow way: four draws
per datagram in a fixed order, every fault decided independently, lists
built for every datagram whether or not a fault touches it.  The injector
may take any shortcut it likes as long as, for the same (plan, channel key,
payload sequence), it returns the same ``(sends, faults, delay_s)`` for
every datagram, holds the same datagram at close, and leaves its random
generator in the same position.
"""

import zlib
from random import Random

import pytest

from repro.chaos import DatagramFaultInjector, FaultPlan


class ModelInjector:
    """What the chaos plane promises, one datagram at a time."""

    def __init__(self, plan, key):
        self.plan = plan
        self.rng = Random((plan.seed & 0xFFFFFFFF) << 32
                          ^ zlib.crc32(key.encode("utf-8")))
        self.index = 0
        self.held = None

    def process(self, payload):
        plan, offset = self.plan, self.index
        self.index += 1
        draws = [self.rng.random() for _ in range(4)]
        drop = draws[0] < plan.drop_p or offset in plan.drop_offsets
        duplicate = draws[1] < plan.duplicate_p \
            or offset in plan.duplicate_offsets
        reorder = draws[2] < plan.reorder_p or offset in plan.reorder_offsets
        corrupt = draws[3] < plan.corrupt_p or offset in plan.corrupt_offsets

        faults, sends, delay_s = [], [], plan.delay_s
        if plan.stall_offset == offset and plan.stall_s > 0:
            faults.append(("stall", offset))
            delay_s += plan.stall_s
        released, self.held = self.held, None
        if drop:
            faults.append(("drop", offset))
        else:
            data = payload
            if corrupt and payload:
                flipped = bytearray(payload)
                flipped[offset % len(flipped)] ^= 0xFF
                data = bytes(flipped)
                faults.append(("corrupt", offset))
            if reorder:
                self.held = data
                faults.append(("reorder", offset))
            else:
                sends.append(data)
            if duplicate:
                sends.append(data)
                faults.append(("duplicate", offset))
        if released is not None:
            sends.append(released)
        return sends, faults, delay_s


def _payloads(count):
    rng = Random(5)
    # Including empty datagrams: there is no byte to corrupt in those.
    return [rng.randbytes(rng.randrange(0, 48)) for _ in range(count)]


PLANS = {
    "all-kinds": FaultPlan(
        seed=2024, drop_p=0.08, duplicate_p=0.05, reorder_p=0.07,
        corrupt_p=0.06, drop_offsets=(3, 500, 9_998),
        duplicate_offsets=(3, 4, 7_000), reorder_offsets=(10, 11, 9_999),
        corrupt_offsets=(0, 4, 500), delay_s=0.001, stall_offset=1_234,
        stall_s=0.5),
    "drop-only": FaultPlan(seed=7, drop_p=0.10),
    "held-at-close": FaultPlan(seed=1, reorder_offsets=(9_999,)),
    "certain": FaultPlan(seed=3, drop_p=1.0, duplicate_p=1.0, reorder_p=1.0,
                         corrupt_p=1.0),
    "stall-without-duration": FaultPlan(seed=4, duplicate_p=0.5,
                                        stall_offset=5, stall_s=0.0),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_ten_thousand_datagrams_match_the_model(name):
    plan = PLANS[name]
    injector = DatagramFaultInjector(plan, "wlan-0")
    model = ModelInjector(plan, "wlan-0")
    kinds = set()
    for offset, payload in enumerate(_payloads(10_000)):
        sends, faults, delay_s = injector.process(payload)
        expected = model.process(payload)
        assert (list(sends), list(faults), delay_s) == expected, offset
        assert injector.index == model.index
        kinds.update(action for action, _offset in faults)
    assert injector.flush() == model.held
    assert injector.flush() is None
    # Same number of draws taken, in the same order: the generators agree
    # on everything that comes next.
    assert injector._rng.getstate() == model.rng.getstate()
    if name == "all-kinds":
        assert kinds == {"drop", "duplicate", "reorder", "corrupt", "stall"}
        assert model.held is not None  # offset 9 999 is held at close
    if name == "stall-without-duration":
        assert "stall" not in kinds


def test_the_channel_key_and_the_seed_choose_the_sequence():
    plan = PLANS["all-kinds"]
    payloads = _payloads(500)

    def timeline(plan, key):
        injector = DatagramFaultInjector(plan, key)
        return [injector.process(p)[1] for p in payloads]

    assert timeline(plan, "a") == timeline(plan, "a")
    assert timeline(plan, "a") != timeline(plan, "b")
    other_seed = FaultPlan.from_dict({**plan.to_dict(), "seed": plan.seed + 1})
    assert timeline(plan, "a") != timeline(other_seed, "a")

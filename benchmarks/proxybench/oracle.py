"""Reference oracles: what a correct proxy delivers, computed independently.

Two pieces, both of which *count* deviations rather than assert, so one bad
unit becomes one failed unit in the result instead of an aborted run:

* :class:`SequenceChecker` — fed the sequence stamp of every delivered
  unit, it classifies each as in-order, late (reordered), duplicate, or a
  gap (loss);
* :func:`expected_fec_delivery` — the set of source packets the
  ``fec_lossy_relay`` workload must deliver for a given seed and packet
  count: the chaos drop pattern replayed through ``DatagramFaultInjector``
  plus the "any k of n arrived" rule and the decoder's documented tracking
  window.

The only thing imported from the program is the fault injector: the drop
pattern *is* the input, and replaying it is how the input is regenerated.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Set, Tuple

#: Every unit the benchmark generates starts with this stamp: a sequence
#: number and the monotonic-clock instant (ns) the unit was created or, in
#: the open-loop workload, was *due* to be sent.
STAMP = struct.Struct(">QQ")


#: A forward jump larger than this is a garbled stamp, not a loss burst.
MAX_GAP = 1 << 20


class SequenceChecker:
    """Classify delivered sequence numbers against ``0, 1, 2, ...``."""

    def __init__(self) -> None:
        self.next_expected = 0
        self.delivered = 0
        self.duplicates = 0
        #: Stamps too far ahead to be a real gap (a corrupted or misplaced
        #: unit); counted, never expanded into ``missing``.
        self.implausible = 0
        #: Sequence numbers skipped so far and not (yet) delivered late.
        self.missing: Set[int] = set()
        #: Sequence numbers that arrived after a later one.
        self.late: List[int] = []

    def observe(self, seq: int) -> None:
        """Account for one delivered unit."""
        expected = self.next_expected
        if seq == expected:
            self.next_expected = expected + 1
            self.delivered += 1
        elif seq - expected > MAX_GAP:
            self.implausible += 1
        elif seq > expected:
            self.missing.update(range(expected, seq))
            self.next_expected = seq + 1
            self.delivered += 1
        elif seq in self.missing:
            self.missing.discard(seq)
            self.late.append(seq)
            self.delivered += 1
        else:
            self.duplicates += 1

    def verdict(self, emitted: int, expected_missing: Iterable[int] = (),
                expected_late: Iterable[int] = ()) -> Dict[str, int]:
        """Compare what was delivered with what the reference expects.

        ``emitted`` is the number of units the source generated;
        ``expected_missing`` the sequence numbers the reference says can
        never arrive and ``expected_late`` those it says arrive out of
        order.  Returns the failure counts and their sum.
        """
        missing = set(self.missing)
        missing.update(range(self.next_expected, emitted))
        expected_missing = set(expected_missing)
        lost = len(missing - expected_missing)
        unexpected = len(expected_missing - missing)
        phantom = max(0, self.next_expected - emitted)
        reordered = len(set(self.late) ^ set(expected_late))
        return {
            "lost": lost,
            "unexpected": unexpected + phantom,
            "duplicated": self.duplicates,
            "reordered": reordered,
            "garbled": self.implausible,
            "failed": (lost + unexpected + phantom + self.duplicates
                       + reordered + self.implausible),
            "expected_units": emitted - len(expected_missing),
        }


def expected_fec_delivery(seed: int, drop_p: float, channel: str,
                          packets: int, k: int, n: int,
                          tracked_groups: int) -> Tuple[Set[int], Set[int]]:
    """Reference delivery for ``packets`` source packets through (n, k) FEC.

    Returns ``(missing, late)``.  A full group whose surviving packets
    number at least ``k`` delivers all ``k`` payloads in order.  A group
    with fewer survivors cannot be decoded: the data packets of such a
    group that did arrive are surrendered only at end of stream (late),
    and only while the decoder still tracks the group — it remembers the
    newest ``tracked_groups`` groups.  ``packets`` must be a whole number
    of groups (the workload's feed emits whole blocks).
    """
    if packets % k:
        raise ValueError(f"{packets} packets is not a whole number of groups")
    from repro.chaos import DatagramFaultInjector, FaultPlan

    injector = DatagramFaultInjector(FaultPlan(seed=seed, drop_p=drop_p),
                                     channel)

    def survives() -> bool:
        sends, _faults, _delay = injector.process(b"\x00")
        return bool(sends)

    arrivals = [[survives() for _ in range(n)] for _ in range(packets // k)]

    # The decoder only learns of a group when one of its packets arrives.
    seen = [group for group, arrived in enumerate(arrivals) if any(arrived)]
    tracked_at_flush = set(seen[-tracked_groups:])
    decodable = [group for group in seen if sum(arrivals[group]) >= k]
    last_in_order = decodable[-1] if decodable else -1

    missing: Set[int] = set()
    late: Set[int] = set()
    for group, arrived in enumerate(arrivals):
        if sum(arrived) >= k:
            continue
        for index in range(k):
            seq = group * k + index
            if not (arrived[index] and group in tracked_at_flush):
                missing.add(seq)
            elif group < last_in_order:
                late.add(seq)  # surrendered at end of stream, out of order
    return missing, late

"""Unit tests for the harness's statistics and reference oracles."""

from __future__ import annotations

import statistics

import pytest

from . import oracle, stats


# ------------------------------------------------------------- percentiles


def test_percentile_interpolates_and_rejects_empty():
    assert stats.percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert stats.percentile([10, 20], 0.25) == 12.5
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize("count,q,expected", [
    (200, 0.95, True), (199, 0.95, False),
    (1000, 0.99, True), (999, 0.99, False), (20, 0.50, True),
])
def test_percentile_needs_ten_samples_beyond(count, q, expected):
    assert stats.percentile_supported(count, q) is expected


def test_summarize_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
    summary = stats.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary == {"median": statistics.median(values), "q1": q1,
                       "q3": q3, "n": 10}
    assert stats.summarize([2.0, 6.0])["q1"] == 2.0  # too few: min and max


# -------------------------------------------------------- calibration gate


def test_gate_keeps_a_measurement_only_when_its_brackets_agree():
    assert stats.undisturbed(1250.0, 1300.0)
    assert stats.undisturbed(2100.0, 2000.0)       # slow but steady: kept
    assert not stats.undisturbed(1250.0, 1400.0)   # state changed under it
    assert stats.select_undisturbed(
        [(1250, 1260), (1260, 2100), (2100, 2150), (2150, 1300)]) == [0, 2]


def test_machine_factor_scales_by_the_workloads_sensitivity():
    assert stats.machine_factor(1250, 1250, 1250, 0.85) == 1.0
    # The kernel reads 1.7x slower; a workload of sensitivity 0.85 slowed by
    # 1.7 ** 0.85, one that is immune (0) not at all.
    assert stats.machine_factor(2125, 2125, 1250, 0.85) == pytest.approx(
        1.7 ** 0.85)
    assert stats.machine_factor(2125, 2125, 1250, 0.0) == 1.0
    # A window timed on the slow machine, brought back to reference speed,
    # reads what the same work read on the fast one.
    fast_mib_s, slowdown = 2900.0, 1.7 ** 0.85
    slow_mib_s = fast_mib_s / slowdown
    assert slow_mib_s * stats.machine_factor(
        2100, 2150, 1250, 0.85) == pytest.approx(fast_mib_s, rel=0.01)


def test_retries_are_bounded_and_counted():
    outcomes = iter([([1], []), ([2], []), ([3], [3]), ([4], [4])])
    everything, kept, disturbed = stats.run_with_retries(
        lambda: next(outcomes), wanted=1, planned=2, max_extra=5)
    assert (everything, kept, disturbed) == ([1, 2, 3], [3], 2)

    calls = []

    def never_good():
        calls.append(1)
        return [0], []

    _, kept, disturbed = stats.run_with_retries(never_good, wanted=1,
                                                planned=2, max_extra=2)
    assert (len(calls), kept, disturbed) == (4, [], 4)


def test_interleave_order():
    assert list(stats.interleave("ABCD", 2)) == list("ABCDABCD")


# ---------------------------------------------------------------- verdicts


def _summary(values):
    return stats.summarize(values)


def test_spread_wider_than_bound_is_unresolved_not_unchanged():
    tight = _summary([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    wide = _summary([100, 140, 70, 100, 130, 75, 100, 120, 80, 100])
    assert stats.spread_verdict(tight, tight, 0.10, "higher") == "within-bound"
    assert stats.spread_verdict(tight, wide, 0.10, "higher") == "unresolved"
    slower = _summary([v * 0.8 for v in
                       [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]])
    assert stats.spread_verdict(tight, slower, 0.10, "higher") == "regressed"
    assert stats.spread_verdict(tight, slower, 0.10, "lower") == "within-bound"


def test_pair_verdict_needs_nine_wins_and_a_gap_beyond_the_base_spread():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    clearly_faster = [v * 1.2 for v in base]
    assert stats.pair_verdict(base, clearly_faster, 0.10,
                              "higher") == "improved"
    # Wins every pair, but by less than the base's own interquartile range.
    hair_faster = [v + 0.5 for v in base]
    assert stats.pair_verdict(base, hair_faster, 0.10,
                              "higher") == "within-bound"
    # A big median gain that loses three pairs in ten is not a gain.
    mixed = [v * 1.2 for v in base[:7]] + [v * 0.99 for v in base[7:]]
    assert stats.pair_verdict(base, mixed, 0.10, "higher") == "within-bound"
    assert stats.pair_verdict(base, [v * 0.8 for v in base], 0.10,
                              "higher") == "regressed"
    assert stats.pair_verdict(base, [v * 0.8 for v in base], 0.10,
                              "lower") == "improved"


def test_pair_verdict_with_noisy_base_resolves_only_on_a_clean_sweep():
    noisy = [100, 140, 70, 100, 130, 75, 100, 120, 80, 100]
    assert stats.pair_verdict(noisy, [v * 1.1 for v in noisy], 0.10,
                              "higher") == "unresolved"
    assert stats.pair_verdict(noisy, [200 + v for v in noisy], 0.10,
                              "higher") == "improved"
    assert stats.pair_verdict(noisy, [v / 10 for v in noisy], 0.10,
                              "higher") == "regressed"


# ----------------------------------------------------------------- oracles


def test_sequence_checker_counts_loss_reorder_and_duplicates():
    checker = oracle.SequenceChecker()
    for seq in [0, 1, 2, 5, 6, 3, 6, 7, 2]:
        checker.observe(seq)
    assert checker.missing == {4}
    assert checker.late == [3]
    assert checker.duplicates == 2
    verdict = checker.verdict(emitted=10)
    assert verdict["lost"] == 3          # 4, and the tail 8, 9
    assert verdict["reordered"] == 1
    assert verdict["duplicated"] == 2
    assert verdict["failed"] == 6
    # The same delivery, when the reference expects exactly that:
    assert checker.verdict(10, expected_missing={4, 8, 9},
                           expected_late={3})["failed"] == 2  # duplicates


def test_sequence_checker_flags_what_the_reference_says_cannot_arrive():
    checker = oracle.SequenceChecker()
    for seq in range(6):
        checker.observe(seq)
    verdict = checker.verdict(6, expected_missing={2})
    assert verdict["unexpected"] == 1 and verdict["expected_units"] == 5


def test_sequence_checker_does_not_expand_a_garbled_stamp():
    checker = oracle.SequenceChecker()
    checker.observe(0)
    checker.observe(1 << 40)
    assert checker.implausible == 1 and not checker.missing
    assert checker.verdict(1)["failed"] == 1


def test_expected_fec_delivery_replays_the_seeded_drop_pattern():
    from repro.chaos import DatagramFaultInjector, FaultPlan
    from repro.fec import FecGroupDecoder, FecGroupEncoder

    seed, packets, k, n = 11, 4000, 4, 6
    missing, late = oracle.expected_fec_delivery(
        seed, 0.10, "relay", packets, k, n, tracked_groups=64)
    assert missing and late and not missing & late
    assert oracle.expected_fec_delivery(
        seed, 0.10, "relay", packets, k, n, tracked_groups=64) == (missing,
                                                                   late)

    # Cross-check against the program's own encoder, channel and decoder.
    injector = DatagramFaultInjector(FaultPlan(seed=seed, drop_p=0.10),
                                     "relay")
    encoder = FecGroupEncoder(k, n)
    decoder = FecGroupDecoder(max_tracked_groups=64)
    checker = oracle.SequenceChecker()
    payloads = [seq.to_bytes(8, "big") for seq in range(packets)]
    for packet in encoder.add_batch(payloads):
        sends, _faults, _delay = injector.process(packet.pack())
        if sends:
            for payload in decoder.add(packet):
                checker.observe(int.from_bytes(payload, "big"))
    for payload in decoder.flush():
        checker.observe(int.from_bytes(payload, "big"))
    assert checker.verdict(packets, missing, late)["failed"] == 0


def test_expected_fec_delivery_wants_whole_groups():
    with pytest.raises(ValueError):
        oracle.expected_fec_delivery(1, 0.1, "relay", 10, 4, 6, 64)

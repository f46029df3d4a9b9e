"""The batch paths read the same as the per-unit paths.

A pump budget now crosses a hop as one list and is measured once, by the
stream it crosses: a filter's input bytes are the DIS's delivered-byte
delta, its output bytes what the DOS counted, and a source draws a budget
from any iterable in one C-speed pass.  None of that may show: at
``pump_budget`` 64 every counter, every delivered byte and every error must
read as it does at budget 1, where each unit is drawn, transformed,
written and counted on its own — on all three engines, from a list as from
a generator, and when a transform or the source's iterator raises in the
middle of a batch.  A filter that forwards the batch it read hands the
next buffer the total its DIS counted: every counter must then read as
in the same chain with every batch measured, and a hop that frames, or a
transform that changes sizes, must never be trusted with a total.
"""

import threading

import pytest

import repro.core.filter as filter_module
from repro.core import CollectorSink, ControlThread, Filter, IterableSource
from repro.filters import (ByteCounterFilter, PacketTapFilter,
                           PassthroughFilter, UppercaseFilter)
from repro.streams import StreamBuffer, encode_frame

ENGINES = ["threaded", "event", "asyncio"]
BUDGETS = [1, 64]

#: 300 chunks of 1..150 bytes (about 22 KiB), each one recognisable.
CHUNKS = [bytes([index % 251]) * (1 + index * 7 % 150) for index in range(300)]


def _comparable(stats):
    """Counters that must not depend on the budget.  ``budget_exhausted``
    counts full pump steps, which *is* the budget's business."""
    return {key: value for key, value in stats.items()
            if key != "budget_exhausted"}


class Doubler(Filter):
    """Per-chunk ``transform`` (the base ``transform_chunks`` loop): every
    chunk out twice, so output accounting differs from input accounting."""

    def transform(self, chunk):
        return [chunk, chunk]


class ExplodesOn(Filter):
    """Passes chunks through, and raises on the ``index``-th it is given."""

    def __init__(self, index, **kwargs):
        super().__init__(**kwargs)
        self.index = index
        self.seen = 0

    def transform(self, chunk):
        self.seen += 1
        if self.seen - 1 == self.index:
            raise RuntimeError("transform exploded")
        return chunk


def _run_chain(engine, budget, monkeypatch, items, filters):
    """Run ``items`` through ``filters``; the sink and the final snapshot."""
    monkeypatch.setattr(filter_module, "DEFAULT_PUMP_BUDGET", budget)
    sink = CollectorSink(name="sink")
    control = ControlThread(IterableSource(items, name="src"), sink,
                            engine=engine, auto_start=False)
    for filter_obj in filters():
        control.add(filter_obj)
    control.start()
    try:
        assert control.wait_for_completion(timeout=15.0)
        return sink, control.snapshot(), control.filters
    finally:
        control.shutdown()


@pytest.mark.parametrize("engine", ENGINES)
def test_unframed_chain_totals_do_not_depend_on_the_budget(engine,
                                                           monkeypatch):
    def filters():
        return [PassthroughFilter(name="a"), Doubler(name="b"),
                PassthroughFilter(name="c"), PassthroughFilter(name="d")]

    runs = {}
    for budget in BUDGETS:
        # A generator at one budget's source, a list at the other's: the
        # draw must not show either.
        items = iter(CHUNKS) if budget == 64 else list(CHUNKS)
        sink, snapshot, _ = _run_chain(engine, budget, monkeypatch, items,
                                       filters)
        runs[budget] = (sink.data(), _comparable(snapshot.source_stats),
                        [_comparable(s) for s in snapshot.filter_stats],
                        _comparable(snapshot.sink_stats))
    assert runs[1] == runs[64]

    data, source, per_filter, sink_stats = runs[64]
    total = sum(map(len, CHUNKS))
    assert data == b"".join(chunk + chunk for chunk in CHUNKS)
    assert (source["chunks_out"], source["bytes_out"]) == (len(CHUNKS), total)
    assert [(s["chunks_in"], s["bytes_in"], s["chunks_out"], s["bytes_out"])
            for s in per_filter] == [
        (300, total, 300, total), (300, total, 600, 2 * total),
        (600, 2 * total, 600, 2 * total), (600, 2 * total, 600, 2 * total)]
    assert (sink_stats["chunks_in"], sink_stats["bytes_in"]) == (
        600, 2 * total)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("index", [0, 1, 63, 64, 130, 299])
def test_a_transform_raising_mid_batch_accounts_what_it_saw(engine, index,
                                                            monkeypatch):
    """Input is accounted through the chunk that raised; the outputs of
    the chunks before it are delivered, and accounted downstream."""
    runs = {}
    for budget in BUDGETS:
        sink, snapshot, filters = _run_chain(
            engine, budget, monkeypatch, iter(CHUNKS),
            lambda: [PassthroughFilter(name="before"),
                     ExplodesOn(index, name="explodes"),
                     PassthroughFilter(name="after")])
        assert isinstance(filters[1].error, RuntimeError)
        runs[budget] = (sink.data(),
                        [_comparable(s) for s in snapshot.filter_stats[1:]],
                        _comparable(snapshot.sink_stats))
    assert runs[1] == runs[64]

    data, (exploded, after), sink_stats = runs[64]
    passed = sum(map(len, CHUNKS[:index]))
    assert data == b"".join(CHUNKS[:index])
    assert (exploded["chunks_in"], exploded["bytes_in"]) == (
        index + 1, passed + len(CHUNKS[index]))
    assert (exploded["chunks_out"], exploded["bytes_out"]) == (index, passed)
    assert exploded["errors"] == 1
    assert (after["chunks_in"], after["bytes_in"],
            after["chunks_out"], after["bytes_out"]) == (
        index, passed, index, passed)
    assert (sink_stats["chunks_in"], sink_stats["bytes_in"]) == (
        index, passed)


# ------------------------------------------------- the source's bulk draw


def _raises_after(items, count):
    yield from items[:count]
    raise RuntimeError("iterator exploded")


SOURCE_CASES = {
    # name: (items, what must be delivered, the error the source ends with)
    "plain": (CHUNKS, CHUNKS, None),
    "empty-items": ([b"", b"", *CHUNKS[:70], b"", *CHUNKS[70:200], b"", b"",
                     *CHUNKS[200:], b""], CHUNKS, None),
    "none-item": ([*CHUNKS[:100], None, *CHUNKS[100:]], CHUNKS[:100], None),
    "none-first": ([None, *CHUNKS], [], None),
    "nothing": ([], [], None),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("frame_output", [False, True])
@pytest.mark.parametrize("case", sorted(SOURCE_CASES))
def test_a_generator_is_drawn_like_a_list_like_item_by_item(
        engine, frame_output, case, monkeypatch):
    items, delivered, _ = SOURCE_CASES[case]
    runs = {}
    for budget in BUDGETS:
        for kind in ("list", "generator"):
            monkeypatch.setattr(filter_module, "DEFAULT_PUMP_BUDGET", budget)
            source = IterableSource(
                list(items) if kind == "list" else (item for item in items),
                frame_output=frame_output)
            sink = CollectorSink(expect_frames=frame_output)
            control = ControlThread(source, sink, engine=engine)
            try:
                assert control.wait_for_completion(timeout=15.0)
                runs[budget, kind] = (
                    sink.items() if frame_output else sink.data(),
                    source.items_produced, source.error,
                    _comparable(control.snapshot().source_stats))
            finally:
                control.shutdown()
    assert len({repr(run) for run in runs.values()}) == 1, runs
    got, produced, error, stats = runs[64, "generator"]
    assert got == (delivered if frame_output else b"".join(delivered))
    assert produced == stats["chunks_out"] == len(delivered)
    assert error is None and stats["errors"] == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 200])
def test_items_drawn_before_the_iterator_raises_are_delivered_first(
        engine, count, monkeypatch):
    runs = {}
    for budget in BUDGETS:
        monkeypatch.setattr(filter_module, "DEFAULT_PUMP_BUDGET", budget)
        source = IterableSource(_raises_after(CHUNKS, count))
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        try:
            assert control.wait_for_completion(timeout=15.0)
            runs[budget] = (sink.data(), source.items_produced,
                            type(source.error), str(source.error),
                            _comparable(control.snapshot().source_stats))
        finally:
            control.shutdown()
    assert runs[1] == runs[64]
    data, produced, error_type, message, stats = runs[64]
    assert data == b"".join(CHUNKS[:count]) and produced == count
    assert (error_type, message) == (RuntimeError, "iterator exploded")
    assert (stats["chunks_out"], stats["errors"]) == (count, 1)


class FirstChunk(Filter):
    """Passthrough that remembers the first chunk it was given."""

    first = None

    def transform(self, chunk):
        if self.first is None:
            self.first = bytes(chunk)
        return chunk


def _numbered(stop, generated):
    """An open-ended stream of numbered items; every 50th starts a group."""
    while not stop.is_set() and generated[0] < 400_000:
        index = generated[0]
        generated[0] += 1
        yield (b"G%06d;" if index % 50 == 0 else b"i%06d;") % index


def _check_numbered(data, generated):
    items = data.split(b";")[:-1]
    assert len(items) == generated
    assert all(int(item[1:]) == index for index, item in enumerate(items))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("budget", BUDGETS)
def test_a_hold_armed_mid_stream_stops_the_bulk_draw_at_the_boundary(
        engine, budget, monkeypatch):
    """A boundary-aware insertion behind a flowing source: the hold forces
    the per-item path, the new filter's first chunk starts a group, and the
    stream goes on — every item, once, in order."""
    monkeypatch.setattr(filter_module, "DEFAULT_PUMP_BUDGET", budget)
    stop = threading.Event()
    generated = [0]
    source = IterableSource(_numbered(stop, generated))
    sink = CollectorSink()
    control = ControlThread(source, sink, engine=engine, auto_start=False)
    control.add(PassthroughFilter(name="stays"))
    control.start()
    try:
        inserted = FirstChunk(name="inserted")
        flowing = threading.Event()
        inserted.add_activity_listener(flowing.set)
        control.add(inserted, position=0, timeout=10.0,
                    boundary=lambda item: item.startswith(b"G"))
        assert flowing.wait(10.0), "nothing reached the inserted filter"
        stop.set()
        assert control.wait_for_completion(timeout=15.0)
        assert inserted.first.startswith(b"G")
        assert source.items_produced == generated[0]
        _check_numbered(sink.data(), generated[0])
    finally:
        stop.set()
        control.shutdown()


#: One pump budget of units; unit 17 is the first boundary (a "G" unit).
CUT_UNITS = [(b"G%02d;" if index and index % 17 == 0 else b"u%02d;") % index
             for index in range(64)]


def _record_deliveries(dos):
    """Record every batch ``dos`` delivers through its batch calls."""
    batches = []

    def recorded(method):
        def deliver(chunks, *args, **kwargs):
            delivered = method(chunks, *args, **kwargs)
            if delivered:  # try_write_many: False while detached
                batches.append([bytes(chunk) for chunk in chunks])
            return delivered
        return deliver

    dos.write_many = recorded(dos.write_many)
    dos.try_write_many = recorded(dos.try_write_many)
    return batches


@pytest.mark.parametrize("engine", ENGINES)
def test_a_hold_cuts_a_batch_at_its_boundary_unit(engine):
    """A hold armed before a full budget is read: the units before the
    boundary go out as one batch, the filter holds at the boundary unit,
    and on release the rest follows in order — on every engine."""
    source = IterableSource(CUT_UNITS, name="src")
    sink = CollectorSink(name="sink")
    control = ControlThread(source, sink, engine=engine, auto_start=False)
    cutter = PassthroughFilter(name="cut")
    control.add(cutter)
    batches = _record_deliveries(cutter.dos)
    # Armed (not yet engaged) before anything is read.
    assert not cutter.hold_at_boundary(lambda unit: unit.startswith(b"G"),
                                       timeout=0)
    control.start()
    try:
        assert cutter._held.wait(10.0), "the hold never engaged"
        assert cutter.held
        assert batches == [CUT_UNITS[:17]]
        cutter.release_hold()
        assert control.wait_for_completion(timeout=15.0)
        assert batches == [CUT_UNITS[:17], CUT_UNITS[17:]]
        assert sink.data() == b"".join(CUT_UNITS)
    finally:
        control.shutdown()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("budget", BUDGETS)
def test_stop_in_the_middle_of_a_draw_delivers_what_was_drawn(
        engine, budget, monkeypatch):
    monkeypatch.setattr(filter_module, "DEFAULT_PUMP_BUDGET", budget)
    reached = threading.Event()
    proceed = threading.Event()
    generated = [0]

    def items():
        for item in _numbered(threading.Event(), generated):
            if generated[0] == 100:
                # In the middle of the second budget: let stop() land now.
                reached.set()
                proceed.wait(15.0)
            yield item

    source = IterableSource(items())
    sink = CollectorSink()
    control = ControlThread(source, sink, engine=engine)
    try:
        assert reached.wait(15.0)
        stopper = threading.Thread(target=source.stop, daemon=True)
        stopper.start()
        while not source.stop_requested:
            stopper.join(0.001)
        proceed.set()
        stopper.join(15.0)
        assert source.finished and source.error is None
        # Stopping does not close the stream; what was drawn has been (or
        # is being) delivered, nothing twice and nothing dropped.
        assert control.wait_idle(timeout=15.0)
        assert 100 <= generated[0] <= 99 + budget
        assert source.items_produced == generated[0]
        _check_numbered(sink.data(), generated[0])
    finally:
        proceed.set()
        control.shutdown()


# ------------------------------------------- a forwarded batch is measured once


#: 200 chunks of 1 B to ~3 KiB: a 1 KiB read budget splits the larger ones,
#: so forwarded batches carry split heads (views) as well as whole chunks.
LARGE = [bytes([index % 251]) * (1 + index * 37 % 3000) for index in range(200)]

KINDS = {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview}


class Suffixed(Filter):
    """As many chunks out as in, each one byte longer: same count, other
    sizes — a batch whose total must be measured, not forwarded."""

    def transform(self, chunk):
        return bytes(chunk) + b"+"


def _watch_totals(monkeypatch, trust):
    """Wrap ``StreamBuffer.write_chunks``.  Every byte total handed to it
    is checked against the chunks it came with; with ``trust`` unset the
    total is dropped, so the buffer measures every batch (the reference).
    Returns (totals handed over, totals that were wrong)."""
    forwarded, wrong = [], []
    write_chunks = StreamBuffer.write_chunks

    def watched(self, chunks, timeout=None, force=False, nbytes=None):
        if nbytes is not None:
            chunks = list(chunks)
            if (nbytes != sum(map(len, chunks))
                    or not all(type(chunk) in KINDS.values() and len(chunk)
                               for chunk in chunks)):
                wrong.append((nbytes, [len(chunk) for chunk in chunks]))
            forwarded.append(nbytes)
            if not trust:
                nbytes = None
        return write_chunks(self, chunks, timeout, force, nbytes)

    monkeypatch.setattr(StreamBuffer, "write_chunks", watched)
    return forwarded, wrong


def _counted_run(engine, budget, trust, monkeypatch, items, filters,
                 read_bytes=None, frame_output=False):
    """Run ``items`` through ``filters``: the delivered data, every
    FilterStats field and every stream counter of every element, and the
    totals that were forwarded.  ``read_bytes`` pins each filter's read
    budget (chunk_size x pump_budget) so both budgets split alike."""
    monkeypatch.setattr(filter_module, "DEFAULT_PUMP_BUDGET", budget)
    forwarded, wrong = _watch_totals(monkeypatch, trust)
    source = IterableSource(items, name="src", frame_output=frame_output)
    sink = CollectorSink(name="sink")
    control = ControlThread(source, sink, engine=engine, auto_start=False)
    chain = filters()
    for filter_obj in chain:
        if read_bytes:
            filter_obj.chunk_size = read_bytes // budget
        control.add(filter_obj)
    control.start()
    try:
        assert control.wait_for_completion(timeout=15.0)
        snapshot = control.snapshot()
        elements = [source, *chain, sink]
        counters = [(element.dis.bytes_received, element.dis.bytes_delivered,
                     element.dos.bytes_written) for element in elements]
        stats = [_comparable(s) for s in (snapshot.source_stats,
                                          *snapshot.filter_stats,
                                          snapshot.sink_stats)]
        assert not any(element.error for element in elements)
        return (sink.data(), stats, counters), forwarded, wrong
    finally:
        control.shutdown()


def _pieces(chunks, read_bytes):
    """How many units ``chunks`` become behind a ``read_bytes`` budget."""
    if not read_bytes:
        return len(chunks)
    return sum(-(-len(chunk) // read_bytes) for chunk in chunks)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("read_bytes", [None, 1024])
def test_forwarding_and_transforming_hops_count_alike(engine, kind,
                                                      read_bytes, monkeypatch):
    """Forwarders (passthrough, a per-chunk tap) around a transformer: at
    budget 64 with forwarded totals, every counter reads as at budget 1
    with every batch measured — for bytes, bytearrays and views in, and
    for split heads."""
    def filters():
        return [PassthroughFilter(name="a"), ByteCounterFilter(name="tap"),
                UppercaseFilter(name="upper"), PassthroughFilter(name="b")]

    def items():
        return [KINDS[kind](chunk) for chunk in LARGE]

    reference, _, wrong = _counted_run(engine, 1, False, monkeypatch,
                                       items(), filters, read_bytes)
    assert not wrong
    measured_once, forwarded, wrong = _counted_run(
        engine, 64, True, monkeypatch, items(), filters, read_bytes)
    assert not wrong, wrong
    assert measured_once == reference
    assert forwarded, "no hop forwarded its total"

    data, stats, counters = measured_once
    total, units = sum(map(len, LARGE)), _pieces(LARGE, read_bytes)
    assert data == b"".join(LARGE).upper()
    assert [(s["chunks_in"], s["bytes_in"], s["chunks_out"], s["bytes_out"])
            for s in stats[1:-1]] == [(units, total, units, total)] * 4
    assert counters[1:] == [(total, total, total)] * 4 + [(total, total, 0)]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_framing_hop_never_trusts_a_forwarded_total(engine, monkeypatch):
    """A packet tap forwards its batch into a byte filter: the hop frames
    it, so the byte filter counts frame bytes, not the packets' total."""
    def filters():
        return [PacketTapFilter(name="tap"), PassthroughFilter(name="bytes"),
                ByteCounterFilter(name="count")]

    runs = [_counted_run(engine, budget, budget == 64, monkeypatch,
                         list(LARGE), filters, frame_output=True)
            for budget in BUDGETS]
    assert not runs[0][2] and not runs[1][2], runs[1][2]
    assert runs[0][0] == runs[1][0]

    data, stats, counters = runs[1][0]
    payload = sum(map(len, LARGE))
    framed = sum(len(encode_frame(packet)) for packet in LARGE)
    assert data == b"".join(map(encode_frame, LARGE))
    tap, byte_filter, _ = stats[1:-1]
    # A hop counts once, after its conversion: the tap wrote frame bytes.
    assert (tap["bytes_in"], tap["bytes_out"]) == (payload, framed)
    assert byte_filter["bytes_in"] == framed
    assert counters[1] == (payload, payload, framed)  # the tap's DIS, DOS
    assert counters[2][0] == framed                   # the byte filter's DIS


@pytest.mark.parametrize("engine", ENGINES)
def test_same_count_other_sizes_is_measured(engine, monkeypatch):
    """A transform that returns as many chunks as it read, of other sizes,
    hands no total on: downstream counts what it really wrote."""
    def filters():
        return [PassthroughFilter(name="a"), Suffixed(name="suffixed"),
                PassthroughFilter(name="b")]

    runs = [_counted_run(engine, budget, budget == 64, monkeypatch,
                         list(LARGE), filters) for budget in BUDGETS]
    assert not runs[0][2] and not runs[1][2], runs[1][2]
    assert runs[0][0] == runs[1][0]

    data, stats, counters = runs[1][0]
    total = sum(map(len, LARGE))
    grown = total + len(LARGE)
    assert data == b"".join(bytes(chunk) + b"+" for chunk in LARGE)
    assert [(s["bytes_in"], s["bytes_out"]) for s in stats[1:-1]] == [
        (total, total), (total, grown), (grown, grown)]
    assert [c[2] for c in counters[1:4]] == [total, grown, grown]


class _Counting:
    """An iterator that counts how many items were pulled from it."""

    def __init__(self, items):
        self._items = list(items)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulled == len(self._items):
            raise StopIteration
        self.pulled += 1
        return self._items[self.pulled - 1]


def test_a_draw_never_pulls_past_the_item_that_stopped_it():
    items = _Counting([b"a", b"b", b"", b"c", None, b"d", b"e"])
    source = IterableSource(items)
    assert source.produce_many(64) == [b"a", b"b"] and items.pulled == 3
    assert source.produce_many(64) == [b"c"] and items.pulled == 5
    # None ended the stream for good: nothing behind it is ever pulled.
    assert source.produce_many(64) == [] and items.pulled == 5
    assert source.produce() is None and items.pulled == 5

    items = _Counting([b"x"] * 10)
    source = IterableSource(items)
    assert source.produce_many(4) == [b"x"] * 4 and items.pulled == 4
    assert source.produce() == b"x" and items.pulled == 5

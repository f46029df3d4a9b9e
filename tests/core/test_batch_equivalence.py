"""The batch paths read the same as the per-unit paths.

A pump budget now crosses a hop as one list and is measured once, by the
stream it crosses: a filter's input bytes are the DIS's delivered-byte
delta, its output bytes what the DOS counted, and a source draws a budget
from any iterable in one C-speed pass.  None of that may show: at
``pump_budget`` 64 every counter, every delivered byte and every error must
read as it does at budget 1, where each unit is drawn, transformed,
written and counted on its own — on all three engines, from a list as from
a generator, and when a transform or the source's iterator raises in the
middle of a batch.

Streams here stay under 64 KiB in all: a *blocking* write squeezed through
a full buffer splits its chunk (by design), which would make chunk counts a
matter of thread timing rather than of the budget.
"""

import threading

import pytest

import repro.core.filter as filter_module
from repro.core import CollectorSink, ControlThread, Filter, IterableSource
from repro.filters import PassthroughFilter

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

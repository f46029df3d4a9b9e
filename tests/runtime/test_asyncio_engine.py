"""Tests specific to the asyncio engine's driver.

Everything the two cooperative engines share is tested on both in
``test_cooperative_engines.py``; these tests cover what is specific to the
asyncio driver — its registry name and the lazily started, exposed loop.
"""

from repro.core import CollectorSink, ControlThread, IterableSource
from repro.runtime import AsyncioEngine, get_engine, resolve_engine


def make_chunks(count, prefix="chunk"):
    return [f"{prefix}-{i:04d};".encode() for i in range(count)]


class TestRegistry:
    def test_registered_under_asyncio_name(self):
        engine = get_engine("asyncio")
        try:
            assert isinstance(engine, AsyncioEngine)
            assert engine.name == "asyncio"
        finally:
            engine.shutdown()

    def test_env_var_selects_asyncio(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "asyncio")
        engine = resolve_engine(None)
        try:
            assert isinstance(engine, AsyncioEngine)
        finally:
            engine.shutdown()


class TestLoop:
    def test_loop_thread_is_lazy(self):
        engine = AsyncioEngine()
        try:
            assert not engine.scheduler_alive
            assert engine.loop is None
            source = IterableSource(make_chunks(10))
            sink = CollectorSink()
            # Starting the endpoints is what must spin the loop up: no
            # mid-stream insert here, the stream may already be done by then.
            control = ControlThread(source, sink, engine=engine)
            assert engine.scheduler_alive
            assert engine.loop is not None
            assert control.wait_for_completion(timeout=10.0)
            control.shutdown()
        finally:
            engine.shutdown()

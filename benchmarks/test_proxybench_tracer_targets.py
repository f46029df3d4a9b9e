"""The span tracer still finds every method it wraps.

``proxybench.tracing.TARGETS`` names methods and module attributes of
``repro`` by string, and ``run.py --trace`` installs a wrapper on each.  A
rename or a dropped import that only the tracer names would only show
when someone runs a trace; this test installs and uninstalls the tracer so
it shows in the suite instead.
"""

from proxybench.tracing import TARGETS, Tracer, _resolve


def _current(owner, attribute):
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


def test_every_target_installs_and_uninstalls():
    owners = [(_resolve(path), attribute) for _layer, path, attribute in TARGETS]
    originals = [_current(owner, attribute) for owner, attribute in owners]
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attribute), original in zip(owners, originals):
            wrapped = _current(owner, attribute)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [_current(owner, attribute)
            for owner, attribute in owners] == originals

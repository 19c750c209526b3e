"""``cfused.load()`` builds the C kernel once, whatever the threads do."""

import threading
import time

import pytest

from repro.chemistry import cfused


def test_concurrent_first_loads_share_one_build(monkeypatch):
    """Callers that arrive during the build wait for it.

    The stalled ``_compile`` holds the build window open while seven
    more threads call ``load()``; none may give up with ``None``.
    """
    if cfused.load() is None:
        pytest.skip("no C compiler available")
    monkeypatch.setattr(cfused, "_cached", None)
    monkeypatch.setattr(cfused, "_attempted", False)
    compiling = threading.Event()
    release = threading.Event()
    real_compile = cfused._compile

    def stalled_compile():
        compiling.set()
        release.wait(timeout=30)
        return real_compile()

    monkeypatch.setattr(cfused, "_compile", stalled_compile)
    results = [None] * 8

    def call(i):
        results[i] = cfused.load()

    first = threading.Thread(target=call, args=(0,))
    first.start()
    assert compiling.wait(timeout=30)
    others = [threading.Thread(target=call, args=(i,)) for i in range(1, 8)]
    for t in others:
        t.start()
    # Give the late callers time to return early, as an unserialised
    # load() would, before the build is allowed to finish.
    deadline = time.monotonic() + 0.5
    while any(t.is_alive() for t in others) and time.monotonic() < deadline:
        time.sleep(0.01)
    release.set()
    for t in [first, *others]:
        t.join(timeout=60)
        assert not t.is_alive()
    assert results[0] is not None
    assert all(r is results[0] for r in results)

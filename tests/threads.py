"""A record of the threads a test starts, for tests of the threaded draw."""
import threading


def record_thread_starts(monkeypatch) -> list:
    """Patch ``threading.Thread`` for the test; return the list that each
    thread is appended to as it starts."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started

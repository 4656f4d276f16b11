"""Cooperative SIGTERM/SIGINT handling for long-running processes.

Both the serve daemon and the streaming CLI paths (``digest``/``stats``
with ``--workdir``) want the same contract: a termination signal does
not kill the process mid-batch, it raises a flag that the work loop
checks at its next safe boundary, after which the process checkpoints
and exits 0.  :class:`GracefulShutdown` packages that contract as a
context manager that installs handlers on entry and restores the
previous handlers on exit, so nested or sequential uses never leak.
"""

from __future__ import annotations

import signal


class GracefulShutdown:
    """Flag-raising signal handler for checkpoint-then-exit loops.

    Usage::

        with GracefulShutdown() as stop:
            for batch in batches:
                if stop:
                    break  # checkpoint + exit 0 at the call site
                process(batch)
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self) -> None:
        self.requested = False
        self.signum: int | None = None
        self._previous: dict[int, object] = {}

    def _handler(self, signum, frame) -> None:
        self.requested = True
        self.signum = signum

    def __enter__(self) -> "GracefulShutdown":
        for sig in self.SIGNALS:
            self._previous[sig] = signal.getsignal(sig)
            signal.signal(sig, self._handler)
        return self

    def __exit__(self, *exc) -> None:
        for sig, prev in self._previous.items():
            signal.signal(sig, prev)
        self._previous.clear()

    def __bool__(self) -> bool:
        return self.requested

    @property
    def signal_name(self) -> str:
        if self.signum is None:
            return ""
        return signal.Signals(self.signum).name

"""One forked worker process, as ``evolution.run`` and the concentration traces use it.

The worker is forked where ``may_fork`` allows it. It runs its work and
sends its messages and then its outcome, each pickled, through a pipe, and
leaves by ``os._exit``. An error is sent with its type and message. The
caller reaps the worker on every path and kills it first where it has not
ended.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections.abc import Callable, Iterator

from .errors import DomainError


def may_fork() -> bool:
    """Whether this process may fork a worker: the platform can fork, and no other thread
    runs (a lock that another thread held at the fork would stay held in the child)."""
    return hasattr(os, "fork") and threading.active_count() == 1


class Worker:
    """A forked child that runs ``work(send, wait)``, used as a context manager.

    ``send(message)`` sends a message to this process, which takes them in
    order from ``messages``; each ``wait()`` blocks in the child until this
    process calls ``release`` once more. ``work`` returns a pair (result,
    error), which the child sends last, as ``outcome``'s value: exit code 0
    once it is sent, 1 if anything raised. An error that does not survive a
    pickle round trip is sent as a ``DomainError`` naming its type and
    message. ``what`` names the worker in the ``RuntimeError`` of a child
    that ends without its outcome. On leaving the ``with`` block this
    process closes its pipe ends and kills and reaps a child that
    ``messages`` has not reaped. Each process runs one thread.
    """

    def __init__(self, work: Callable, what: str):
        self.what, self.result = what, None
        inbox, self.outbox = os.pipe()
        results, out = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (inbox, self.outbox, results, out):
                os.close(fd)
            raise
        if self.pid == 0:  # the child never returns into the caller
            status = 1
            try:
                os.close(results)
                os.close(self.outbox)
                with open(out, "wb") as pipe:

                    def post(done: bool, value) -> None:
                        pickle.dump((done, value), pipe)
                        pipe.flush()

                    result, error = work(lambda message: post(False, message),
                                         lambda: os.read(inbox, 1))
                    try:
                        pickle.loads(pickle.dumps(error))
                    except Exception:
                        error = DomainError(f"{type(error).__name__}: {error}")
                    post(True, (result, error))
                status = 0
            finally:
                os._exit(status)
        os.close(out)
        os.close(inbox)
        self.results = open(results, "rb")

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.results.close()
        os.close(self.outbox)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)

    def release(self) -> None:
        """Let the child's ``wait`` return once. A child that has ended, whose end of
        the pipe is closed, is left for ``messages`` to report with its exit code."""
        try:
            os.write(self.outbox, b"\0")
        except BrokenPipeError:
            pass

    def messages(self) -> Iterator:
        """The child's messages, in order, until its outcome, which is kept for ``outcome``;
        the child is reaped there."""
        while self.pid is not None:
            try:
                done, value = pickle.load(self.results)
            except (EOFError, pickle.UnpicklingError):  # ended, or killed mid-message
                done, value = True, None
            if not done:
                yield value
                continue
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            if code != 0 or value is None:
                raise RuntimeError(f"{self.what} ended without its result (exit code {code})")
            self.result = value

    def outcome(self) -> tuple:
        """The child's (result, error); a message not yet taken is passed over."""
        for _ in self.messages():
            pass
        return self.result

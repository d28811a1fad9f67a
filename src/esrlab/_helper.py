"""A forked helper process that serves one caller over a pipe.

``start(name, serve, *args)`` forks a process that runs ``serve(conn,
*args)``, where ``conn`` is the helper's end of a duplex pipe, and returns
the caller's end as a ``Helper``.  The fork hands ``args`` over as they
are, unpickled, so they may hold memory the two processes share.  Every
helper:

- is forked, not spawned, so it re-imports nothing and a script that uses
  one needs no ``__main__`` guard, and it is never started in a daemonic
  process (a ``multiprocessing.Pool`` worker), which may not have
  children: there ``start`` returns None and the caller works alone;
- freezes the inherited heap out of its garbage collections, which would
  write to those pages and so copy them, and ignores SIGINT, which is the
  caller's to handle;
- closes its copies of the caller's end of every helper's pipe, its own
  included, so it reads EOF, and exits, once the caller closes its end or
  dies;
- relays an exception that ``serve`` raises to the caller, whose next
  ``recv`` raises it with its type and message;
- is named by its exit code (a ``RuntimeError``) when it dies unasked.
"""

from __future__ import annotations

import weakref
from collections import deque

__all__ = ["Helper", "start"]

# this process's helpers not yet closed: a new helper closes its copies of
# their pipes as well as of its own, so that each reads EOF once its caller
# has gone
_open: weakref.WeakSet = weakref.WeakSet()


class Helper:
    """The caller's end of a helper process; ``held`` is the caller's to
    keep what it has sent and not yet had answered."""

    def __init__(self, name: str, process, conn):
        self.name, self.process, self.conn = name, process, conn
        self.held: deque = deque()

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:
            pass
        else:
            return
        self._lost()

    def poll(self) -> bool:
        """True when a reply (or EOF) is waiting."""
        return self.conn.poll()

    def recv(self):
        """The next reply; an exception the helper raised is raised here."""
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            pass
        else:
            if isinstance(reply, BaseException):
                raise reply
            return reply
        self._lost()

    def close(self) -> None:
        """Close the pipe, so the helper reads EOF and returns, and wait for
        it to exit."""
        _open.discard(self)
        try:
            self.conn.close()
        finally:
            self.process.join()

    def _lost(self):
        """Raise for a helper that exited without being asked to: the
        exception it relayed, which a failed send leaves unread, or else a
        RuntimeError naming its exit code.  Called after the pipe error's
        handler, so that the error raised here does not hold that one, whose
        frames hold a failed send's pickle buffer: collected in a cycle, the
        buffer can be freed before its view, which raises BufferError."""
        self.process.join()
        relayed = None
        try:
            while relayed is None and self.conn.poll():
                reply = self.conn.recv()
                if isinstance(reply, BaseException):
                    relayed = reply
        except (EOFError, OSError):
            pass
        if relayed is not None:
            raise relayed
        raise RuntimeError(f"{self.name} helper {self.process.pid} exited "
                           f"with code {self.process.exitcode}")


def start(name: str, serve, *args) -> Helper | None:
    """Fork a helper that runs ``serve(conn, *args)``; None in a daemonic
    process.  It is daemonic itself, so that it is stopped at exit should
    its ``Helper`` never be closed."""
    import multiprocessing   # here, so that importing stays cheap
    if multiprocessing.current_process().daemon:
        return None
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    inherited = [ours] + [h.conn for h in _open]
    process = ctx.Process(target=_main, daemon=True,
                          args=(theirs, inherited, serve, args))
    process.start()
    theirs.close()
    helper = Helper(name, process, ours)
    _open.add(helper)
    return helper


def _main(conn, inherited: list, serve, args) -> None:
    import gc
    import signal
    gc.freeze()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for c in inherited:
        c.close()
    try:
        serve(conn, *args)
    except (EOFError, BrokenPipeError):
        return   # the caller closed its end or died
    except Exception as err:
        try:
            conn.send(err)
        except OSError:
            pass

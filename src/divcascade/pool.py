"""The forked helpers that scan and prove beside their caller.

A helper is a process forked idle by the first request that needs it.
A request is a pair (function, argument): it comes pickled through the
helper's pipe, the helper calls function(argument) and sends back the
pickled result, or the exception it raised.  So a function a helper
runs must pickle by name, which a module-level function does, and the
helper imports its module if it has not yet.  ``analysis.start_scan``
sends runs of chunks to scan (``analysis._scan_run``), and
``audit.run_audit`` sends its exact proofs (``audit._proofs``) before it
imports numpy.

An idle helper stays until the process exits, when it is reaped; a
helper whose parent ends any other way reads EOF on its pipe and exits,
and a forked child drops its parent's helpers.  This module loads no
numpy.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from dataclasses import dataclass


def _can_fork(workers: int) -> bool:
    """Whether a caller asking for ``workers`` processes may fork helpers:
    ``workers`` > 1, ``os.fork`` exists and this process runs one Python
    thread.  fork() copies only the calling thread: with another Python
    thread alive, a lock it holds would stay held in the child.  Native
    threads (a BLAS pool, a host's C extension) are not counted here."""
    return (workers > 1 and hasattr(os, "fork")
            and threading.active_count() == 1)


@dataclass(eq=False)
class _Helper:
    """A helper: a forked process that answers requests, its pid, the
    write end of its request pipe, the read end of its reply pipe, and
    whether a caller has leased it and not yet read its reply."""

    pid: int
    send: int
    recv: int
    busy: bool = False


# This process's helpers, in fork order.  They outlive the requests that
# fork them, idle between requests, and are reaped at exit; a forked
# child drops them (``_forget_helpers``), so only this process holds
# their pipes and each reads EOF, and exits, when this process ends.
_helpers: list[_Helper] = []


def _lease(requests) -> list[_Helper]:
    """A helper for each (function, argument) request, marked busy and
    sent its request, pickled, through its pipe: this process's idle
    helpers in fork order, then new ones (``_fork_helper``).  An idle
    helper that has ended (a signal, say) is reaped and passed over.
    Each request is pickled before its helper is leased.  If a request
    does not pickle, or a send or a fork fails, the helpers leased so far
    are reaped before the error propagates."""
    leased = []
    try:
        idle = iter([h for h in _helpers if not h.busy])
        for request in requests:
            data = pickle.dumps(request, pickle.HIGHEST_PROTOCOL)
            helper = next((h for h in idle if _alive(h)), None)
            helper = helper or _fork_helper()
            helper.busy = True
            leased.append(helper)
            _send(helper.send, data)
    except BaseException:
        _reap(leased)
        raise
    return leased


def _alive(helper: _Helper) -> bool:
    """Whether a helper still runs; one that has ended is reaped."""
    if _wait(helper, os.WNOHANG) == (0, 0):
        return True
    _drop(helper)
    return False


def _wait(helper: _Helper, options: int = 0) -> tuple[int, int | None]:
    """``os.waitpid`` of a helper; (pid, None) if a wait for any child,
    the caller's own, has reaped it already."""
    try:
        return os.waitpid(helper.pid, options)
    except ChildProcessError:
        return helper.pid, None


def _drop(helper: _Helper) -> None:
    """Close this process's ends of a helper's pipes and forget it."""
    _helpers.remove(helper)
    os.close(helper.send)
    os.close(helper.recv)


def _reap(helpers) -> list:
    """End each of the helpers this process still has, and wait for it;
    their wait statuses (None where unknown).  Closing its pipes ends a
    helper: an idle one reads EOF, and a busy one finishes its request
    and meets a closed pipe when it replies."""
    helpers = [h for h in helpers if h in _helpers]
    for helper in helpers:
        _drop(helper)
    return [_wait(h)[1] for h in helpers]


def _forget_helpers() -> None:
    """In a forked child, a helper among them: close the pipes of the
    parent's helpers and forget them."""
    for helper in list(_helpers):
        _drop(helper)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)
atexit.register(_reap, _helpers)


def _fork_helper() -> _Helper:
    """Fork a new helper and add it to this process's helpers.

    The helper replies to each request its pipe brings, until it reads
    EOF; it holds no request of its own, so the first comes as every
    later one does.  It always leaves through ``os._exit``: it never
    returns into the caller's stack, and exit handlers and buffered
    output stay the parent's.
    """
    fds = []
    try:
        fds += os.pipe()        # requests: read, write
        fds += os.pipe()        # replies: read, write
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    request_r, request_w, reply_r, reply_w = fds
    if pid:
        os.close(request_r)
        os.close(reply_w)
        helper = _Helper(pid, request_w, reply_r)
        _helpers.append(helper)
        return helper
    status = 1
    try:
        os.close(request_w)
        os.close(reply_r)
        while (data := _receive(request_r)) is not None:
            _send(reply_w, _reply(data))
        status = 0
    finally:
        os._exit(status)


def _reply(data: bytes) -> bytes:
    """The pickled (True, function(argument)) of a pickled (function,
    argument) request, or (False, the exception it raised); an exception
    that does not pickle and unpickle goes as a ``RuntimeError`` naming
    it."""
    try:
        function, argument = pickle.loads(data)
        result = (True, function(argument))
    except BaseException as exc:        # handed to the parent to raise
        result = (False, exc)
    try:
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        if not result[0]:
            pickle.loads(data)          # as the parent will read it
    except Exception:                   # an exception that does not pickle
        exc = result[1]
        data = pickle.dumps(
            (False, RuntimeError(f"{type(exc).__name__}: {exc}")))
    return data


def _send(fd: int, data: bytes) -> None:
    """Write one message to a pipe: data's length, then data."""
    with open(fd, "wb", closefd=False) as fh:
        fh.write(len(data).to_bytes(8, "little"))
        fh.write(data)


def _receive(fd: int) -> bytes | None:
    """The next message from a pipe, or None if it ends before one."""
    with open(fd, "rb", closefd=False) as fh:
        head = fh.read(8)
        if len(head) < 8:
            return None
        size = int.from_bytes(head, "little")
        data = fh.read(size)
    return data if len(data) == size else None


def _collect(helpers) -> list:
    """The helpers' results in order, each helper idle again.

    A helper's exception is raised again here; a helper that ended
    without a reply is reaped and raises ``RuntimeError``.
    """
    results = []
    for helper in helpers:
        data = _receive(helper.recv)
        if data is None:
            status, = _reap([helper])
            code = ("unknown" if status is None
                    else os.waitstatus_to_exitcode(status))
            raise RuntimeError(f"helper {helper.pid} ended without a "
                               f"result (exit code {code})")
        helper.busy = False
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results

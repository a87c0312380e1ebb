"""Forked workers, one per CPU, whose results are taken in order.

verify deals its instances and the search its restart batches through
in_order, the one place that forks.  A worker computes one call, pickles
its result or the exception it raised into a pipe, and leaves by
os._exit, so it never returns into the caller's stack nor flushes its
buffers.  Standard library only; ``import spextremal`` does not import it.
"""

from __future__ import annotations

import os
import pickle
import signal


class WorkerError(Exception):
    """A worker could not be forked or ended without a result."""


def cpus() -> int:
    """The number of CPUs this process may run on (its affinity), or 1
    where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork(fn, arg):
    """Fork a process that pickles fn(arg), or the exception it raised,
    into a pipe; return its pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read)
        os.close(write)
        raise WorkerError(f"cannot fork a worker: {exc}") from None
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        try:
            outcome = True, fn(arg)
        except Exception as exc:
            outcome = False, exc
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        # never return into the caller's stack, nor flush its buffers
        os._exit(code)


def _collect(pid: int, read: int):
    """A worker's result, once it has ended; re-raises what it raised."""
    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        ok, outcome = pickle.loads(data)
    except Exception:
        raise WorkerError("a worker ended without a result (exit status "
                          f"{os.waitstatus_to_exitcode(status)})") from None
    if not ok:
        raise outcome
    return outcome


def in_order(fn, args):
    """Yield fn(arg) for each arg of the sequence args, in order.

    A worker is forked for each arg but the first, and then fn(args[0])
    is computed in this process, so all of them run at once; one arg
    forks nothing.  A worker's exception is raised here when its turn
    comes.  When the generator is closed, or raises, every worker still
    running is killed; every worker is reaped on every path.
    """
    workers = []
    try:
        for arg in args[1:]:
            workers.append(_fork(fn, arg))
        yield fn(args[0])
        while workers:
            yield _collect(*workers.pop(0))
    finally:
        for pid, read in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)

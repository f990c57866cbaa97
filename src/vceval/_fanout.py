"""Map a function over items on every core that this process may run on,
in forked worker processes; filter and lifecycle compile corpus files this
way.  Imported by its callers when they run, so that commands which do not
use it neither compile nor load it.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Sequence
from typing import NoReturn, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

_RECORD = 4  # bytes per item index in fan_out's work queue
# Indices per queue write: 512 bytes, which every POSIX system writes to a
# pipe whole, so a 4-byte read always takes one complete index.
_BATCH = 128


def fan_out(fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
    """[fn(item) for item in items], worked on every core this process may
    run on.

    Where os.fork and os.sched_getaffinity exist and there are two or more
    items, one child is forked per further usable core (at most one per
    item) and the calling process works beside them, each worker bound to a
    core of its own; the caller's affinity mask is restored.  The items
    reach the children through fork; each worker takes the index of its
    next item from a shared pipe when it is free, so a worker on a starved
    core just takes fewer, and each child sends back its (index, result)
    pairs pickled.  The results, and the exception that fn raises, are the
    same for any number of cores.  A child that ends without sending them
    raises ChildProcessError, and every child is reaped before this returns
    or raises.  No thread is started.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    mask = affinity(0) if affinity and hasattr(os, "fork") else set()
    workers = min(len(mask), len(items))
    if workers < 2:
        return [fn(item) for item in items]

    results: list = [None] * len(items)
    cores = sorted(mask)  # worker w runs on cores[w]; the caller is worker 0
    parent = os.getpid()
    take, feed = os.pipe()
    open_fds = {take, feed}
    children: dict[int, int] = {}  # pid -> read end of the child's result pipe
    try:
        for worker in range(1, workers):
            receive, send = os.pipe()
            open_fds |= {receive, send}
            pid = os.fork()
            if pid == 0:
                os.close(feed)
                _serve(fn, items, take, send, cores[worker])
            children[pid] = receive
            os.close(send)
            open_fds.remove(send)
        _pin({cores[0]})
        os.set_blocking(feed, False)
        fed = 0
        while fed < len(items):
            try:
                while fed < len(items):
                    batch = range(fed, min(fed + _BATCH, len(items)))
                    os.write(feed, b"".join(i.to_bytes(_RECORD, "little") for i in batch))
                    fed = batch.stop
            except BlockingIOError:
                # the queue is full: work on an item that it does not hold
                results[fed] = fn(items[fed])
                fed += 1
        os.close(feed)
        open_fds.remove(feed)
        while record := os.read(take, _RECORD):
            index = int.from_bytes(record, "little")
            results[index] = fn(items[index])
        payloads = {pid: _read_to_end(receive) for pid, receive in children.items()}
    except BaseException:
        if os.getpid() != parent:  # a child that left _serve by an exception
            os._exit(1)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _pin(mask)
        for fd in open_fds:
            os.close(fd)
        statuses = {pid: os.waitpid(pid, 0)[1] for pid in children}
    for pid, data in payloads.items():
        code = os.waitstatus_to_exitcode(statuses[pid])
        if code:
            raise ChildProcessError(f"worker process {pid} ended with status {code}")
        payload = pickle.loads(data)
        if isinstance(payload, BaseException):
            raise payload
        for index, result in payload:
            results[index] = result
    return results


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _pin(cpus: set[int]) -> None:
    # Where the kernel does not balance load between cores, a forked child
    # stays on its parent's core, so each worker is bound to a core of its
    # own.  Binding is best effort: a core that is not online is ignored.
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _serve(
    fn: Callable[[_T], _R], items: Sequence[_T], take: int, send: int, core: int
) -> NoReturn:
    """A fan_out child's whole run: fn over the items whose indices it takes
    from the queue, then its (index, result) pairs, or the exception that
    stopped it, pickled to send.  It exits without returning, so it never
    runs the caller's code or flushes the caller's stdio buffers."""
    code = 1
    try:
        try:
            _pin({core})
            done = []
            while record := os.read(take, _RECORD):
                index = int.from_bytes(record, "little")
                done.append((index, fn(items[index])))
            payload: object = done
        except BaseException as exc:
            payload = exc
        data = memoryview(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(send, data):]
        code = 0
    finally:
        os._exit(code)

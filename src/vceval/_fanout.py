"""Map a function over items on every core that this process may run on,
in forked worker processes; filter and lifecycle compile corpus files this
way, and score scores its instances.  Imported by its callers when they
run, so that commands which do not use it neither compile nor load it.

The first error wins in input order, as in a serial loop: a worker whose
item raises an Exception stops taking items and reports (index, exception),
and the call raises the exception of the lowest such index.  Indices enter
the queue in ascending order and the other workers go on taking them, so
every index below the lowest failing one is worked on.
"""

from __future__ import annotations

import os

# pickle.dumps and pickle.loads are _pickle's on CPython, but importing them
# through pickle also loads its pure-Python pickler: ~2 ms more.
from _pickle import dumps, loads
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
    pairs pickled.  The results, and the exception that fn raises for the
    first failing item, are the same for any number of cores.  A child that
    ends without sending them raises ChildProcessError; any other
    BaseException kills the children at once.  Every child is reaped before
    this returns or raises.  No thread is started.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    mask = affinity(0) if affinity and hasattr(os, "fork") else set()
    workers = min(len(mask), len(items))
    if workers < 2:
        return [fn(item) for item in items]

    results: list = [None] * len(items)
    failures: list[tuple[int, Exception]] = []

    def work(index: int) -> None:
        try:
            results[index] = fn(items[index])
        except Exception as exc:
            failures.append((index, exc))

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
        while fed < len(items) and not failures:
            try:
                while fed < len(items):
                    batch = range(fed, min(fed + _BATCH, len(items)))
                    os.write(feed, b"".join(i.to_bytes(_RECORD, "little") for i in batch))
                    fed = batch.stop
            except BlockingIOError:
                # the queue is full: work on an item that it does not hold
                work(fed)
                fed += 1
        os.close(feed)
        open_fds.remove(feed)
        while not failures and (record := os.read(take, _RECORD)):
            work(int.from_bytes(record, "little"))
        payloads = {pid: _read_to_end(receive) for pid, receive in children.items()}
    except BaseException:
        if os.getpid() != parent:  # a child that left _serve by an exception
            os._exit(1)
        import signal  # only here, on the kill path

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
        payload = loads(data)
        if isinstance(payload, BaseException):
            raise payload
        done, failure = payload
        for index, result in done:
            results[index] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
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
    from the queue, until the queue is empty or an item raises; then its
    (index, result) pairs and the (index, exception) of that item or None,
    or the BaseException that stopped it, pickled to send.  It exits
    without returning, so it never runs the caller's code or flushes the
    caller's stdio buffers."""
    code = 1
    try:
        try:
            _pin({core})
            done = []
            failure = None
            while failure is None and (record := os.read(take, _RECORD)):
                index = int.from_bytes(record, "little")
                try:
                    done.append((index, fn(items[index])))
                except Exception as exc:
                    failure = (index, exc)
            payload: object = (done, failure)
        except BaseException as exc:
            payload = exc
        data = memoryview(dumps(payload, -1))  # -1: the highest protocol
        while data:
            data = data[os.write(send, data):]
        code = 0
    finally:
        os._exit(code)

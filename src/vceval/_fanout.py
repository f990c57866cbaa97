"""Map a function over items on every core that this process may run on,
in forked worker processes.  filter compiles its corpus files this way,
lifecycle the distinct files of all its versions in one call, and score
scores its instances and encodes their per-instance rows, so that only
those rows and the @k values come back.  Imported by its callers when they
run, so that commands which do not use it neither compile nor load it.
"""

from __future__ import annotations

import os

# pickle.dumps and pickle.loads are _pickle's on CPython, but importing them
# through pickle also loads its pure-Python pickler: ~2 ms more.
from _pickle import dumps, loads
from collections.abc import Callable, Iterator, Sequence
from typing import NoReturn, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

# Runs of items in fan_out's work queue, which holds one byte per run: 256
# bytes are fewer than PIPE_BUF, so an empty pipe takes them in one write.
_RUNS = 256


def fan_out(fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
    """[fn(item) for item in items], worked on every core this process may
    run on.

    Where os.fork and os.sched_getaffinity exist and there are two or more
    items, one child is forked per further usable core (at most one per
    item) and the calling process works beside them, each worker bound to a
    core of its own; the caller's affinity mask is restored.  The items
    reach the children through fork.  Before the first fork, a pipe is
    filled with one byte per run of consecutive items (at most 256 runs, so
    up to 256 items a run is one item) and closed for writing; each worker
    takes its next run from it when it is free, so a worker on a starved
    core just takes fewer, and each child sends back its (index, result)
    pairs pickled.  The results are the same for any number of cores.
    Nothing that fn logs in a child is carried back, so callers log in the
    calling process.

    fn must return a value for every item: a caller turns the failures it
    expects into values and handles them in its own input order.  An
    exception that fn raises anyway ends the call.  Raised in the calling
    process, it kills the children at once; raised in a child, it is
    raised here once the queue is drained.  A child that ends without
    sending its results raises ChildProcessError.  Every child is reaped
    before this returns or raises.  No thread is started.
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
        os.write(feed, bytes(range(min(len(items), _RUNS))))
        os.close(feed)
        open_fds.remove(feed)
        for worker in range(1, workers):
            receive, send = os.pipe()
            open_fds |= {receive, send}
            pid = os.fork()
            if pid == 0:
                _serve(fn, items, take, send, cores[worker])
            children[pid] = receive
            os.close(send)
            open_fds.remove(send)
        _pin({cores[0]})
        for index, result in _work(fn, items, take):
            results[index] = result
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
        for index, result in payload:
            results[index] = result
    return results


def _work(fn: Callable[[_T], _R], items: Sequence[_T], take: int) -> Iterator[tuple[int, _R]]:
    """(index, fn(item)) for each item of each run that this worker takes
    from the queue at take, until the queue is empty."""
    n = len(items)
    runs = min(n, _RUNS)
    while run := os.read(take, 1):
        for index in range(run[0] * n // runs, (run[0] + 1) * n // runs):
            yield index, fn(items[index])


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
    """A fan_out child's whole run: _work until the queue, filled before
    the fork, is empty; then its (index, result) pairs, or the
    BaseException that stopped it, pickled to send.  It exits without
    returning, so it never runs the caller's code or flushes the caller's
    stdio buffers."""
    code = 1
    try:
        try:
            _pin({core})
            payload: object = list(_work(fn, items, take))
        except BaseException as exc:
            payload = exc
        data = memoryview(dumps(payload, -1))  # -1: the highest protocol
        while data:
            data = data[os.write(send, data):]
        code = 0
    finally:
        os._exit(code)

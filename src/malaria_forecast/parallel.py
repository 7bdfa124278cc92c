"""Map a function over independent items on forked worker processes.

The pipeline's units are independent: each old province is imputed with its
own child generator, and each (region, variant) model is trained and
forecast from its own derived seed. :func:`pmap` runs such units on up to one
worker process per usable CPU and returns their results in item order, so
what a caller writes does not depend on the worker count or the schedule.

The parent builds the item list, then forks the workers, so each worker
inherits the function and the items as they are: nothing is imported again
and no argument is pickled. The parent hands a worker an item by writing its
index to that worker's task pipe; the worker answers with a length-prefixed
pickle of ``(ok, result or exception)`` on its result pipe, and the parent
waits on all result pipes with one ``poll``. A worker that dies before it
answers closes its result pipe, and the parent reports the item and the
worker's exit status. No helper thread or process is started, so the parent
stays single-threaded when it forks (the package pins BLAS to one thread).
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import sys

__all__ = ["pmap", "usable_cpus"]

# An item index on a task pipe, or the byte length of a reply on a result pipe.
_HEADER = struct.Struct("Q")
_SIGKILL = 9  # the same number on every POSIX system


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pmap(fn, *iterables) -> list:
    """``[fn(*args) for args in zip(*iterables)]`` on ``min(usable CPUs,
    items)`` worker processes; with one worker, a plain loop in this process.

    At most one item per worker is handed out at a time, and none after an
    item has failed; the items in flight then finish, and the exception of
    the lowest failing item is raised, as in the plain loop. A worker that
    dies before it answers fails its item with a :class:`RuntimeError`
    naming the exit status or signal. Every worker has exited and been
    reaped when this returns or raises.
    """
    items = list(zip(*iterables))
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return [fn(*args) for args in items]
    # A forked worker would otherwise hold a copy of any buffered output.
    sys.stdout.flush()
    sys.stderr.flush()
    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    tasks: dict[int, int] = {}  # a worker's result read end -> its task write end
    pids: dict[int, int] = {}  # a worker's result read end -> its pid, until reaped
    running: dict[int, int] = {}  # a worker's result read end -> its item in flight
    queued = iter(range(len(items)))
    poller = select.poll()
    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            tasks[result_r] = task_w
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items, task_r, result_w, tasks.items())
            finally:
                os.close(task_r)
                os.close(result_w)
            pids[result_r] = pid
            poller.register(result_r, select.POLLIN)
        for fd, index in zip(tasks, queued):
            _write_all(tasks[fd], _HEADER.pack(index))
            running[fd] = index
        while running:
            for fd, _ in poller.poll():
                index = running.pop(fd)
                reply = _receive(fd)
                if reply is None:
                    _, status = os.waitpid(pids.pop(fd), 0)
                    errors[index] = RuntimeError(f"the worker running item {index} {_died(status)}")
                elif reply[0]:
                    results[index] = reply[1]
                else:
                    errors[index] = reply[1]
                index = None if errors else next(queued, None)
                if index is None:
                    poller.unregister(fd)
                    os.close(tasks.pop(fd))  # the worker reads EOF and exits
                    os.close(fd)
                else:
                    _write_all(tasks[fd], _HEADER.pack(index))
                    running[fd] = index
    except BaseException:
        for pid in pids.values():
            os.kill(pid, _SIGKILL)
        raise
    finally:
        for fd, task in tasks.items():
            os.close(fd)
            os.close(task)
        for pid in pids.values():
            os.waitpid(pid, 0)
    if errors:
        raise errors[min(errors)]
    return results


def _serve(fn, items: list, tasks: int, results: int, parent_ends) -> None:
    """A worker's life: answer each item index read from ``tasks`` on
    ``results`` until ``tasks`` reaches EOF, then exit. Never returns."""
    code = 1
    try:
        # The parent's ends of this worker's pipes and of every earlier
        # worker's: a copy kept open here would hide that worker's EOF.
        for pair in parent_ends:
            for fd in pair:
                os.close(fd)
        while header := _read_exact(tasks, _HEADER.size):
            (index,) = _HEADER.unpack(header)
            try:
                reply = True, fn(*items[index])
            except Exception as exc:
                reply = False, exc
            data = _pickled(index, reply)
            _write_all(results, _HEADER.pack(len(data)) + data)
        code = 0
    except KeyboardInterrupt:
        pass  # Ctrl-C reaches the whole process group; the parent reports it
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            # Inherited atexit handlers and buffers belong to the parent.
            os._exit(code)


def _pickled(index: int, reply: tuple) -> bytes:
    """``reply`` pickled, or a pickled RuntimeError when it cannot be sent
    back: an exception must also unpickle in the parent."""
    ok, value = reply
    try:
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        if not ok:
            pickle.loads(data)
        return data
    except Exception as exc:
        what = "its result" if ok else repr(value)
        error = RuntimeError(f"item {index}: {what} cannot be pickled ({exc!r})")
        return pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)


def _receive(fd: int):
    """One reply from a result pipe, or None if it reached EOF first."""
    header = _read_exact(fd, _HEADER.size)
    if len(header) == _HEADER.size:
        (size,) = _HEADER.unpack(header)
        data = _read_exact(fd, size)
        if len(data) == size:
            return pickle.loads(data)
    return None


def _died(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by signal {-code} before it answered"
    return f"exited with status {code} before it answered"


def _read_exact(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer if it reaches EOF first."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            break
        data += chunk
    return bytes(data)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]

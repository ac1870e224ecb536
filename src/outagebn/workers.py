"""Forked workers that each take one part of a job: how many parts to make,
and the one path that forks them, hands each its pipe and reaps them.

The weather CSV's parse and write both split their work into ranges, do
the first range in the calling process and hand each other range to a
worker made with ``os.fork``, which sends its result back through a pipe.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import sys
import warnings

# A job is split into no more than MAX_PARTS parts: a part costs one fork,
# and the caller waits for the slowest part.
MAX_PARTS = 8
# copy_payload moves a payload COPY_BYTES at a time, one pipe's capacity
COPY_BYTES = 1 << 16


def part_count(size: int, min_part: int) -> int:
    """How many parts to split a job of ``size`` units into: one per usable
    CPU, but no more than one per ``min_part`` units and no more than
    :data:`MAX_PARTS`, and never fewer than one; one where ``os.fork`` is
    missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), size // min_part, MAX_PARTS))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def forked(send, ranges: list[tuple[int, int]]):
    """Fork one worker per range that runs ``send(pipe, start, stop)``; yields
    the ``(pid, read end of its pipe)`` of each, in range order.

    A fork that fails stops the forking, so the workers cover the first
    ranges only and the caller does the rest itself. On exit every worker
    is killed and reaped, whatever the body raised.
    """
    started: list[tuple[int, io.BufferedReader]] = []
    try:
        for start, stop in ranges:
            try:
                started.append(_fork(send, start, stop))
            except OSError:  # no process to spare
                break
        yield started
    finally:
        for pid, pipe in started:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(send, start: int, stop: int) -> tuple[int, io.BufferedReader]:
    """Run ``send(pipe, start, stop)`` in a forked worker, ``pipe`` being the
    write end of a new pipe: the worker's pid, and the read end.

    Fork, not spawn: the worker needs the parent's imported numpy and
    arrays and nothing else, and runs only numpy, ``repr`` and a pipe
    write.
    """
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of fork in a process with threads, such as
            # BLAS's idle pool, which the worker never calls
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                send(pipe, start, stop)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def send_payload(chunks_of, pipe, start: int, stop: int) -> None:
    """A worker's reply of ``chunks_of(start, stop)``, an iterable of bytes:
    their total length as 8 bytes in native order, then the chunks, or
    nothing if ``chunks_of`` gives ``None``.

    Every chunk is made before the first byte goes out. The caller copies
    a worker's payload only once it has done what comes before it, and a
    pipe holds 64 KiB, so a worker that sent each chunk as it went would
    wait at its first one.
    """
    chunks = chunks_of(start, stop)
    if chunks is not None:
        chunks = list(chunks)
        pipe.write(sum(map(len, chunks)).to_bytes(8, sys.byteorder))
        pipe.writelines(chunks)


def payload_size(pipe: io.BufferedReader) -> int | None:
    """The length of the payload that a worker's pipe (:func:`send_payload`)
    carries next, or ``None`` if the worker sent none, or died first."""
    head = pipe.read(8)
    return int.from_bytes(head, sys.byteorder) if len(head) == 8 else None


def copy_payload(pipe: io.BufferedReader, out) -> bool:
    """Copy a worker's payload (:func:`send_payload`) from its pipe to the
    binary file ``out``, :data:`COPY_BYTES` at a time, or ``False`` if the
    worker died before it sent all of it."""
    left = payload_size(pipe)
    if left is None:
        return False
    while left:
        chunk = pipe.read(min(left, COPY_BYTES))
        if not chunk:
            return False
        out.write(chunk)
        left -= len(chunk)
    return True

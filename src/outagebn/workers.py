"""Forked workers that each take one part of a job: how many parts to make,
and the one path that forks them, carries their replies and reaps them.

The weather CSV's parse and write both split their work into ranges, do
the first range in the calling process and hand each other range to a
worker made with ``os.fork``. A write's worker formats its rows' floats
in numpy, as ``repr`` would write them, and sends the bytes. A worker's
reply is ``job(start, stop)``, an iterable of bytes, or ``None`` to send
nothing, and goes back through a pipe after its length. The caller does
itself each range that has no full reply: its fork failed, or its worker
sent nothing or died first.
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
def forked(job, ranges: list[tuple[int, int]]):
    """Fork one worker per range that replies ``job(start, stop)``; yields
    one item per range, in range order: the read end of its worker's pipe,
    or ``None`` where no worker was forked.

    A fork that fails stops the forking, so the workers cover the first
    ranges only and the caller does the rest itself. On exit every worker
    is killed and reaped, whatever the body raised.
    """
    started: list[tuple[int, io.BufferedReader]] = []
    try:
        for start, stop in ranges:
            try:
                started.append(_fork(job, start, stop))
            except OSError:  # no process to spare
                break
        yield [pipe for _, pipe in started] + [None] * (len(ranges) - len(started))
    finally:
        for pid, pipe in started:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(job, start: int, stop: int) -> tuple[int, io.BufferedReader]:
    """Run ``job(start, stop)`` in a forked worker that sends its reply
    through a new pipe: the worker's pid, and the read end.

    Every chunk of the reply is made before the first byte goes out. The
    caller reads a worker's reply only once it has done what comes before
    it, and a pipe holds 64 KiB, so a worker that sent each chunk as it
    went would wait at its first one.

    Fork, not spawn: the worker needs the parent's imported numpy and
    arrays and nothing else, and runs only numpy (with ``repr`` for the
    rare float cell that numpy does not settle) and a pipe write.
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
                chunks = job(start, stop)
                if chunks is not None:
                    chunks = list(chunks)
                    pipe.write(sum(map(len, chunks)).to_bytes(8, sys.byteorder))
                    pipe.writelines(chunks)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def read_size(pipe: io.BufferedReader) -> int | None:
    """The length of the reply that a worker's pipe carries, or ``None`` if
    the worker sent none, or died first."""
    head = pipe.read(8)
    return int.from_bytes(head, sys.byteorder) if len(head) == 8 else None


def copy_payload(pipe: io.BufferedReader, out) -> bool:
    """Copy a worker's reply from its pipe to the binary file ``out``,
    :data:`COPY_BYTES` at a time, or ``False`` if the worker sent none, or
    died before it sent all of it."""
    left = read_size(pipe)
    if left is None:
        return False
    while left:
        chunk = pipe.read(min(left, COPY_BYTES))
        if not chunk:
            return False
        out.write(chunk)
        left -= len(chunk)
    return True

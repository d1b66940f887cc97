"""The one hand-off to a second CPU, and the one place kolgas forks: the
trace sampler (``sim._sampler``) and the sweep's formatting child
(``cli.cmd_sweep``) are each a ``Handoff`` that ``start`` forks, not
spawns, so that the child does not import numpy and scipy again."""
from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import threading
import warnings
from collections import deque
from typing import Callable

import numpy as np

from .randomness import two_cpus

#: Slots of a hand-off, so the child can start the next piece as soon as
#: it has finished one, while this process works on.
_SLOTS = 2


class Handoff:
    """A forked child that runs ``work(slot)`` on each piece this process
    puts in one of ``_SLOTS`` slots of a shared ``mmap``, and the keys of
    the pieces it owes, oldest first.  ``fill(slot, *source)`` puts a
    piece in a slot, ``work`` writes the slot's field ``result``, and
    ``collect`` copies that out by key.  Each side wakes the other by a
    semaphore post: on Linux, a wake-up through a pipe moves the sleeper
    onto the waker's CPU, where the two run in turn (with a pipe, sampler
    runs at n=10^3 were 5-9% slower than sampling in-process).

    If the child dies, or exits because ``work`` raised, ``work`` runs
    here on each owed slot, oldest first, so the first failing piece
    raises its own error.
    """

    def __init__(self, slot: np.dtype, work: Callable[[np.void], None],
                 fill: Callable[..., None], result: str) -> None:
        ctx = multiprocessing.get_context("fork")
        self.slots = np.frombuffer(mmap.mmap(-1, _SLOTS * slot.itemsize),
                                   dtype=slot)
        self.work, self.fill, self.result = work, fill, result
        self.posted, self.done = ctx.Semaphore(0), ctx.Semaphore(0)
        self.owed: deque[int] = deque()
        self.collected = 0
        self.process = forked(_serve, self.slots, work, self.posted, self.done)
        self.owner = os.getpid()

    def take(self, out, key: int, *source) -> bool:
        """Collect what is done into ``out``, then hand ``source`` over as
        ``key`` if a slot is free; False if the caller must do it itself.
        The last key of ``out`` goes out only to an idle child, or the
        caller would wait while it works through two."""
        self.collect(out, wait=False)
        if len(self.owed) >= (_SLOTS if key < len(out) - 1 else 1):
            return False
        self.fill(self.slots[(self.collected + len(self.owed)) % _SLOTS],
                  *source)
        self.owed.append(key)
        self.posted.release()
        return True

    def collect(self, out, wait: bool) -> None:
        """Write the owed results into ``out``, oldest first, up to the
        first one not finished, or with ``wait`` all of them; once the
        child has exited, the pieces it owes are done here."""
        while self.owed:
            slot = self.slots[self.collected % _SLOTS]
            alive = self.process.is_alive()
            # every post comes before the exit, so a piece a dead child
            # posted is found here, and only the others are done again
            if not self.done.acquire(block=wait and alive, timeout=0.1):
                if alive:
                    if not wait:
                        return
                    continue
                self.close()
                self.work(slot)
            out[self.owed.popleft()] = slot[self.result]
            self.collected += 1

    def close(self) -> None:
        """Stop the child; it does no more work."""
        self.process.kill()
        self.process.join()


def _serve(slots: np.ndarray, work: Callable[[np.void], None],
           posted, done) -> None:
    """The child: run ``work`` on each slot in the order they were posted,
    leaving ^C to the parent.  It exits when its parent has gone, and
    when ``work`` raises, which makes the parent do that piece itself."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    served = 0
    while os.getppid() == parent:
        if posted.acquire(timeout=1.0):
            try:
                work(slots[served % _SLOTS])
            except Exception:  # the parent, seeing no result, does it again
                return
            served += 1
            done.release()


def start(slot: np.dtype, work: Callable[[np.void], None],
          fill: Callable[..., None], result: str) -> Handoff | None:
    """A ``Handoff`` with its child forked; None where ``may_fork()`` is
    false or the fork fails, and the caller does the work itself."""
    handoff = Handoff(slot, work, fill, result) if may_fork() else None
    return None if handoff is None or handoff.process is None else handoff


#: Set when a fork has failed: this process forks no more, because each
#: failed start leaks the two pipes ``multiprocessing`` opened for it.
_FORK_FAILED = False


def may_fork() -> bool:
    """Whether this process may fork a helper: it may use two CPUs (as
    ``os.sched_getaffinity`` must tell), no fork of it has failed, it is
    no daemon (such as a ``multiprocessing.Pool`` worker), it has the
    ``fork`` start method, and it runs no other Python thread, whose
    locks a forked child would inherit."""
    return (not _FORK_FAILED and two_cpus()
            and not multiprocessing.current_process().daemon
            and "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1)


def forked(target: Callable[..., object],
           *args) -> multiprocessing.Process | None:
    """A started daemon process, forked with SIGINT blocked, that runs
    ``target(*args)``; None where the fork fails.  ``multiprocessing``
    flushes stdio before it forks, so the child repeats no output.

    Python 3.12+'s warning at a fork while the OS counts more than one
    thread is ignored: ``may_fork`` admits no other Python thread, and
    numpy's and scipy's OpenBLAS join their pools in a pthread_atfork
    handler (no child calls BLAS), but a joined thread can be counted
    for a moment after the join.
    """
    global _FORK_FAILED
    process = multiprocessing.get_context("fork").Process(
        target=target, args=args, daemon=True)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"This process .*is multi-threaded, use of fork\(\)",
                DeprecationWarning)
            process.start()
    except OSError:  # EAGAIN at the process limit, or no file descriptors
        _FORK_FAILED = True
        return None
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return process

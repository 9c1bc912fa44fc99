"""Forked worker processes, one BLAS thread each, for the six TTA views.

On a few CPUs, one OpenBLAS thread does nearly the work of all of them on
this model's GEMMs, so N one-thread processes that share the views run them
about N times as fast, and bitwise the same.  The workers are forked at the
first call and inherit the predictor; they are forked again only when the
predictor's content key changes, so a reloaded checkpoint with the same
bytes reuses them.  ``map_split`` runs in the calling process where no pool
can: one usable CPU, no ``os.fork``, or no OpenBLAS thread control found.
One caller at a time: the pool is not shared between threads.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import os
import pickle
import signal
import weakref
import zlib
from pathlib import Path

import numpy as np

MAX_WORKERS = 6          # one per TTA view

_pool = None             # the live _Pool, or None


class WorkerError(RuntimeError):
    """A worker process died before it returned its views."""


def worker_count() -> int:
    """Workers one call may use: one per usable CPU, at most MAX_WORKERS."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), MAX_WORKERS)


@functools.cache
def _openblas():
    """numpy's OpenBLAS (set_num_threads, thread_shutdown), or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        set_threads = (getattr(lib, "scipy_openblas_set_num_threads64_", None)
                       or getattr(lib, "openblas_set_num_threads", None))
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if set_threads is not None and shutdown is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            return set_threads, shutdown
    return None


def _key(net):
    """What the workers' copy of ``net`` must match: its class and config and
    each state tensor's name, shape, dtype and CRC-32; an ensemble's member
    keys and weights; a weak reference for a predictor without state (an
    ``id`` could be reused by a later object)."""
    members = getattr(net, "models", None)
    if members is not None:
        return type(net), tuple(map(_key, members)), np.asarray(net.weights).tobytes()
    if not hasattr(net, "state_dict"):
        return type(net), weakref.ref(net)
    return type(net), getattr(net, "config", None), tuple(
        (name, a.shape, a.dtype.str, zlib.crc32(np.ascontiguousarray(a)))
        for name, a in net.state_dict().items())


def _send(file, obj):
    pickle.dump(obj, file, pickle.HIGHEST_PROTOCOL)
    file.flush()


def _serve(requests, replies, net):
    """A worker's loop: ``(ok, fn(net, *args))`` per request until EOF."""
    while True:
        try:
            fn, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = True, fn(net, *args)
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = False, exc
        _send(replies, reply)


class _Pool:
    def __init__(self, key, net, count: int, set_threads):
        self.key = key
        self.workers = []          # (pid, request file, reply file)
        try:
            for _ in range(count):
                self._fork(net, set_threads)
        except BaseException:
            self.close(kill=True)
            raise

    def _fork(self, net, set_threads):
        down, up = os.pipe(), os.pipe()          # (read fd, write fd) each
        try:
            pid = os.fork()
        except OSError:
            for fd in (*down, *up):
                os.close(fd)
            raise
        if pid == 0:
            try:
                # a sibling holding a request pipe would hide its EOF
                for _, requests, replies in self.workers:
                    requests.close()
                    replies.close()
                os.close(down[1])
                os.close(up[0])
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                set_threads(1)
                _serve(os.fdopen(down[0], "rb"), os.fdopen(up[1], "wb"), net)
            finally:
                os._exit(0)
        os.close(down[0])
        os.close(up[1])
        self.workers.append((pid, os.fdopen(down[1], "wb"), os.fdopen(up[0], "rb")))

    def close(self, kill: bool = False) -> dict:
        """Close each request pipe, so its worker exits (or kill it), and
        reap the workers; returns each one's exit status."""
        workers, self.workers = self.workers, []
        for pid, requests, replies in workers:
            for file in (requests, replies):
                try:
                    file.close()
                except OSError:          # the unflushed rest of a request
                    pass
            if kill:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        status = {}
        for pid, _, _ in workers:
            try:
                status[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            except ChildProcessError:
                pass
        return status

    def _died(self, pid: int) -> WorkerError:
        # a worker that has exited keeps its own status: SIGKILL cannot change it
        status = self.close(kill=True).get(pid)
        return WorkerError(f"TTA worker {pid} died with exit status {status}")

    def run(self, fn, batch, chunks) -> tuple:
        """(the workers' lists joined in order, the first worker exception)."""
        for (pid, requests, _), chunk in zip(self.workers, chunks):
            try:
                _send(requests, (fn, (batch, chunk)))
            except OSError:
                raise self._died(pid) from None
        results, error = [], None
        for pid, _, replies in self.workers:
            try:
                ok, value = pickle.load(replies)
            except (EOFError, OSError, pickle.UnpicklingError):
                raise self._died(pid) from None
            if ok:
                results.extend(value)
            elif error is None:
                error = value
        return results, error


def map_split(net, fn, batch: np.ndarray, items: tuple) -> list:
    """``fn(net, batch, items)``: a list with one result per item, in order.

    With a pool, ``items`` is cut into one contiguous chunk per worker and
    the chunks' lists are joined in order.  A worker's exception is raised
    here with its type and message; a worker that dies raises WorkerError,
    and the next call forks a fresh pool.
    """
    global _pool
    count = min(worker_count(), len(items))
    blas = _openblas() if count > 1 else None
    if blas is None:
        return fn(net, batch, items)
    set_threads, shutdown = blas
    # idle BLAS threads of this process would spin on a core a worker needs,
    # and a fork copies none of them
    shutdown()
    key = _key(net)
    if _pool is None or len(_pool.workers) != count or _pool.key != key:
        close()
        _pool = _Pool(key, net, count, set_threads)
    n = len(items)
    chunks = [items[i * n // count:(i + 1) * n // count] for i in range(count)]
    pool = _pool
    try:
        results, error = pool.run(fn, batch, chunks)
    except BaseException:
        # a dead worker, or an interrupt that left replies unread
        pool.close(kill=True)
        _pool = None
        raise
    if error is not None:
        raise error
    return results


def close():
    """Close the pool: each worker sees EOF on its request pipe and exits."""
    global _pool
    if _pool is not None:
        _pool.close()
        _pool = None


atexit.register(close)

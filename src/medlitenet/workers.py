"""Forked worker processes, one BLAS thread each, for the six TTA views and
for the micro-batches of each training step.

On a few CPUs, one OpenBLAS thread does nearly the work of all of them on
this model's GEMMs, so N one-thread processes that share the work run it
about N times as fast, and bitwise the same.  The workers are forked at the
first call and inherit the net; they are forked again only when the worker
count or the net's layout changes (its class, its config and each state
tensor's name, shape and dtype), so a fit, a TTA of its checkpoint and the
next fit share one pool.

Tensor values reach the workers through shared memory, an anonymous
``mmap`` made before the fork: two copies of the state and one gradient slot
per worker, a table shaped like the parameters.  TTA's copy is rewritten
when the predictor's values differ from those it holds.  Training writes its
own copy before each step, so a fit leaves TTA's as it was, and each
worker's backward adds into its zeroed slot.  The parent drops its pages of
a shared tensor once it has written or read it, so its resident set holds
its own weights and summed gradients, as without workers; each worker holds
the shared pages it reads, its own tape and its maps.  Batches, maps, losses
and BatchNorm statistics travel as pickles over one pipe pair per worker.

Where no pool can run (one usable CPU, no ``os.fork``, or no OpenBLAS
thread control found) the caller does the work itself: ``map_split`` calls
``fn`` here and ``acquire`` returns None.  One caller at a time: the pool is
not shared between threads.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import mmap
import os
import pickle
import signal
import weakref
import zlib
from pathlib import Path

import numpy as np

MAX_WORKERS = 6          # one per TTA view
_ALIGN = 64              # bytes; each shared tensor starts on a cache line
_DROP_BYTES = 1 << 20    # the parent drops its shared pages in runs this long

_pool = None             # the live _Pool, or None


class WorkerError(RuntimeError):
    """A worker process died before it returned its results."""


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


def _modules(net) -> list:
    """The modules whose state the workers read: ``net``, an ensemble's
    members, or none for a predictor without ``state_dict``."""
    members = getattr(net, "models", None)
    if members is not None:
        return list(members)
    return [net] if hasattr(net, "state_dict") else []


def _layout(net):
    """What a forked copy of ``net`` shares with every net it can serve: the
    class and config and each state tensor's name, shape and dtype; an
    ensemble's member layouts and weights; a weak reference for a predictor
    without state (an ``id`` could be reused by a later object)."""
    members = getattr(net, "models", None)
    if members is not None:
        return type(net), tuple(map(_layout, members)), np.asarray(net.weights).tobytes()
    if not hasattr(net, "state_dict"):
        return type(net), weakref.ref(net)
    return type(net), getattr(net, "config", None), tuple(
        (name, a.shape, a.dtype.str) for name, a in net.state_dict().items())


def _content(net) -> tuple:
    """The CRC-32 of each state tensor of ``net``."""
    return tuple(zlib.crc32(np.ascontiguousarray(a))
                 for module in _modules(net) for a in module.state_dict().values())


def _padded(a: np.ndarray) -> int:
    return -(-a.nbytes // _ALIGN) * _ALIGN


def _carve(memory, offset: int, table: dict) -> tuple:
    """Views of ``memory`` shaped like ``table``'s arrays, from ``offset`` on;
    returns them by name and the offset after them."""
    views = {}
    for name, a in table.items():
        views[name] = np.frombuffer(memory, a.dtype, a.size, offset).reshape(a.shape)
        offset += _padded(a)
    return views, offset


def _send(file, obj):
    pickle.dump(obj, file, pickle.HIGHEST_PROTOCOL)
    file.flush()


def _serve(requests, replies, net, state, grads):
    """A worker's loop until EOF, per request ``(fn, train, args)``: bind
    ``net`` to the shared copy ``state[train]`` unless it is bound to it
    already; for a ``train`` job, point each parameter's gradient at this
    worker's zeroed slot ``grads``; reply ``(ok, fn(net, *args))``."""
    bound = None
    while True:
        try:
            fn, train, args = pickle.load(requests)
        except EOFError:
            return
        try:
            if train != bound:
                # values change in place; a bound copy needs binding again
                # only after the other copy was used
                for module, views in zip(_modules(net), state[train]):
                    module.load_state_dict(views)
                bound = train
            if train:
                for name, p in net.named_parameters():
                    p.grad = grads[name]
                    p.grad.fill(0)
            reply = True, fn(net, *args)
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = False, exc
        _send(replies, reply)


class _Pool:
    def __init__(self, layout, net, count: int, blas):
        self.layout = layout
        self.set_threads, self.shutdown = blas
        self.workers = []              # (pid, request file, reply file)
        tables = [module.state_dict() for module in _modules(net)]
        params = ({name: p.data for name, p in net.named_parameters()}
                  if hasattr(net, "named_parameters") else {})
        size = (2 * sum(map(_padded, (a for t in tables for a in t.values())))
                + count * sum(map(_padded, params.values())))
        self.memory = mmap.mmap(-1, max(size, 1))
        self.base = np.frombuffer(self.memory, np.uint8).ctypes.data
        # two copies of the state, by ``train``: the one TTA reads, which a
        # fit leaves as it was, and the one training writes each step
        offset = 0
        self.state = ([], [])
        for copy in self.state:
            for table in tables:
                views, offset = _carve(self.memory, offset, table)
                copy.append(views)
        self.grads = []
        for _ in range(count):
            views, offset = _carve(self.memory, offset, params)
            self.grads.append(views)
        self.content = None      # of TTA's copy, written at the first TTA
        try:
            for _ in range(count):
                self._fork(net)
        except BaseException:
            self.close(kill=True)
            raise

    def _fork(self, net):
        grads = self.grads[len(self.workers)]
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
                self.set_threads(1)
                _serve(os.fdopen(down[0], "rb"), os.fdopen(up[1], "wb"), net,
                       self.state, grads)
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

    def _visit(self, views: dict):
        """``views.values()``, each once, while this process drops its pages
        of those already visited, every _DROP_BYTES and at the end: the
        values stay, also for the workers, but leave its resident set."""
        start = None
        for view in views.values():
            offset = view.ctypes.data - self.base
            if start is None:
                start = offset - offset % mmap.PAGESIZE
            yield view
            end = offset + view.nbytes
            if end - start >= _DROP_BYTES:
                self.memory.madvise(mmap.MADV_DONTNEED, start, end - start)
                start = None
        if start is not None:
            self.memory.madvise(mmap.MADV_DONTNEED, start, end - start)

    def load(self, net, train: bool = False):
        """Copy ``net``'s state into the shared copy ``state[train]``."""
        for module, views in zip(_modules(net), self.state[train]):
            for a, view in zip(module.state_dict().values(), self._visit(views)):
                view[...] = a

    def _died(self, pid: int, job: str) -> WorkerError:
        # a worker that has exited keeps its own status: SIGKILL cannot change it
        status = self.close(kill=True).get(pid)
        return WorkerError(f"worker {pid} died with exit status {status} during {job}")

    def _run(self, fn, chunks, job: str, train: bool) -> tuple:
        """(each worker's result, the first worker exception) for
        ``fn(net, *args)`` on worker k with the k-th ``args`` of ``chunks``."""
        # idle BLAS threads of this process would spin on a core a worker
        # needs, and a fork copies none of them
        self.shutdown()
        busy = self.workers[:len(chunks)]
        for (pid, requests, _), args in zip(busy, chunks):
            try:
                _send(requests, (fn, train, args))
            except OSError:
                raise self._died(pid, job) from None
        results, error = [], None
        for pid, _, replies in busy:
            try:
                ok, value = pickle.load(replies)
            except (EOFError, OSError, pickle.UnpicklingError):
                raise self._died(pid, job) from None
            if ok:
                results.append(value)
            elif error is None:
                error = value
        return results, error

    def run(self, fn, chunks, job: str, train: bool = False) -> list:
        """Each worker's ``fn(net, *args)``, in order.  A worker's exception
        is raised here with its type and message; a worker that dies raises
        WorkerError naming ``job``, and the next call forks a fresh pool."""
        global _pool
        try:
            results, error = self._run(fn, chunks, job, train)
        except BaseException:
            # a dead worker, or an interrupt that left replies unread
            self.close(kill=True)
            if _pool is self:
                _pool = None
            raise
        if error is not None:
            raise error
        return results

    def each(self, fn, items, job: str, named):
        """``fn(net, *item)`` for each item, one item per worker, each with
        its gradients in a zeroed slot: yields the results in item order,
        each once its gradients are added into the ``grad`` of ``named``'s
        parameters (a copy of the first).  With more items than workers they
        run in rounds."""
        for start in range(0, len(items), len(self.workers)):
            chunk = items[start:start + len(self.workers)]
            for result, slot in zip(self.run(fn, chunk, job, train=True), self.grads):
                for (_, p), g in zip(named, self._visit(slot)):
                    if p.grad is None:
                        p.grad = g.copy()
                    else:
                        p.grad += g
                yield result


def acquire(net):
    """The pool for ``net``'s layout, forked anew if there is none, or it has
    another layout or other than ``worker_count()`` workers; None where no
    pool can run."""
    global _pool
    count = worker_count()
    blas = _openblas() if count > 1 else None
    if blas is None:
        return None
    layout = _layout(net)
    if _pool is None or len(_pool.workers) != count or _pool.layout != layout:
        close()
        blas[1]()                # no BLAS thread of this process is forked
        _pool = _Pool(layout, net, count, blas)
    return _pool


def map_split(net, fn, batch: np.ndarray, items: tuple) -> list:
    """``fn(net, batch, items)``: a list with one result per item, in order.

    With a pool, ``items`` is cut into one contiguous chunk per worker and
    the chunks' lists are joined in order; the workers read ``net``'s
    tensor values, copied in when they differ from those they hold.
    """
    pool = acquire(net) if len(items) > 1 else None
    if pool is None:
        return fn(net, batch, items)
    content = _content(net)
    if pool.content != content:
        pool.load(net)
        pool.content = content
    n, count = len(items), min(len(items), len(pool.workers))
    chunks = [(batch, items[i * n // count:(i + 1) * n // count]) for i in range(count)]
    return [result for part in pool.run(fn, chunks, "TTA") for result in part]


def close():
    """Close the pool: each worker sees EOF on its request pipe and exits."""
    global _pool
    if _pool is not None:
        _pool.close()
        _pool = None


atexit.register(close)

"""Forked worker processes, one BLAS thread each, for the six TTA views and
for the micro-batches and the optimizer step of each training step.

On a few CPUs, one OpenBLAS thread does nearly the work of all of them on
this model's GEMMs, so N one-thread processes that share the work run it
about N times as fast, and bitwise the same.  The workers are forked at the
first call and inherit the net; they are forked again only when the worker
count or the net's layout changes (its class, its config and each state
tensor's name, shape and dtype), so a fit, a TTA of its checkpoint and the
next fit share one pool.

Tensor values reach the workers through shared memory, a memfd mapped
before the fork.  It holds one copy of the state, TTA's, rewritten when the
predictor's values differ from those it holds; then the ``TABLES`` of a fit,
each shaped like the parameters: the parameters themselves, both AdamW
moments, the summed gradients and the EMA shadow of the parameters; then one
gradient slot per worker.  For a whole fit the model's parameters are views
of "param" (``bind``), so a fit leaves TTA's copy as it was and its weights
never travel per step.  Each worker's backward adds into its zeroed slot;
after a round of micro-batches each worker adds the slots into "grad" over
its ``shard``, one contiguous run of the parameters split by bytes, and
``shards`` runs the rest of the optimizer step on the same runs.  The tables
stay allocated between fits, so the next fit does not fault them in again.

The parent writes and reads shared values with ``pwrite`` and ``preadv`` on
the memfd rather than through its mapping, so none of the shared pages
enters its resident set: it holds neither the weights, the moments, the
shadow nor the summed gradients.  Each worker holds the shared pages it
reads, its own tape and its maps, and keeps its heap from one job to the
next (``_keep_heap``).  Batches, maps, losses, BatchNorm statistics and the
per-tensor sums of squares travel as pickles over one pipe pair per worker.

Where no pool can run (one usable CPU; no ``os.fork`` or
``os.memfd_create``; no OpenBLAS thread control found) the caller does the
work itself: ``map_split`` calls ``fn`` here and ``acquire`` returns None.
One caller at a time: the pool is not shared between threads.
"""

from __future__ import annotations

import atexit
import bisect
import ctypes
import functools
import itertools
import mmap
import os
import pickle
import signal
import types
import weakref
import zlib
from collections.abc import Mapping
from pathlib import Path

import numpy as np

MAX_WORKERS = 6          # one per TTA view
_ALIGN = 64              # bytes; each shared tensor starts on a cache line
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's mallopt parameters
# a fit's shared tables, each shaped like the parameters
TABLES = ("param", "exp_avg", "exp_avg_sq", "grad", "shadow")

_pool = None             # the live _Pool, or None


class WorkerError(RuntimeError):
    """A worker process died before it returned its results."""


def worker_count() -> int:
    """Workers one call may use: one per usable CPU, at most MAX_WORKERS."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create")):
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


def _keep_heap():
    """Have glibc keep this process's freed heap and serve arrays of up to
    32 MiB from it (``mallopt``), so that each training step's tape reuses
    the pages of the last instead of faulting fresh ones in: otherwise a
    free at the heap's top between two jobs hands the tape's pages back.
    Without glibc's ``mallopt`` this does nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


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


def _runs(sizes: list, count: int) -> list:
    """``count`` contiguous slices of the indices of ``sizes``, split by
    bytes: each tensor goes to the run that holds its middle byte."""
    total = sum(sizes)
    middles = [count * (2 * end - n) for end, n in zip(itertools.accumulate(sizes), sizes)]
    cuts = [bisect.bisect_left(middles, 2 * total * k) for k in range(1, count)]
    return [slice(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, len(sizes)])]


def _send(file, obj):
    pickle.dump(obj, file, pickle.HIGHEST_PROTOCOL)
    file.flush()


def _serve(requests, replies, net, pool, index: int):
    """Worker ``index``'s loop until EOF, per request ``(fn, mode, args)``.
    A "tta" job binds ``net`` to TTA's copy of the state and a "train" job
    binds its parameters to the table "param", each unless bound there
    already, and a "train" job points each gradient at this worker's zeroed
    slot; both reply ``(ok, fn(net, *args))``.  A "shard" job replies
    ``(ok, fn(shard, *args))`` with this worker's ``_Pool.shard``."""
    bound, shard = None, None
    while True:
        try:
            fn, mode, args = pickle.load(requests)
        except EOFError:
            return
        try:
            if mode == "shard":
                shard = shard or pool.shard(index)
                reply = True, fn(shard, *args)
            else:
                if mode != bound:
                    # values change in place; a bound copy needs binding
                    # again only after the other copy was used
                    if mode == "tta":
                        for module, views in zip(_modules(net), pool.state):
                            module.load_state_dict(views)
                    else:
                        # train-mode BatchNorm reads no running stats, and
                        # its updates rebind them, writing no shared copy
                        for name, p in net.named_parameters():
                            p.data = pool.tables["param"][name]
                    bound = mode
                if mode == "train":
                    for name, p in net.named_parameters():
                        p.grad = pool.slots[index][name]
                        p.grad.fill(0)
                reply = True, fn(net, *args)
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = False, exc
        _send(replies, reply)


def _add_slots(shard, count: int, first: bool):
    """Add the first ``count`` gradient slots into ``shard.grad`` in slot
    order, onto nothing if ``first``: over rounds, (0 + G1) + G2 + ..., the
    sum a serial backward builds."""
    for i, g in enumerate(shard.grad):
        parts = [slot[i] for slot in shard.slots[:count]]
        if first:
            # each slot started at zero, so the first holds 0 + G1
            head, parts = parts[0], parts[1:]
            if parts:
                np.add(head, parts.pop(0), out=g)
            else:
                np.copyto(g, head)
        for part in parts:
            g += part


class _Pool:
    def __init__(self, layout, net, count: int, blas):
        self.layout = layout
        self.set_threads, self.shutdown = blas
        self.workers = []              # (pid, request file, reply file)
        states = [module.state_dict() for module in _modules(net)]
        params = ({name: p.data for name, p in net.named_parameters()}
                  if hasattr(net, "named_parameters") else {})
        size = (sum(map(_padded, (a for t in states for a in t.values())))
                + (len(TABLES) + count) * sum(map(_padded, params.values())))
        # a memfd, so this process can read and write the values with
        # pread and pwrite, never mapping them in
        self.fd = os.memfd_create("medlitenet-workers")
        weakref.finalize(self, os.close, self.fd)
        os.ftruncate(self.fd, max(size, 1))
        self.memory = mmap.mmap(self.fd, max(size, 1))
        self.base = np.frombuffer(self.memory, np.uint8).ctypes.data
        offset = 0
        self.state = []                # TTA's copy, which a fit leaves as it was
        for table in states:
            views, offset = _carve(self.memory, offset, table)
            self.state.append(views)
        self.tables, start = {}, offset
        for name in TABLES:
            self.tables[name], offset = _carve(self.memory, offset, params)
        self.span = start, offset      # the tables' bytes
        self.slots = []
        for _ in range(count):
            views, offset = _carve(self.memory, offset, params)
            self.slots.append(views)
        self.runs = _runs([a.nbytes for a in params.values()], count)
        self.content = None            # of TTA's copy, written at the first TTA
        try:
            for _ in range(count):
                self._fork(net)
        except BaseException:
            self.close(kill=True)
            raise

    def _fork(self, net):
        index = len(self.workers)
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
                _keep_heap()
                _serve(os.fdopen(down[0], "rb"), os.fdopen(up[1], "wb"), net,
                       self, index)
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

    def _offset(self, a: np.ndarray):
        """Where ``a`` starts in the shared memory, or None if outside it."""
        offset = a.ctypes.data - self.base
        return offset if 0 <= offset <= len(self.memory) else None

    def _write(self, view: np.ndarray, a: np.ndarray):
        """Set the shared ``view`` to ``a``'s values, through the memfd."""
        data = np.ascontiguousarray(a, view.dtype)
        if os.pwrite(self.fd, data, self._offset(view)) != data.nbytes:
            raise OSError(f"short write of {data.nbytes} bytes to the worker memory")

    def _read(self, view: np.ndarray, into: np.ndarray = None) -> np.ndarray:
        """A private copy of the shared ``view``, read through the memfd into
        ``into`` (an array like it) or a new array."""
        a = np.empty_like(view) if into is None else into
        if os.preadv(self.fd, [a], self._offset(view)) != a.nbytes:
            raise OSError(f"short read of {a.nbytes} bytes from the worker memory")
        return a

    def load(self, net):
        """Copy ``net``'s state into TTA's shared copy."""
        for module, views in zip(_modules(net), self.state):
            for a, view in zip(module.state_dict().values(), views.values()):
                self._write(view, a)

    def bind(self, named):
        """Copy each of ``named``'s ``(name, parameter)`` values into the
        table "param" and make the parameter a view of its copy there."""
        for (_, p), view in zip(named, self.tables["param"].values()):
            self._write(view, p.data)
            p.data = view

    def unbind(self, named):
        """Give each parameter of ``named`` that ``bind`` made a view a
        private copy of its shared values again, and drop any page of the
        fit's tables that this process mapped in."""
        for (_, p), view in zip(named, self.tables["param"].values()):
            if p.data is view:
                p.data = self._read(view)
        start, end = self.span
        start -= start % mmap.PAGESIZE
        if end > start:
            self.memory.madvise(mmap.MADV_DONTNEED, start, end - start)

    def shard(self, index: int):
        """Worker ``index``'s run of the parameters: ``run``, its slice of
        ``named_parameters`` order, and its views of each of ``TABLES`` and
        of each worker's gradient slot (``slots``), as lists in that order."""
        run = self.runs[index]
        return types.SimpleNamespace(
            run=run, slots=[list(slot.values())[run] for slot in self.slots],
            **{name: list(self.tables[name].values())[run] for name in TABLES})

    def _died(self, pid: int, job: str) -> WorkerError:
        # a worker that has exited keeps its own status: SIGKILL cannot change it
        status = self.close(kill=True).get(pid)
        return WorkerError(f"worker {pid} died with exit status {status} during {job}")

    def _run(self, fn, chunks, job: str, mode: str) -> tuple:
        """(each worker's result, the first worker exception) for
        ``fn(net, *args)`` on worker k with the k-th ``args`` of ``chunks``."""
        # idle BLAS threads of this process would spin on a core a worker
        # needs, and a fork copies none of them
        self.shutdown()
        busy = self.workers[:len(chunks)]
        for (pid, requests, _), args in zip(busy, chunks):
            try:
                _send(requests, (fn, mode, args))
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

    def run(self, fn, chunks, job: str, mode: str = "tta") -> list:
        """Each worker's ``fn(net, *args)`` (see ``_serve`` for ``mode``), in
        order.  A worker's exception is raised here with its type and
        message; a worker that dies raises WorkerError naming ``job``, and
        the next call forks a fresh pool."""
        global _pool
        try:
            results, error = self._run(fn, chunks, job, mode)
        except BaseException:
            # a dead worker, or an interrupt that left replies unread
            self.close(kill=True)
            if _pool is self:
                _pool = None
            raise
        if error is not None:
            raise error
        return results

    def each(self, fn, items, job: str):
        """``fn(net, *item)`` for each item, one item per worker, each with
        its gradients in a zeroed slot: yields the results in item order.
        With more items than workers they run in rounds; after each, the
        workers add its slots into the table "grad", which then holds the
        sum over the items that ran."""
        for start in range(0, len(items), len(self.workers)):
            chunk = items[start:start + len(self.workers)]
            results = self.run(fn, chunk, job, "train")
            self.shards(_add_slots, job, len(chunk), start == 0)
            yield from results

    def shards(self, fn, job: str, *args) -> list:
        """Each worker's ``fn(shard, *args)`` over its own ``shard``, in order."""
        return self.run(fn, [args] * len(self.workers), job, "shard")


class Visited(Mapping):
    """A table of arrays whose ``items()`` yields a private copy of each
    shared one, read when it is reached into one reused buffer (so a reader
    is done with a copy before it takes the next, as
    ``checkpoint.save_checkpoint`` is), and each other array as it is; this
    process never maps the shared pages in."""

    def __init__(self, pool: "_Pool", table: dict):
        self.pool, self.table = pool, table

    def __getitem__(self, name):
        return self.table[name]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)

    def items(self):
        sizes = {}
        for a in self.table.values():
            sizes[a.dtype] = max(sizes.get(a.dtype, 0), a.size)
        buffers = {dtype: np.empty(n, dtype) for dtype, n in sizes.items()}
        for name, a in self.table.items():
            if self.pool._offset(a) is None:
                yield name, a
            else:
                into = buffers[a.dtype][:a.size].reshape(a.shape)
                yield name, self.pool._read(a, into)


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

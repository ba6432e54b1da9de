"""Factorization cache and pole-parallel solves of A_i(m) = K - xi_i * M(m).

Every pole gets its own complex direct factorization.  A cache holds one
factor set under one key (problem, model version, poles), which forward
responses, Jacobian actions and adjoint actions all reuse; one cache may
serve several problems and approximants.  A cache of W pole workers runs
worker 0 in the calling process and, for a set of m poles, workers
1..min(W, m)-1 as forked processes.  This module alone knows which worker
owns which pole: worker p makes, uses and frees the factors of the poles
i = p mod W (`ShiftedFactorCache.owned`) and returns one row per pole,
which `ShiftedFactorCache.gather` puts in pole order.  Workers share no
mutable state, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import socket
import struct
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Model, Problem, assemble_M
from .pool import PoleWorkerPool  # noqa: F401 - kept bound for tools that patch it here
from .rba import RationalApproximant

__all__ = [
    "CacheMissError",
    "SolveError",
    "ShiftedFactorCache",
    "factorize_all_poles",
    "solve_all_poles",
]


class CacheMissError(KeyError):
    """No current factorization for the requested pole."""


class SolveError(RuntimeError):
    """Factorization of a shifted matrix failed, or a pole worker died."""


class _Factor:
    """Sparse direct (SuperLU) complex factorization of one shifted matrix."""

    def __init__(self, A: sp.spmatrix):
        # SuperLU copies A into its own factors and keeps no reference to it,
        # so the caller's K - xi M is freed once the factorization returns
        try:
            self._lu = spla.splu(A)
        except Exception as exc:  # noqa: BLE001 - surface SuperLU failures uniformly
            raise SolveError(f"factorization of shifted matrix failed: {exc}") from exc

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return self._lu.solve(rhs, trans=trans)


@dataclass
class CacheCounters:
    factorizations: int = 0
    solves: int = 0

    def snapshot(self) -> dict:
        return {"factorizations": self.factorizations, "solves": self.solves}


class ShiftedFactorCache:
    """One factorization of A_i(m) per pole, all made for one `factor_key`.

    ``key`` is None while `factorize_all_poles` remakes the factors, after
    a failure and after `close`, and no factor is current then.  Worker 0
    is the calling process.  Workers 1..W-1 are forked processes, each on
    its own copy of this cache, whose ``rank`` is its index;
    `factorize_all_poles` runs exactly the ones that own a pole of the set
    it makes.  `run` applies one module-level operation in every running
    worker, and each process's ``factors``, ``problem`` and ``operator``
    are its own: ``factors`` holds the factors of the poles
    ``owned(m)`` only, while ``key`` and `has` describe the whole set.
    ``counters`` count the work of every worker.  `close` frees this
    process's factors and stops the worker processes; a closed cache
    starts new ones on its next use, and the workers of a cache nobody
    closes stop when it is garbage collected.  A one-worker cache starts
    no process.  Use a cache from one thread.
    """

    def __init__(self, workers: int = 1):
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers!r}")
        self.rank = 0
        self.factors: dict[int, _Factor] = {}
        self.key: tuple | None = None
        self.problem: Problem | None = None     # the problem every worker holds
        self.operator = None                    # this process's part of one Jacobian operator
        self.counters = CacheCounters()
        self._procs: list = []                  # [process, socket, reply buffer] per worker
        self._finalizer = None

    def holds(self, key: tuple) -> bool:
        """Whether the current factors were made for ``key``, a `factor_key`."""
        return self.key is not None and self.key[0] is key[0] and self.key[1:] == key[1:]

    def has(self, i: int, tag: str | None = None) -> bool:
        """Whether pole i has a current factor in some worker, at model
        version ``tag`` if given."""
        return (self.key is not None and 0 <= i < _pole_count(self.key)
                and tag in (None, self.key[1]))

    def factorize(self, i: int, A: sp.spmatrix) -> None:
        self.factors.pop(i, None)      # free the stale factor before making the next
        self.factors[i] = _Factor(A)
        self.counters.factorizations += 1

    def solve(self, i: int, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve with pole i's factor, which this process must own."""
        if not self.has(i):
            raise CacheMissError(f"no current factorization for pole {i}")
        if i % self.workers != self.rank:
            raise CacheMissError(f"pole {i} is factorized in pole worker {i % self.workers}")
        out = self.factors[i].solve(np.asarray(rhs, dtype=complex), trans=trans)
        self.counters.solves += 1
        return out

    def owned(self, m: int) -> range:
        """The poles of an m-pole set that this process owns."""
        return range(self.rank, m, self.workers)

    def gather(self, op, *args) -> list:
        """`run` an operation that returns one row per owned pole; returns
        the rows of every worker in pole order, views valid as `run`'s."""
        rows = self.run(op, *args)
        W = self.workers
        return [rows[i % W][i // W] for i in range(sum(map(len, rows)))]

    def use(self, problem: Problem) -> None:
        """Make ``problem`` the one every worker holds; sent once per problem."""
        if problem is not self.problem:
            self.run(_use_problem, problem)

    def run(self, op, *args) -> list:
        """``op(cache, *args)`` in every running worker on its copy of this
        cache; returns the results (None or an array) by worker.

        The calling process runs worker 0's part after sending the others
        theirs.  Each reply carries that worker's counter increments.  An
        array from worker p >= 1 is a view of p's reply buffer, valid until
        the next call.  A worker's exception is raised here once every
        reply is in, and clears the key; a worker that died raises
        SolveError naming it, and the workers stop.
        """
        for _, sock, _ in self._procs:
            try:
                _send(sock, (op, args))
            except OSError:
                pass                   # a dead worker is found by its missing reply
        errors = []
        try:
            try:
                results = [op(self, *args)]
            except Exception as exc:
                results = [None]
                errors.append(exc)
            results += [self._reply(p, errors) for p in range(1, 1 + len(self._procs))]
        except BaseException:
            self._stop()               # an unread reply would answer the next request
            raise
        if errors:
            self.key = self.operator = None
            if any(isinstance(e, _Died) for e in errors):
                self._stop()
            raise errors[0]
        return results

    def _reply(self, p: int, errors: list):
        entry = self._procs[p - 1]
        proc, sock, buffer = entry
        try:
            (made, solved, error, spec), size = _recv(sock)
            self.counters.factorizations += made
            self.counters.solves += solved
            if error is not None:
                errors.append(error)
            if spec is None:
                return None
            if buffer.size < size:
                buffer = entry[2] = np.empty(size, dtype=np.uint8)
            _recv_exactly(sock, memoryview(buffer)[:size])
            return buffer[:size].view(spec[0]).reshape(spec[1])
        except (EOFError, OSError):
            proc.join(1.0)
            errors.append(_Died(f"pole worker {p} (pid {proc.pid}) died "
                                f"(exit code {proc.exitcode})"))
            return None

    def _resize(self, poles: int) -> None:
        """Run exactly the workers that own one of ``poles`` poles: fork the
        missing ones and stop the rest."""
        wanted = min(self.workers, poles) - 1
        _stop_workers(self._procs[wanted:])
        del self._procs[wanted:]
        if len(self._procs) == wanted:
            return
        if self._finalizer is None:
            self._finalizer = weakref.finalize(self, _stop_workers, self._procs)
        fork = multiprocessing.get_context("fork")
        while len(self._procs) < wanted:
            rank = len(self._procs) + 1
            here, there = socket.socketpair()
            proc = fork.Process(target=_serve, args=(there, here, self, rank),
                                name=f"rbainv-worker-{rank}", daemon=True)
            proc.start()
            there.close()
            self._procs.append([proc, here, np.empty(0, dtype=np.uint8)])

    def _stop(self) -> None:
        self.key = self.operator = None
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    def close(self) -> None:
        """Free this process's factors, then stop the worker processes;
        a later call starts new ones."""
        self.factors.clear()
        self._stop()

    def __enter__(self) -> "ShiftedFactorCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Died(SolveError):
    """A pole worker process ended while the calling process waited on it."""


_POLE_BYTES = np.dtype(complex).itemsize


def _pole_count(key: tuple) -> int:
    return len(key[2]) // _POLE_BYTES


_FRAME = struct.Struct("<QQ")       # bytes of the pickled part, bytes of the array


def _send(sock: socket.socket, obj, array: np.ndarray | None = None) -> None:
    """One message: ``obj`` pickled, then ``array``'s bytes as they are."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    raw = memoryview(b"" if array is None else np.ascontiguousarray(array)).cast("B")
    head = _FRAME.pack(len(data), len(raw)) + data
    sent = sock.sendmsg([head, raw])           # one call, so one wake-up of the reader
    if sent < len(head) + len(raw):             # a partial send
        sock.sendall(head[sent:])
        sock.sendall(raw[max(sent - len(head), 0):])


def _recv(sock: socket.socket) -> tuple:
    """The pickled part of one message and the size of the array bytes
    that follow it, which the caller reads."""
    frame = bytearray(_FRAME.size)
    _recv_exactly(sock, memoryview(frame))
    size, array_size = _FRAME.unpack(frame)
    data = bytearray(size)
    _recv_exactly(sock, memoryview(data))
    return pickle.loads(data), array_size


def _recv_exactly(sock: socket.socket, view: memoryview) -> None:
    while view:
        got = sock.recv_into(view)
        if not got:
            raise EOFError("the other end closed the connection")
        view = view[got:]


def _stop_workers(procs: list) -> None:
    """Close the sockets, which ends every worker's loop, and join them."""
    for _, sock, _ in procs:
        sock.close()
    for proc, _, _ in procs:
        proc.join()
    procs.clear()


def _serve(sock, parent_end, cache: ShiftedFactorCache, rank: int) -> None:
    """Worker ``rank``'s loop on its forked copy of ``cache``: run each
    operation the calling process sends and reply with the counter
    increments, the exception or None, and the array result, if any, as
    raw bytes.  Returns when the calling process closes its end or exits."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C stops the caller, and so this loop
    parent_end.close()                              # else the caller's exit would not end recv
    for _, other, _ in cache._procs:
        other.close()
    if cache._finalizer is not None:
        cache._finalizer.detach()
    cache._procs, cache._finalizer = [], None
    cache.rank = rank
    cache.factors, cache.operator = {}, None        # the caller's, copied by the fork
    counters = cache.counters
    while True:
        try:
            (op, args), _ = _recv(sock)
        except (EOFError, OSError):
            return
        made, solved = counters.factorizations, counters.solves
        out = error = None
        try:
            out = op(cache, *args)
        except Exception as exc:
            error = exc
        spec = None if out is None else (out.dtype.str, out.shape)
        try:
            _send(sock, (counters.factorizations - made, counters.solves - solved, error, spec),
                  out)
        except OSError:
            return


def _use_problem(cache: ShiftedFactorCache, problem: Problem) -> None:
    cache.problem = problem


def _factorize(cache: ShiftedFactorCache, model: Model, poles: np.ndarray) -> None:
    """This process's factors of K - xi_i M(model) for its poles, each
    stale one freed before the next is made, and those past ``poles`` too.
    The operator blocks go first: they are rebuilt if used again."""
    cache.key = cache.operator = None
    for i in [i for i in cache.factors if i >= len(poles)]:
        del cache.factors[i]
    M = assemble_M(cache.problem, model).astype(complex).tocsc()
    K = cache.problem.K.astype(complex).tocsc()
    for i in cache.owned(len(poles)):
        cache.factorize(i, K - poles[i] * M)
    cache.key = factor_key(cache.problem, model, poles)


def _solve(cache: ShiftedFactorCache, rhs: np.ndarray) -> np.ndarray:
    """A_i^{-1} rhs for this process's poles, one row each."""
    poles = cache.owned(_pole_count(cache.key))
    out = np.empty((len(poles), len(rhs)), dtype=complex)
    for k, i in enumerate(poles):
        out[k] = cache.solve(i, rhs)
    return out


def factor_key(problem: Problem, model: Model, poles: np.ndarray) -> tuple:
    """The problem by identity, its model version and the poles by value."""
    return problem, model.version_tag(), poles.tobytes()


def factorize_all_poles(problem: Problem, model: Model, approx: RationalApproximant,
                        cache: ShiftedFactorCache) -> None:
    """Factorize every A_i = K - xi_i M(m) unless the cache holds them; each
    stale factor, poles past ``approx``'s too, is freed by its worker, and
    workers that own none of ``approx``'s poles stop."""
    if cache.holds(factor_key(problem, model, approx.poles)):
        return
    cache.key = None
    cache.use(problem)
    cache._resize(approx.pole_count)
    cache.run(_factorize, model, approx.poles)


def solve_all_poles(problem: Problem, model: Model, approx: RationalApproximant,
                    rhs: np.ndarray, cache: ShiftedFactorCache) -> np.ndarray:
    """Solve A_i g_i = rhs for every pole; returns (m, N) complex array.

    Factorizes on demand, reusing the cache's factors when it holds this
    problem, model version and poles.
    """
    factorize_all_poles(problem, model, approx, cache)
    return np.stack(cache.gather(_solve, rhs))

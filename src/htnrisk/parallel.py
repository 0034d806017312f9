"""Contiguous blocks of independent work, one per usable core, and
persistent workers.

`generate` and `cohort` split their patients and `attribute` its
integrated-gradients samples into blocks; `train` computes LSTM gradient
shards on persistent workers. The first block runs in the
calling process and each other one in a child started with `fork`. A
block's result is a list of raw buffers, which a child sends back
through a pipe one message each: a pickle of a large result costs a
second copy and fragments the parent's heap, and one pickle of
`generate`'s four tables left the parent's peak RSS ~6 MB higher in the
stages that follow.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from typing import Callable

#: The (get, set) thread-count functions an OpenBLAS build may export:
#: numpy's bundled `libscipy_openblas64_`, then a system OpenBLAS.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

#: Fewest patients worth a process of their own in `generate` and
#: `cohort`: a block this size takes ~0.25 s to generate and ~0.2 s to
#: select, against a few milliseconds to fork and return it.
MIN_BLOCK_PATIENTS = 500


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def block_ranges(n: int, cores: int, min_size: int) -> list[range]:
    """Contiguous blocks of range(n), at most one per core and none
    smaller than `min_size`; one block where processes cannot be forked."""
    count = min(cores, n // min_size)
    if count > 1:
        import multiprocessing  # only here: small inputs never pay the import

        if "fork" not in multiprocessing.get_all_start_methods():
            count = 1
    count = max(count, 1)
    return [range(n * j // count, n * (j + 1) // count) for j in range(count)]


@cache
def blas_thread_control() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) for the thread count of the OpenBLAS this process has
    loaded, or None where it cannot be found: no /proc/self/maps, no
    OpenBLAS mapped, or none of the known symbols. Looked up once: the
    ctypes objects of a lookup hold reference cycles, which every LSTM
    `train` would otherwise leave to the paused collector."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)  # already loaded: the same handle numpy uses
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def blas_at_one_thread():
    """Hold BLAS at one thread while the body runs, and restore the
    previous count after it, also on an exception. Yields whether the
    count could be set (see `blas_thread_control`)."""
    control = blas_thread_control()
    if control is None:
        yield False
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)


@contextmanager
def one_blas_thread(blocks: list[range]):
    """Yield `blocks` with BLAS at one thread per process while they run,
    and the previous count restored after. Processes that each start a
    BLAS thread per core oversubscribe the cores and run slower than one
    process, so where the count cannot be set this yields one block of
    everything and leaves BLAS as it is."""
    if len(blocks) > 1:
        with blas_at_one_thread() as capped:
            if capped:
                yield blocks
                return
    yield [range(blocks[0].start, blocks[-1].stop)]


def _send_result(connection, compute, argument) -> bool:
    """Send the exception `compute(argument)` raised, or the number of
    buffers it returned and then each one; returns whether it returned."""
    try:
        buffers = compute(argument)
    except Exception as exc:
        connection.send(exc)
        return False
    connection.send(len(buffers))
    for buffer in buffers:
        connection.send_bytes(buffer)
    return True


def _receive(child, connection, name: str) -> list[bytes]:
    """The buffers `_send_result` sent, or the exception it sent raised
    here with its own type; a child gone first is a ChildProcessError."""
    try:
        status = connection.recv()
        if not isinstance(status, BaseException):
            return [connection.recv_bytes() for _ in range(status)]
    except (EOFError, OSError):
        child.join()
        raise ChildProcessError(
            f"the process {name} exited with code {child.exitcode} before sending them"
        ) from None
    raise status


def _send_block(sender, compute, block: range) -> None:
    """Body of a forked child of `run_blocks`."""
    _send_result(sender, compute, block)
    sender.close()


def run_blocks(blocks: list[range], compute, label: str) -> list[list]:
    """`compute(block)` of every block, in block order: the first in this
    process, each other one in a forked child. `compute` returns a list
    of buffers (bytes or C-contiguous numpy arrays): the first
    block's list comes back as it is, and a child's as one `bytes` per
    buffer, read here in the main thread. An exception a child raises is
    raised here with its own type; a child that dies first is a
    ChildProcessError naming `label` (such as "generating patients") and
    the block."""
    if len(blocks) == 1:
        return [compute(blocks[0])]
    import multiprocessing

    # fork, not spawn: a child starts with the program already imported.
    # It takes no lock another thread might hold at the fork: OpenBLAS
    # shuts its thread pool down in its own fork handler.
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for block in blocks[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_block, args=(sender, compute, block), daemon=True)
            children.append((child, receiver))
            child.start()
            sender.close()
        results = [compute(blocks[0])]
        for (child, receiver), block in zip(children, blocks[1:]):
            name = f"{label} {block.start}-{block.stop - 1}"
            results.append(_receive(child, receiver, name))
        return results
    except BaseException:
        # The other blocks are no longer wanted: stop children still
        # computing, and any blocked sending to a pipe about to close.
        for child, _ in children:
            if child.pid is not None:
                child.terminate()
        raise
    finally:
        for child, receiver in children:
            receiver.close()
            if child.pid is not None:
                child.join()


def _serve(connection, compute) -> None:
    """Body of a child of `workers`: answer each request with
    `_send_result` until the parent sends None or is gone, or `compute`
    raises."""
    try:
        while (count := connection.recv()) is not None:
            request = [connection.recv_bytes() for _ in range(count)]
            if not _send_result(connection, compute, request):
                break
    except EOFError:
        pass
    connection.close()


@dataclass
class Worker:
    """A persistent child of `workers`: `send` it a request, a list of
    buffers, then `receive` the buffers `compute` returned for it."""

    process: object
    connection: object
    name: str

    def send(self, buffers: list) -> None:
        try:
            self.connection.send(len(buffers))
            for buffer in buffers:
                self.connection.send_bytes(buffer)
        except OSError:
            self.process.join()
            raise ChildProcessError(
                f"the process {self.name} exited with code {self.process.exitcode}"
            ) from None

    def receive(self) -> list[bytes]:
        return _receive(self.process, self.connection, self.name)


@contextmanager
def workers(count: int, compute, label: str):
    """Yield `count` persistent children, forked here, as `Worker`s; each
    answers every request with `compute(request)`, a list of buffers in
    and out as in `run_blocks`. A child forked once shares the parent's
    data through copy-on-write, and serves many requests. The rules are
    those of `run_blocks`: a child's exception is raised in the parent
    with its own type, a child that dies is a ChildProcessError naming
    `label`, and on any exception the children are stopped. All are
    joined before this returns. Where processes cannot be forked, this
    yields no children."""
    if count < 1:
        yield []
        return
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        yield []
        return
    context = multiprocessing.get_context("fork")
    started = []
    try:
        for j in range(1, count + 1):
            connection, child_end = context.Pipe()
            process = context.Process(target=_serve, args=(child_end, compute), daemon=True)
            started.append(Worker(process, connection, f"{label} in worker {j}"))
            process.start()
            child_end.close()
        yield started
        for worker in started:
            with suppress(OSError):  # a child gone after its last answer lost nothing
                worker.connection.send(None)
    except BaseException:
        for worker in started:
            if worker.process.pid is not None:
                worker.process.terminate()
        raise
    finally:
        for worker in started:
            worker.connection.close()
            if worker.process.pid is not None:
                worker.process.join()

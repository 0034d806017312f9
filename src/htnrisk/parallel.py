"""Contiguous blocks of independent work, one per usable core.

`generate` splits its patients and `attribute` its integrated-gradients
samples this way. The first block runs in the calling process and each
other one in a child started with `fork`. A block's result is a list of
raw buffers, which a child sends back through a pipe one message each:
a pickle of a large result costs a second copy and fragments the
parent's heap, and one pickle of `generate`'s four tables left the
parent's peak RSS ~6 MB higher in the stages that follow.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable

#: The (get, set) thread-count functions an OpenBLAS build may export:
#: numpy's bundled `libscipy_openblas64_`, then a system OpenBLAS.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


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


def blas_thread_control() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) for the thread count of the OpenBLAS this process has
    loaded, or None where it cannot be found: no /proc/self/maps, no
    OpenBLAS mapped, or none of the known symbols."""
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
def one_blas_thread(blocks: list[range]):
    """Yield `blocks` with BLAS at one thread per process while they run,
    and the previous count restored after. Processes that each start a
    BLAS thread per core oversubscribe the cores and run slower than one
    process, so where the count cannot be set this yields one block of
    everything and leaves BLAS as it is."""
    control = blas_thread_control() if len(blocks) > 1 else None
    if control is None:
        yield [range(blocks[0].start, blocks[-1].stop)]
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield blocks
    finally:
        set_(previous)


def _send_block(sender, compute, block: range) -> None:
    """Body of a forked child: send the exception `compute` raised, or
    the number of buffers it returned and then each one."""
    try:
        buffers = compute(block)
    except Exception as exc:
        sender.send(exc)
    else:
        sender.send(len(buffers))
        for buffer in buffers:
            sender.send_bytes(buffer)
    sender.close()


def _receive_block(child, receiver, block: range, label: str) -> list[bytes]:
    try:
        status = receiver.recv()
        if not isinstance(status, BaseException):
            return [receiver.recv_bytes() for _ in range(status)]
    except EOFError:
        child.join()
        raise ChildProcessError(
            f"the process {label} {block.start}-{block.stop - 1} "
            f"exited with code {child.exitcode} before sending them"
        ) from None
    raise status


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
            results.append(_receive_block(child, receiver, block, label))
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

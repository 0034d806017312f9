"""Blocks of work, the buffers they return and the BLAS thread cap they
run under."""

import multiprocessing
import os

import numpy as np
import pytest

import htnrisk.parallel as parallel


def _buffers(block):
    """A label, the block's numbers as float64 and an empty buffer."""
    numbers = np.arange(block.start, block.stop) / 3
    return [b"block %d-%d" % (block.start, block.stop), numbers, b""]


def test_forked_blocks_return_their_buffers_byte_equal_and_in_block_order():
    blocks = parallel.block_ranges(40, 4, 1)  # the first here, three forked
    results = parallel.run_blocks(blocks, _buffers, "testing")
    assert [[bytes(b) for b in buffers] for buffers in results] == [
        [bytes(b) for b in _buffers(block)] for block in blocks
    ]
    assert isinstance(results[0][1], np.ndarray)  # the first block's list as it is
    assert all(type(b) is bytes for buffers in results[1:] for b in buffers)
    assert multiprocessing.active_children() == []


def test_blocks_run_at_one_blas_thread_and_the_count_is_restored(blas_threads):
    blocks = parallel.block_ranges(10, 2, 5)
    with parallel.one_blas_thread(blocks) as running:
        assert running == blocks
        assert blas_threads() == 1
    assert blas_threads() == 2
    with pytest.raises(KeyError):
        with parallel.one_blas_thread(blocks):
            raise KeyError("a block failed")
    assert blas_threads() == 2


def test_one_block_leaves_blas_as_it_is(blas_threads):
    with parallel.one_blas_thread([range(10)]) as running:
        assert running == [range(10)]
        assert blas_threads() == 2


def test_blocks_merge_into_one_without_blas_thread_control(monkeypatch):
    monkeypatch.setattr(parallel, "blas_thread_control", lambda: None)
    with parallel.one_blas_thread(parallel.block_ranges(10, 3, 3)) as running:
        assert running == [range(0, 10)]


def test_blas_is_held_at_one_thread_and_restored_also_on_an_exception(blas_threads):
    with parallel.blas_at_one_thread() as capped:
        assert capped
        assert blas_threads() == 1
    assert blas_threads() == 2
    with pytest.raises(KeyError):
        with parallel.blas_at_one_thread():
            raise KeyError("a shard failed")
    assert blas_threads() == 2


def test_blas_at_one_thread_says_so_without_blas_thread_control(monkeypatch):
    monkeypatch.setattr(parallel, "blas_thread_control", lambda: None)
    with parallel.blas_at_one_thread() as capped:
        assert not capped


def _answer(request):
    """Doubles a float64 request; b"raise" and b"die" fail in two ways."""
    if request == [b"raise"]:
        raise ValueError("a bad request")
    if request == [b"die"]:
        os._exit(5)
    return [2.0 * np.frombuffer(request[0]), b"done"]


def test_persistent_workers_answer_many_requests():
    with parallel.workers(2, _answer, "testing") as pool:
        assert len(pool) == 2
        for k in range(3):
            for j, worker in enumerate(pool):
                worker.send([np.arange(k + j, dtype=np.float64)])
            for j, worker in enumerate(pool):
                assert worker.receive() == [(2.0 * np.arange(k + j)).tobytes(), b"done"]
    assert multiprocessing.active_children() == []


def test_no_workers_are_forked_for_a_count_below_one():
    with parallel.workers(0, _answer, "testing") as pool:
        assert pool == []


def test_a_worker_exception_keeps_its_type_and_stops_every_worker():
    with pytest.raises(ValueError, match="^a bad request$"):
        with parallel.workers(2, _answer, "testing") as pool:
            pool[0].send([np.ones(2)])
            pool[1].send([b"raise"])
            pool[1].receive()
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_a_child_process_error():
    with pytest.raises(ChildProcessError, match=(
        "^the process testing in worker 2 exited with code 5 before sending them$"
    )):
        with parallel.workers(2, _answer, "testing") as pool:
            pool[1].send([b"die"])
            pool[1].receive()
    assert multiprocessing.active_children() == []

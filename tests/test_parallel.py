"""Blocks of work, the buffers they return and the BLAS thread cap they
run under."""

import multiprocessing

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

"""Blocks of work and the BLAS thread cap they run under."""

import pytest

import htnrisk.parallel as parallel


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

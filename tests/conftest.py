"""Pin BLAS/OpenMP to one thread before numpy loads so runs are bit-reproducible,
and share the tracemalloc fixture of the memory tests."""

import contextlib
import os
import sys
import tracemalloc

import pytest

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

sys.path.insert(0, os.path.dirname(__file__))


@contextlib.contextmanager
def _traced():
    mem = {}
    tracemalloc.start()
    try:
        yield mem
        mem["current"], mem["peak"] = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_memory():
    """``with traced_memory() as mem:`` traces the block's allocations; on
    exit ``mem`` holds the bytes still allocated ("current") and the peak."""
    return _traced

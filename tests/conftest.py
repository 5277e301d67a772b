"""Shared fixtures."""

import pytest

from diwt import kernels


@pytest.fixture
def cold_kernels():
    """An empty kernel memo, emptied again after the test.

    A test that spies below the kernels needs every entry integrated, not
    answered from an earlier test's entries; it can call the fixture's value
    to empty the memo mid-test.
    """
    kernels.kernel_memo_clear()
    yield kernels.kernel_memo_clear
    kernels.kernel_memo_clear()

"""Shared fixtures."""

import pytest

from diwt import kernels, specfun


def _clear_memos():
    kernels.kernel_memo_clear()
    specfun.w_memo_clear()


@pytest.fixture
def cold_memos():
    """Empty kernel and W memos, emptied again after the test.

    A test that spies below the kernels or below ``specfun._w_scaled_many``
    needs every value computed, not answered from an earlier test's
    entries; it can call the fixture's value to empty both memos mid-test.
    """
    _clear_memos()
    yield _clear_memos
    _clear_memos()

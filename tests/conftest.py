"""Fixtures shared by the test modules."""

import pytest

from divcascade import analysis


@pytest.fixture
def no_helpers():
    """No scan helper alive before or after the test.

    A helper runs the code it was forked with: one forked while a test
    patches what a scan runs keeps the patch, and one forked before
    lacks it.  Counts of forks start from none.
    """
    analysis._reap(analysis._helpers)
    yield
    analysis._reap(analysis._helpers)

"""Fixtures shared by the test modules, and one BLAS thread for the suite.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when numpy is first imported, which
is after this file loads.  The dense reference's ``eigh`` and ``tensordot``
are small, and on more threads they spin whenever another process holds a
CPU; a caller's own setting wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap ``module.name`` for the test; each call's arguments go on a list."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install

"""Fixtures shared by the test modules."""

import pytest


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

import sys

import pytest

sys.path.insert(0, "tests")

try:
    from hypothesis import settings
except ImportError:  # the tests that need hypothesis fail to collect on their own
    pass
else:
    # A larger budget for every property test: pytest --hypothesis-profile=ci.
    # Tests that set their own max_examples scale it through helpers.examples.
    settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture
def http_server(monkeypatch):
    """A running loopback ``helpers.ScriptedServer``; set its ``script``
    before the first request."""
    from helpers import serving

    monkeypatch.setenv("no_proxy", "127.0.0.1")  # a proxy in the environment is bypassed
    with serving() as server:
        yield server

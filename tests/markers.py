"""Skip markers shared by the test modules."""

import pytest

from repro.runtime.procbackend import fork_available

#: A test that forks: process-backend ranks or a patched service worker.
needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

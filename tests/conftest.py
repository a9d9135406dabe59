"""Give every test its own data, whatever ran before it.

Several test modules draw their inputs from a module-level ``rng``. One
generator shared by a module would hand each test data that depends on
which tests ran first, so a test run alone with ``-k`` would see other
data than in the full suite.
"""
import zlib

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _reseed_module_rng(request):
    """Replace the test module's ``rng`` with one seeded from the test's node id."""
    if hasattr(request.module, "rng"):
        request.module.rng = np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))

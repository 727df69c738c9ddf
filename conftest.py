"""Settings shared by every test under the repository root.

foldeg.bott remembers, per process, each (d, pair) whose direct fiber
has passed the checks of method "both", and takes that fiber from its
closed form afterwards.  Every test starts with nothing remembered, as a
fresh process does, so that what a test computes does not depend on the
tests that ran before it.
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def fresh_both_checks():
    bott = sys.modules.get("foldeg.bott")
    if bott is not None:
        bott._both_checked.clear()

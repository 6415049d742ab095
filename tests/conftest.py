"""Shared test set-up: a reproducible hypothesis profile for CI.

GitHub Actions sets ``CI``; there the property tests draw their examples
deterministically and read no example database, so a failure in CI repeats
locally under ``CI=1 python -m pytest``.  Example counts and deadlines stay
per test, and local runs stay randomized.
"""

import os

import pytest
from hypothesis import settings

from lorentzk import kfunctional

settings.register_profile("ci", derandomize=True, print_blob=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def fresh_couple_verdicts():
    """Every test starts with no couple verdicts memoized (``kfunctional.s_couple_hypotheses``), so a test
    that patches ``Weight.moment`` or a checker sees the checkers run, and leaves no verdict of theirs behind."""
    kfunctional._couple_verdicts.cache_clear()

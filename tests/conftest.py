"""Shared test set-up: a reproducible hypothesis profile for CI.

GitHub Actions sets ``CI``; there the property tests draw their examples
deterministically and read no example database, so a failure in CI repeats
locally under ``CI=1 python -m pytest``.  Example counts and deadlines stay
per test, and local runs stay randomized.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

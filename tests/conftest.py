"""Test-suite settings.

Property tests run under a fixed hypothesis profile: examples are derived
from each test's name instead of a random seed, so every run checks the same
cases; a fixed example count with no per-example deadline keeps the suite's
time bounded and its verdicts independent of machine load; and no example
database is written.
"""

from hypothesis import settings

settings.register_profile(
    "tritcirc", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("tritcirc")

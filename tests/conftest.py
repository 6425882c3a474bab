"""Hypothesis profiles.  ``ci`` draws the same examples on every run, from a
fixed example budget, with no per-example deadline (a timing failure would
not reproduce), and prints a failing example's reproduction blob; select it
with HYPOTHESIS_PROFILE=ci.  ``explore`` draws new examples on each run, 500
per test where the test does not set its own count, with no deadline, and
prints the blob, to find failing inputs that the fixed ``ci`` draws miss; the
weekly explore workflow selects it.  Without a profile the property tests
draw new examples on each run, for local work.

A test that sets its own count passes ``examples(n)`` to ``@settings``: n
under ``default`` and ``ci``, and five times n under ``explore``, the ratio
of the profiles' own counts (a count set in ``@settings`` wins over the
profile's)."""

import os

from hypothesis import settings

PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")

settings.register_profile("ci", derandomize=True, max_examples=100, deadline=None, print_blob=True)
settings.register_profile("explore", derandomize=False, max_examples=500, deadline=None,
                          print_blob=True)
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """The example count of a test that draws n under ``ci``."""

    return 5 * n if PROFILE == "explore" else n

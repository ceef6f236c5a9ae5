"""Suite-wide Hypothesis profile: the same commit gives the same verdict.

``derandomize=True`` draws every property's examples from a seed derived
from the test itself, and ``database=None`` neither saves failing
examples to ``.hypothesis/`` nor replays ones an earlier run left there,
so tier-1 does not depend on directory state.  The per-module
``settings(...)`` objects are built after this file is imported and
inherit both values.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")

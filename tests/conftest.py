"""Suite-wide Hypothesis profile: the same commit gives the same verdict.

``derandomize=True`` draws every property's examples from a seed derived
from the test itself, and ``database=None`` neither saves failing
examples to ``.hypothesis/`` nor replays ones an earlier run left there,
so tier-1 does not depend on directory state.  The per-module
``settings(...)`` objects are built after this file is imported and
inherit both values.

Hypothesis also mixes into generation the literals it harvests from
every loaded module of the project, so the same property would draw
different examples under ``pytest tests/x.py`` than in the full run,
which loads more modules.  The harvest is switched off: generation sees
Hypothesis's own constants only (``tests/test_determinism.py`` fails if
the hook it replaces moves or stops being read).
"""

from hypothesis import settings
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants


def _no_local_constants() -> Constants:
    return Constants()


providers._get_local_constants = _no_local_constants

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")

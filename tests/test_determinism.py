"""The suite's generation does not depend on which modules are loaded.

``tests/conftest.py`` replaces Hypothesis's private
``providers._get_local_constants`` — the harvest of literals from every
loaded project module that generation mixes in — with one that returns
nothing.  These tests fail if the hook disappears, if the replacement
starts returning constants, or if the provider stops reading it (each
of which would let a derandomized property draw different examples
under ``pytest tests/x.py`` than in the full run).
"""

from hypothesis.internal.conjecture import providers

import repro.session  # noqa: F401  (loads most of the project's modules)


def test_the_harvest_hook_exists_and_returns_nothing():
    assert hasattr(providers, "_get_local_constants"), (
        "Hypothesis no longer has providers._get_local_constants: find where "
        "it harvests module constants now and switch that off in conftest.py"
    )
    # ... even with the project's modules, full of literals, loaded by now
    assert len(providers._get_local_constants()) == 0


def test_the_provider_reads_the_hook():
    assert len(providers.HypothesisProvider(None)._local_constants) == 0

"""Shared test settings.

Property tests run under a fixed hypothesis profile: derandomized, so
every run draws the same examples, with no per-example deadline and few
examples, so the default suite stays deterministic and fast.  Without
hypothesis installed the property tests skip and the rest still runs.
"""

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile(
        "foldeg", derandomize=True, deadline=None, max_examples=10
    )
    settings.load_profile("foldeg")

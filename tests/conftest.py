"""Shared test settings.

Property tests run under a fixed hypothesis profile: derandomized, so
every run draws the same examples, with no per-example deadline and few
examples, so the default suite stays deterministic and fast.  Without
hypothesis installed the property tests skip and the rest still runs.
The profile "foldeg-mutants" is the same without shrinking a failure
or keeping examples in a database: the mutant table
(tests/test_mutants.py) needs only to see each named test fail.
"""

try:
    from hypothesis import Phase, settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile(
        "foldeg", derandomize=True, deadline=None, max_examples=10
    )
    settings.register_profile(
        "foldeg-mutants", settings.get_profile("foldeg"),
        phases=[Phase.explicit, Phase.reuse, Phase.generate], database=None,
    )
    settings.load_profile("foldeg")

"""Suite-wide hypothesis profiles.

The default ``ci`` profile is derandomized: every property test draws
the same examples on every run, so tier-1 passes or fails on the code,
not on the seed. Exploratory runs opt into random search with
hypothesis's own flags, e.g.
``pytest --hypothesis-profile=random --hypothesis-seed=123``.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile("ci")

"""One hypothesis profile for the whole suite: every property test draws the
same examples on every run and has no per-example deadline."""

from hypothesis import settings

settings.register_profile("envma", derandomize=True, deadline=None)
settings.load_profile("envma")

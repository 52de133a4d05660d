"""Shared test configuration: hypothesis runs a fixed, derandomized set of
examples, so the property tests give the same verdict on every run."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

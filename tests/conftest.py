"""Shared test configuration: hypothesis runs a fixed, derandomized set of
examples, so the property tests give the same verdict on every run; the
clear_verify_caches fixture empties the sweep engine's memo caches."""
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def clear_verify_caches():
    """Clear every lru_cache of gft.verify (each is found by its cache_clear)
    before and after the test, so no value cached by another test hides a
    patched kernel, and a patched kernel's values outlive no test."""
    from gft import verify
    caches = [obj for obj in vars(verify).values() if hasattr(obj, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()

import sys

import pytest


def _clear_ksums_caches():
    for name, module in list(sys.modules.items()):
        if name == "ksums" or name.startswith("ksums."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_caches_around_patches(request):
    """Clear every ksums lru_cache before and after a test that monkeypatches.

    A cached table built by an earlier test would be served after the patch,
    and one built from patched code would outlive it. Autouse fixtures are set
    up before monkeypatch and torn down after its undo, so the second clear
    sees the library restored.
    """
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    _clear_ksums_caches()
    yield
    _clear_ksums_caches()

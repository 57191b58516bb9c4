from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True, scope="session")
def _session_build_cache(tmp_path_factory):
    """Build the compiled RK4 kernel into a cache of the session's own, not
    the user's $XDG_CACHE_HOME; subprocesses inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
